#!/usr/bin/env python3
"""Print the headline GEO/LEO NTN numbers from first principles.

Covers the S-band link budget bounds, FSPL and RTT envelopes, LEO
kinematics, maximum Doppler over a 10-degree pass, inclined-GEO diurnal
Doppler, in-beam Doppler span, visibility, and differential delay.
"""

import math

import numpy as np

from ntnsim.constants import SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S
from ntnsim.geometry import (
    BeamSpec,
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    beam_doppler_profile,
    differential_delay,
    doppler_hz,
    geometry_sample,
    geometry_samples,
    overhead_pass_orbit,
    propagate,
    propagate_many,
    satellite_state_over,
    slant_range,
    visibility_duration,
)
from ntnsim.linkbudget import LinkBudgetParams, bandwidth_rescale, fspl, snr

FC = 2.0e9


def link_bounds(name, eirp, g_over_t, alt):
    def at(elev, atmo):
        return snr(
            LinkBudgetParams(
                eirp_dbw=eirp,
                g_over_t_db_k=g_over_t,
                bandwidth_hz=180e3,
                fspl_db=fspl(slant_range(elev, alt), FC / 1e9),
                atmospheric_db=atmo,
            )
        )

    print(f"  {name}: {at(10.0, 0.2):6.2f} .. {at(90.0, 0.03):6.2f} dB")


def main():
    print("S-band NB-IoT SNR bounds (180 kHz):")
    link_bounds("GEO DL", 51.6, -31.6, 35786.0)
    link_bounds("GEO UL", -7.0, 19.0, 35786.0)
    link_bounds("LEO DL", 26.6, -31.6, 600.0)
    link_bounds("LEO UL", -7.0, 1.1, 600.0)
    print(f"  UL narrowbanding 180 -> 15 kHz: +{bandwidth_rescale(0, 180e3, 15e3):.3f} dB")

    print("FSPL endpoints at 2 GHz:")
    for label, alt in (("GEO", 35786.0), ("LEO600", 600.0)):
        print(
            f"  {label}: {fspl(slant_range(90, alt), 2.0):.1f} dB (zenith), "
            f"{fspl(slant_range(10, alt), 2.0):.1f} dB (10 deg)"
        )

    print("Bent-pipe RTT envelopes:")
    for label, alt in (("GEO", 35786.0), ("LEO600", 600.0)):
        lo = 4.0 * slant_range(90, alt) / SPEED_OF_LIGHT_KM_S * 1e3
        hi = 4.0 * slant_range(10, alt) / SPEED_OF_LIGHT_KM_S * 1e3
        print(f"  {label}: {lo:.1f} .. {hi:.1f} ms")

    leo = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=600.0, inclination_deg=90.0)
    print(f"LEO600 inertial speed: {leo.inertial_speed_km_s():.2f} km/s, "
          f"period {leo.period_s() / 60:.1f} min")

    obs = GroundPosition(0.0, 0.0)
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 150.0, obs, overhead_at_s=3000.0)
    pass_t = np.arange(2400.0, 3600.0, 1.0)
    elevation, _, rr = geometry_samples(*propagate_many(orbit, pass_t), obs)
    max_ppm = float(np.abs(rr[elevation >= 10.0]).max()) / SPEED_OF_LIGHT_KM_S * 1e6
    print(f"LEO600 max Doppler over a 10-deg retrograde pass: {max_ppm:.1f} ppm "
          f"({max_ppm * 1e-6 * FC / 1e3:.1f} kHz at 2 GHz), delay drift {max_ppm:.1f} us/s")
    print(f"LEO600 visibility above 10 deg: "
          f"{visibility_duration(orbit, obs, 10.0):.0f} s")

    geo_i10 = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0)
    stockholm = GroundPosition(59.0, 0.0)
    day_t = np.arange(0.0, SIDEREAL_DAY_S, 60.0)
    _, _, rr = geometry_samples(*propagate_many(geo_i10, day_t), stockholm)
    peak = float(np.abs(doppler_hz(rr, FC)).max())
    print(f"Inclined GEO (i=10 deg, 59N observer) peak Doppler: {peak:.0f} Hz")

    sat = satellite_state_over(obs, 600.0)
    profile = beam_doppler_profile(sat, BeamSpec(center=obs, diameter_km=50.0), FC, n=101)
    span = max(d for _, d in profile) - min(d for _, d in profile)
    print(f"In-beam Doppler span, 50 km LEO beam: {span:.0f} Hz")

    dd_leo = differential_delay(sat, BeamSpec(center=obs, diameter_km=1000.0))
    print(f"LEO600 differential delay, 1000 km beam at zenith: {dd_leo:.2f} ms")
    geo = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
    beam_center = GroundPosition(57.0, 0.0)
    dd_geo = differential_delay(propagate(geo, 0.0), BeamSpec(center=beam_center, diameter_km=3500.0))
    print(f"GEO differential delay, 3500 km beam at {geometry_sample(propagate(geo, 0.0), beam_center, FC).elevation_deg:.0f} deg elevation: {dd_geo:.2f} ms")


if __name__ == "__main__":
    main()
