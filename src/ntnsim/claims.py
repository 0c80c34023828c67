"""The paper's headline numbers, each listed once next to the call that
computes ours (arXiv 2010.04906; 3GPP TR 36.763).

``tests/test_acceptance.py`` checks every row against its tolerance and
``scripts/reproduce_overview_numbers.py`` prints the table.  A row whose
paper value is None is printed but not checked: the paper gives none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .constants import SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S
from .geometry import GEO_ALTITUDE_KM, BeamSpec, GroundPosition, OrbitKind, OrbitSpec
from .geometry import beam_doppler_profile, differential_delay, doppler_hz, geometry_samples
from .geometry import one_way_delay_ms, overhead_pass_orbit, propagate, propagate_many
from .geometry import satellite_state_over, slant_range, visibility_duration
from .linkbudget import ATMOSPHERIC_DB, ATMOSPHERIC_DB_MAX, LinkBudgetParams
from .linkbudget import bandwidth_rescale, fspl, snr

FC_HZ = 2.0e9
LEO_ALTITUDE_KM = 600.0
# The ground point the LEO pass and beams are centred on.
EQUATOR = GroundPosition(0.0, 0.0)


@dataclass(frozen=True)
class Claim:
    name: str
    unit: str
    paper: Optional[float]
    compute: Callable[[], float]
    tolerance: float = 0.0
    relative: bool = False

    def error(self, value: float) -> float:
        """Ours minus the paper's, as a fraction of it for a relative tolerance."""
        return (value - self.paper) / (abs(self.paper) if self.relative else 1.0)


def _fspl_db(altitude_km, elevation_deg):
    return fspl(slant_range(elevation_deg, altitude_km), FC_HZ / 1e9)


def _rtt_ms(altitude_km, elevation_deg):
    """Bent-pipe round trip with the feeder link at the service elevation."""
    return 4.0 * one_way_delay_ms(slant_range(elevation_deg, altitude_km))


def _snr_db(eirp_dbw, g_over_t_db_k, altitude_km, elevation_deg, atmospheric_db):
    fspl_db = _fspl_db(altitude_km, elevation_deg)
    return snr(LinkBudgetParams(eirp_dbw, g_over_t_db_k, 180e3, fspl_db, atmospheric_db=atmospheric_db))


def _snr_rows(link, eirp_dbw, g_over_t_db_k, altitude_km, worst, best):
    """180 kHz SNR at 10 deg with the worst atmospheric loss, and at 90 deg."""
    at = partial(_snr_db, eirp_dbw, g_over_t_db_k, altitude_km)
    return (
        Claim(f"{link} SNR at 10 deg", "dB", worst, partial(at, 10.0, ATMOSPHERIC_DB_MAX), 0.15),
        Claim(f"{link} SNR at 90 deg", "dB", best, partial(at, 90.0, ATMOSPHERIC_DB), 0.15),
    )


def _leo(altitude_km):
    return OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=altitude_km)


def _period_min(altitude_km):
    return _leo(altitude_km).period_s() / 60.0


# LEO600 on a retrograde orbit, overhead at t = 3000 s: its earth-relative
# speed, and so its Doppler at 10 deg, is the highest.
_PASS = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, LEO_ALTITUDE_KM, 150.0, EQUATOR, 3000.0)


def _max_pass_doppler_ppm():
    elevation, _, rr = geometry_samples(*propagate_many(_PASS, np.arange(2400.0, 3600.0)), EQUATOR)
    return float(np.abs(rr[elevation >= 10.0]).max()) / SPEED_OF_LIGHT_KM_S * 1e6


def _inclined_geo_peak_doppler_hz():
    orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0)
    t = np.arange(0.0, SIDEREAL_DAY_S, 60.0)
    _, _, rr = geometry_samples(*propagate_many(orbit, t), GroundPosition(59.0, 0.0))
    return float(np.abs(doppler_hz(rr, FC_HZ)).max())


def _beam_doppler_span_hz():
    sat = satellite_state_over(EQUATOR, LEO_ALTITUDE_KM)
    doppler = [d for _, d in beam_doppler_profile(sat, BeamSpec(EQUATOR, 50.0), FC_HZ, n=101)]
    return max(doppler) - min(doppler)


CLAIMS: tuple[Claim, ...] = (
    *_snr_rows("GEO DL", 51.6, -31.6, GEO_ALTITUDE_KM, 0.04, 1.27),
    *_snr_rows("GEO UL", -7.0, 19.0, GEO_ALTITUDE_KM, -7.96, -6.73),
    *_snr_rows("LEO DL", 26.6, -31.6, LEO_ALTITUDE_KM, 1.44, 11.8),
    *_snr_rows("LEO UL", -7.0, 1.1, LEO_ALTITUDE_KM, 0.54, 10.9),
    Claim("UL rescale 180 to 15 kHz", "dB", 10.792, partial(bandwidth_rescale, 0.0, 180e3, 15e3), 5e-4),
    Claim("GEO FSPL at 90 deg", "dB", 189.5, partial(_fspl_db, GEO_ALTITUDE_KM, 90.0), 0.1),
    Claim("GEO FSPL at 10 deg", "dB", 190.6, partial(_fspl_db, GEO_ALTITUDE_KM, 10.0), 0.1),
    Claim("LEO600 FSPL at 90 deg", "dB", 154.0, partial(_fspl_db, LEO_ALTITUDE_KM, 90.0), 0.1),
    Claim("LEO600 FSPL at 10 deg", "dB", 164.2, partial(_fspl_db, LEO_ALTITUDE_KM, 10.0), 0.1),
    Claim("GEO RTT at 90 deg", "ms", 477.0, partial(_rtt_ms, GEO_ALTITUDE_KM, 90.0), 0.5),
    Claim("GEO RTT at 10 deg", "ms", 541.0, partial(_rtt_ms, GEO_ALTITUDE_KM, 10.0), 0.5),
    Claim("LEO600 RTT at 90 deg", "ms", 8.0, partial(_rtt_ms, LEO_ALTITUDE_KM, 90.0), 0.5),
    Claim("LEO600 RTT at 10 deg", "ms", 25.8, partial(_rtt_ms, LEO_ALTITUDE_KM, 10.0), 0.5),
    Claim("LEO600 inertial speed", "km/s", 7.56, _leo(LEO_ALTITUDE_KM).inertial_speed_km_s, 0.005, True),
    Claim("LEO600 period", "min", None, partial(_period_min, LEO_ALTITUDE_KM)),
    Claim("LEO500 period", "min", 94.5, partial(_period_min, 500.0), 0.01, True),
    Claim("LEO2000 period", "min", 127.0, partial(_period_min, 2000.0), 0.01, True),
    Claim("LEO600 max Doppler above 10 deg", "ppm", 24.0, _max_pass_doppler_ppm, 0.05, True),
    Claim("LEO600 visibility above 10 deg", "s", 450.0,
          partial(visibility_duration, _PASS, EQUATOR, 10.0, step_s=1.0), 0.25, True),
    Claim("Inclined GEO peak Doppler at 59N", "Hz", 500.0, _inclined_geo_peak_doppler_hz, 0.20, True),
    Claim("LEO600 Doppler span, 50 km beam", "Hz", None, _beam_doppler_span_hz),
    Claim("LEO600 differential delay, 1000 km beam", "ms", None, partial(
        differential_delay, satellite_state_over(EQUATOR, LEO_ALTITUDE_KM), BeamSpec(EQUATOR, 1000.0))),
    Claim("GEO differential delay, 3500 km beam at 57N", "ms", None, partial(
        differential_delay, propagate(OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS), 0.0),
        BeamSpec(GroundPosition(57.0, 0.0), 3500.0))),
)
