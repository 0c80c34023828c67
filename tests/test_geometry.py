import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim.constants import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    OMEGA_EARTH_RAD_S,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
)
from ntnsim.errors import DomainError
from ntnsim.geometry import (
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    bent_pipe_rtt,
    differential_delay,
    geometry_sample,
    ground_track,
    normalize_longitude,
    overhead_pass_orbit,
    propagate,
    satellite_state_over,
    slant_range,
    subsatellite_point,
    visibility_duration,
)

GEO = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
LEO600 = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=600.0, inclination_deg=90.0)


def law_of_cosines_slant(elevation_deg, altitude_km):
    # Independent oracle: solve d^2 + 2 d Re sin(e) - (2 Re h + h^2) = 0.
    re = EARTH_RADIUS_KM
    e = math.radians(elevation_deg)
    b = 2.0 * re * math.sin(e)
    c = -(2.0 * re * altitude_km + altitude_km**2)
    return (-b + math.sqrt(b * b - 4.0 * c)) / 2.0


@given(
    st.floats(min_value=0.0, max_value=90.0),
    st.floats(min_value=300.0, max_value=40000.0),
)
def test_slant_range_matches_quadratic_oracle(elev, alt):
    assert slant_range(elev, alt) == pytest.approx(law_of_cosines_slant(elev, alt), rel=1e-9)


@given(
    st.floats(min_value=0.0, max_value=90.0),
    st.floats(min_value=300.0, max_value=40000.0),
)
def test_slant_range_bounded_by_zenith_and_horizon(elev, alt):
    d = slant_range(elev, alt)
    assert alt - 1e-6 <= d <= slant_range(0.0, alt) + 1e-6


def test_slant_range_zenith_is_altitude():
    assert slant_range(90.0, 600.0) == pytest.approx(600.0, abs=1e-9)
    assert slant_range(90.0, 35786.0) == pytest.approx(35786.0, abs=1e-9)


@given(st.floats(min_value=-720.0, max_value=720.0, allow_nan=False))
def test_normalize_longitude_idempotent(lon):
    once = normalize_longitude(lon)
    assert -180.0 < once <= 180.0
    assert normalize_longitude(once) == once


def test_ground_position_validation():
    with pytest.raises(DomainError):
        GroundPosition(91.0, 0.0)
    assert GroundPosition(0.0, 190.0).longitude_deg == pytest.approx(-170.0)
    assert GroundPosition(0.0, 180.0).longitude_deg == pytest.approx(180.0)


def test_ground_position_altitude_range():
    assert GroundPosition(0.0, 0.0, -500.0).altitude_m == -500.0
    assert GroundPosition(0.0, 0.0, 100_000.0).altitude_m == 100_000.0
    for altitude in (-500.1, 100_000.1, -1e7):
        with pytest.raises(DomainError, match="outside \\[-500, 100000\\] m"):
            GroundPosition(0.0, 0.0, altitude)


def test_orbit_validation():
    with pytest.raises(DomainError):
        OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=300.0)
    with pytest.raises(DomainError):
        OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=2500.0)
    with pytest.raises(DomainError):
        OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, altitude_km=1000.0)


def test_leo_periods_against_kepler_oracle():
    # T = 2*pi*sqrt(a^3/mu)
    for alt in (500.0, 2000.0):
        orbit = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=alt)
        a = EARTH_RADIUS_KM + alt
        oracle = 2.0 * math.pi * math.sqrt(a**3 / MU_EARTH_KM3_S2)
        assert orbit.period_s() == pytest.approx(oracle, rel=1e-12)


def test_leo600_inertial_speed():
    # One circumference per period; the paper's value is a row of
    # ntnsim.claims.
    circumference = 2.0 * math.pi * LEO600.semi_major_axis_km
    assert LEO600.inertial_speed_km_s() == pytest.approx(circumference / LEO600.period_s(), rel=1e-12)


def test_geo_period_is_sidereal_day():
    assert GEO.period_s() == pytest.approx(SIDEREAL_DAY_S, rel=1e-12)


@given(st.floats(min_value=500.0, max_value=2000.0))
def test_leo_vis_viva_energy_invariant(alt):
    orbit = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=alt)
    a = orbit.semi_major_axis_km
    assert orbit.inertial_speed_km_s() ** 2 == pytest.approx(MU_EARTH_KM3_S2 / a, rel=1e-12)


def test_equatorial_geo_is_stationary_in_earth_fixed_frame():
    # The standard 35786 km altitude is itself rounded, so a real drift
    # of a few centimeters per hour remains; anything below 10 m per day
    # counts as stationary here.
    s0 = propagate(GEO, 0.0)
    for t in (3600.0, 43200.0, 86000.0):
        st_ = propagate(GEO, t)
        assert np.linalg.norm(st_.position_km - s0.position_km) < 1e-2
        assert np.linalg.norm(st_.velocity_km_s) < 1e-7


@given(st.floats(min_value=0.0, max_value=7000.0))
@settings(max_examples=30)
def test_leo_radius_preserved(t):
    state = propagate(LEO600, t)
    assert np.linalg.norm(state.position_km) == pytest.approx(
        EARTH_RADIUS_KM + 600.0, rel=1e-12
    )


def test_propagate_period_closure():
    period = LEO600.period_s()
    s0 = propagate(LEO600, 0.0)
    s1 = propagate(LEO600, period)
    # Earth-fixed frame rotates underneath, so compare in longitude-shifted
    # terms: the orbital radius and latitude must repeat.
    lat0, _ = subsatellite_point(s0)
    lat1, _ = subsatellite_point(s1)
    assert lat1 == pytest.approx(lat0, abs=1e-6)


def test_subsatellite_point_equatorial_geo():
    lat, lon = subsatellite_point(propagate(GEO, 12345.0))
    assert lat == pytest.approx(0.0, abs=1e-9)
    assert lon == pytest.approx(0.0, abs=1e-6)


def test_inclined_geo_ground_track_figure8():
    orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0)
    track = ground_track(orbit, SIDEREAL_DAY_S, 60.0)
    lats = [lat for _, lat, _ in track]
    lons = [lon for _, _, lon in track]
    assert max(lats) == pytest.approx(10.0, abs=0.1)
    assert min(lats) == pytest.approx(-10.0, abs=0.1)
    # Longitude amplitude of the analemma: i^2/4 with i in radians,
    # converted back to degrees.
    i_rad = math.radians(10.0)
    oracle_deg = math.degrees(i_rad * i_rad / 4.0)
    half_span = (max(lons) - min(lons)) / 2.0
    assert half_span == pytest.approx(oracle_deg, rel=0.05)


def test_geometry_sample_overhead():
    obs = GroundPosition(0.0, 0.0)
    sat = satellite_state_over(obs, 600.0)
    sample = geometry_sample(sat, obs, 2e9)
    assert sample.elevation_deg == pytest.approx(90.0, abs=1e-6)
    assert sample.slant_range_km == pytest.approx(600.0, rel=1e-9)
    assert sample.one_way_delay_ms == pytest.approx(600.0 / SPEED_OF_LIGHT_KM_S * 1e3)
    # Zenith pass: range rate crosses zero directly overhead.
    assert abs(sample.doppler_hz) < 1.0


@pytest.mark.parametrize("azimuth_deg", [0.0, 45.0, 90.0])
@pytest.mark.parametrize("latitude_deg", [90.0, -90.0])
def test_satellite_over_a_pole_keeps_a_circular_horizontal_velocity(latitude_deg, azimuth_deg):
    sat = satellite_state_over(GroundPosition(latitude_deg, 10.0), 600.0, azimuth_deg=azimuth_deg)
    r = float(np.linalg.norm(sat.position_km))
    v_in = sat.velocity_km_s + np.cross([0.0, 0.0, OMEGA_EARTH_RAD_S], sat.position_km)
    assert np.linalg.norm(v_in) == pytest.approx(math.sqrt(MU_EARTH_KM3_S2 / r), rel=1e-12)
    for v in (v_in, sat.velocity_km_s):
        assert abs(np.dot(v, sat.position_km)) <= 1e-12 * r * np.linalg.norm(v)


def test_doppler_sign_flips_across_zenith():
    obs = GroundPosition(0.0, 0.0)
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=3000.0)
    before = geometry_sample(propagate(orbit, 2900.0), obs, 2e9)
    after = geometry_sample(propagate(orbit, 3100.0), obs, 2e9)
    assert before.doppler_hz > 0.0 > after.doppler_hz
    assert before.doppler_hz == pytest.approx(-after.doppler_hz, rel=0.01)


def test_delay_drift_consistent_with_range_rate():
    obs = GroundPosition(0.0, 0.0)
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=3000.0)
    sample = geometry_sample(propagate(orbit, 2950.0), obs, 2e9)
    assert sample.delay_drift_us_s == pytest.approx(
        sample.range_rate_km_s / SPEED_OF_LIGHT_KM_S * 1e6, rel=1e-12
    )
    # Numerical oracle: finite difference of the one-way delay.
    d1 = geometry_sample(propagate(orbit, 2950.0 - 0.5), obs, 2e9).one_way_delay_ms
    d2 = geometry_sample(propagate(orbit, 2950.0 + 0.5), obs, 2e9).one_way_delay_ms
    assert sample.delay_drift_us_s == pytest.approx((d2 - d1) * 1000.0, rel=1e-3)


def test_bent_pipe_rtt_sums_both_hops():
    obs = GroundPosition(0.0, 0.0)
    gw = GroundPosition(5.0, 5.0)
    sat = satellite_state_over(obs, 600.0)
    service = geometry_sample(sat, obs, 2e9)
    feeder = geometry_sample(sat, gw, 2e9)
    assert bent_pipe_rtt(service, feeder) == pytest.approx(
        2.0 * (service.one_way_delay_ms + feeder.one_way_delay_ms)
    )


def test_visibility_duration_zero_when_never_visible():
    # Polar orbit never rises 10 degrees above the horizon for an
    # observer on the opposite side of the planet at the wrong phase is
    # hard to construct; use an equatorial LEO and a polar observer.
    orbit = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=600.0, inclination_deg=0.0)
    obs = GroundPosition(80.0, 0.0)
    assert visibility_duration(orbit, obs, 10.0, step_s=10.0) == 0.0


def test_visibility_duration_threshold_range():
    obs = GroundPosition(0.0, 0.0)
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=3000.0)
    horizon = visibility_duration(orbit, obs, 0.0, step_s=10.0)
    assert horizon > visibility_duration(orbit, obs, 10.0, step_s=10.0) > 0.0
    for bad in (-0.5, 90.5):
        with pytest.raises(DomainError):
            visibility_duration(orbit, obs, bad, step_s=10.0)


def test_differential_delay_requires_visible_footprint():
    # A 3500 km beam whose far edge dips below the horizon must be
    # rejected rather than silently clipped.
    center = GroundPosition(71.0, 0.0)
    sat = propagate(GEO, 0.0)
    with pytest.raises(DomainError):
        differential_delay(sat, _beam(center, 3500.0))


def _beam(center, diameter_km):
    from ntnsim.geometry import BeamSpec

    return BeamSpec(center=center, diameter_km=diameter_km)


def test_differential_delay_small_beam_oracle():
    # For a small beam under a zenith satellite the delay spread is
    # approximately (sqrt(h^2 + r^2) - h) / c.
    obs = GroundPosition(0.0, 0.0)
    sat = satellite_state_over(obs, 600.0)
    dd = differential_delay(sat, _beam(obs, 50.0))
    h = 600.0
    r = 25.0
    oracle_ms = (math.hypot(h, r) - h) / SPEED_OF_LIGHT_KM_S * 1000.0
    # The flat-earth oracle ignores the geodesic curvature of the
    # footprint, which adds a few percent at this beam size.
    assert dd == pytest.approx(oracle_ms, rel=0.10)
