"""The array geometry kernel against a scalar oracle.

``propagate_reference`` + ``geometry_sample_reference`` below are the
scalar propagation and sample, one matrix product and one ``atan2`` per
(satellite, time, ground point).  The kernel (and so the public
``propagate``/``geometry_sample``, which are 0-d calls of it) must match
them sample by sample, and every sweep must return what a plain loop
over them returns.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ntnsim import geometry
from ntnsim.config import load_config
from ntnsim.constants import EARTH_RADIUS_KM, OMEGA_EARTH_RAD_S, SPEED_OF_LIGHT_KM_S
from ntnsim.errors import DomainError, NotReachableError
from ntnsim.geometry import (
    BeamSpec,
    GeometrySample,
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    SatelliteState,
    ServiceInterval,
    beam_doppler_profile,
    differential_delay,
    doppler_hz,
    earth_fixed_beam_schedule,
    geometry_sample,
    geometry_samples,
    ground_track,
    highest_satellite,
    one_way_delay_ms,
    overhead_pass_orbit,
    propagate,
    propagate_many,
    satellite_state_over,
    subsatellite_point,
    visibility_duration,
)
from ntnsim.geometry import _tangent_basis
from ntnsim.protocol import DeviceContext, Ephemeris, doppler_precompensation
from ntnsim.protocol import estimate_service_delay

RTOL = 1e-9


def close(got, want, scale):
    """Within RTOL relative, with an absolute floor of RTOL x the
    quantity's natural scale (for values that cross zero)."""
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL * scale)


# -- the scalar oracle --------------------------------------------------------


def _rot_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def propagate_reference(orbit: OrbitSpec, t_s: float) -> SatelliteState:
    """Earth-fixed state of a circular orbit at time t."""
    if t_s < orbit.epoch_s:
        raise DomainError("t must not precede the orbit epoch")
    a = orbit.semi_major_axis_km
    n = orbit.mean_motion_rad_s()
    dt = t_s - orbit.epoch_s
    u = math.radians(orbit.phase_deg) + n * dt

    pos_plane = np.array([a * math.cos(u), a * math.sin(u), 0.0])
    vel_plane = np.array([-a * n * math.sin(u), a * n * math.cos(u), 0.0])
    to_inertial = _rot_z(math.radians(orbit.raan_deg)) @ _rot_x(
        math.radians(orbit.inclination_deg)
    )
    r_in = to_inertial @ pos_plane
    v_in = to_inertial @ vel_plane

    rot = _rot_z(-OMEGA_EARTH_RAD_S * dt)
    r_ef = rot @ r_in
    omega_vec = np.array([0.0, 0.0, OMEGA_EARTH_RAD_S])
    v_ef = rot @ v_in - np.cross(omega_vec, r_ef)
    return SatelliteState(position_km=r_ef, velocity_km_s=v_ef)


def geometry_sample_reference(
    sat: SatelliteState, ground: GroundPosition, fc_hz: float
) -> GeometrySample:
    """Elevation, slant range, delay, range rate, Doppler, delay drift.

    Ground stations are fixed in the earth-fixed frame, so the satellite's
    earth-fixed velocity is the full relative velocity.
    """
    if fc_hz <= 0:
        raise DomainError("carrier frequency must be positive")
    r_gnd = ground.ecef_km()
    los = sat.position_km - r_gnd
    d = float(np.linalg.norm(los))
    if d < 1e-9:
        raise DomainError("ground position coincides with the satellite")
    up = ground.unit_vector()
    # atan2 of the vertical over the horizontal part: asin(vertical / d)
    # loses half the digits near the zenith, where its slope is infinite.
    vertical = float(np.dot(los, up))
    horizontal = float(np.linalg.norm(los - vertical * up))
    elevation = math.degrees(math.atan2(vertical, horizontal))
    range_rate = float(np.dot(los, sat.velocity_km_s)) / d  # km/s
    return GeometrySample(
        elevation_deg=elevation,
        slant_range_km=d,
        one_way_delay_ms=one_way_delay_ms(d),
        range_rate_km_s=range_rate,
        doppler_hz=doppler_hz(range_rate, fc_hz),
        delay_drift_us_s=range_rate / SPEED_OF_LIGHT_KM_S * 1e6,
    )


# -- scalar-loop references -------------------------------------------------


def visibility_reference(orbit, ground, min_elevation_deg, step_s=1.0):
    n_steps = int(math.ceil(orbit.period_s() / step_s))
    best = run = 0
    for i in range(n_steps + 1):
        sample = geometry_sample_reference(
            propagate_reference(orbit, orbit.epoch_s + i * step_s), ground, 1e9
        )
        if sample.elevation_deg >= min_elevation_deg:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best * step_s


def schedule_reference(orbits, cell, min_elevation_deg, horizon_s=None, step_s=1.0):
    static = all(
        o.kind is OrbitKind.GEOSYNCHRONOUS and o.inclination_deg == 0.0 for o in orbits
    )
    epoch = max(o.epoch_s for o in orbits)

    def serving_at(t):
        serving, best = None, min_elevation_deg
        for idx, orbit in enumerate(orbits):
            elevation = geometry_sample_reference(
                propagate_reference(orbit, t), cell, 1e9
            ).elevation_deg
            if elevation >= best:
                serving, best = idx, elevation
        return serving

    if static:
        serving = serving_at(epoch)
        return [] if serving is None else [ServiceInterval(epoch, math.inf, serving)]
    if horizon_s is None:
        horizon_s = max(o.period_s() for o in orbits)
    intervals, current = [], None
    for i in range(int(math.ceil(horizon_s / step_s)) + 1):
        t = epoch + i * step_s
        serving = serving_at(t)
        if serving is None:
            if current is not None:
                intervals.append(ServiceInterval(current[0], t, current[1]))
                current = None
        elif current is None:
            current = (t, serving)
        elif current[1] != serving:
            intervals.append(ServiceInterval(current[0], t, current[1]))
            current = (t, serving)
    if current is not None:
        intervals.append(ServiceInterval(current[0], t, current[1]))
    return intervals


def _footprint_points(sat, beam, grid_n):
    radius = beam.diameter_km / 2.0
    u0 = beam.center.unit_vector()
    e1, e2 = _tangent_basis(beam.center, sat.velocity_km_s)
    for x in np.linspace(-radius, radius, grid_n):
        for y in np.linspace(-radius, radius, grid_n):
            if x * x + y * y > radius * radius:
                continue
            s = math.hypot(x, y)
            direction = (e1 * x + e2 * y) / s if s > 0 else e1
            u = u0 * math.cos(s / EARTH_RADIUS_KM) + direction * math.sin(s / EARTH_RADIUS_KM)
            yield GroundPosition(
                math.degrees(math.asin(max(-1.0, min(1.0, u[2])))),
                math.degrees(math.atan2(u[1], u[0])),
            )


def differential_delay_reference(sat, beam, grid_n=64):
    delays = []
    for ground in _footprint_points(sat, beam, grid_n):
        sample = geometry_sample_reference(sat, ground, 1e9)
        if sample.elevation_deg < 0:
            raise DomainError("beam footprint extends below the horizon")
        delays.append(sample.one_way_delay_ms)
    return max(delays) - min(delays)


def walker(planes=6, per_plane=4, inclination_deg=53.0):
    return [
        OrbitSpec(
            kind=OrbitKind.LEO_CIRCULAR,
            altitude_km=600.0,
            inclination_deg=inclination_deg,
            raan_deg=360.0 * p / planes,
            phase_deg=(360.0 * s / per_plane + 15.0 * p) % 360.0,
        )
        for p in range(planes)
        for s in range(per_plane)
    ]


@pytest.fixture
def leo_config(config_dir):
    return load_config(config_dir / "leo600_sband.json")


# -- the kernel against the scalar functions --------------------------------

orbits = st.one_of(
    st.builds(
        OrbitSpec,
        kind=st.just(OrbitKind.LEO_CIRCULAR),
        altitude_km=st.floats(500.0, 2000.0),
        inclination_deg=st.floats(0.0, 179.9),
        raan_deg=st.floats(-180.0, 360.0),
        phase_deg=st.floats(0.0, 360.0),
        epoch_s=st.floats(0.0, 1e5),
    ),
    st.builds(
        OrbitSpec,
        kind=st.just(OrbitKind.GEOSYNCHRONOUS),
        inclination_deg=st.floats(0.0, 20.0),
        raan_deg=st.floats(-180.0, 180.0),
        phase_deg=st.floats(0.0, 360.0),
        epoch_s=st.floats(0.0, 1e5),
    ),
)
grounds = st.builds(
    GroundPosition,
    latitude_deg=st.floats(-90.0, 90.0),
    longitude_deg=st.floats(-180.0, 180.0),
    altitude_m=st.floats(0.0, 5000.0),
)


@given(
    orbits,
    st.lists(st.floats(0.0, 2e5), min_size=1, max_size=8),
    st.lists(grounds, min_size=1, max_size=4),
)
# A GEO satellite straight overhead, where asin(vertical / range) would put
# the two paths a microdegree apart.
@example(
    OrbitSpec(OrbitKind.GEOSYNCHRONOUS, raan_deg=106.0, phase_deg=5.0),
    [0.125],
    [GroundPosition(0.0, 111.0)],
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_oracle(orbit, offsets, ground_points):
    t = orbit.epoch_s + np.array(offsets)
    pos, vel = propagate_many(orbit, t)
    assert pos.shape == vel.shape == (len(offsets), 3)
    a = orbit.semi_major_axis_km
    speed = orbit.inertial_speed_km_s() + 0.5  # plus the earth-rotation term
    for i, ti in enumerate(t):
        state = propagate_reference(orbit, float(ti))
        for k in range(3):
            assert close(pos[i, k], state.position_km[k], a)
            assert close(vel[i, k], state.velocity_km_s[k], speed)
    for ground in ground_points:
        elevation, distance, range_rate = geometry_samples(pos, vel, ground)
        for i, ti in enumerate(t):
            want = geometry_sample_reference(propagate_reference(orbit, float(ti)), ground, 2e9)
            assert close(elevation[i], want.elevation_deg, 90.0)
            assert close(distance[i], want.slant_range_km, a)
            assert close(range_rate[i], want.range_rate_km_s, speed)
            assert close(one_way_delay_ms(distance[i]), want.one_way_delay_ms, one_way_delay_ms(a))
            assert close(doppler_hz(range_rate[i], 2e9), want.doppler_hz, -doppler_hz(speed, 2e9))


def test_kernel_broadcasts_time_against_ground_points():
    orbit = walker()[5]
    t = np.arange(0.0, 600.0, 60.0)
    points = [GroundPosition(lat, lon) for lat, lon in ((0.0, 0.0), (30.0, 45.0), (-60.0, 170.0))]
    units = np.array([g.unit_vector() for g in points])
    pos, vel = propagate_many(orbit, t)
    elevation, distance, range_rate = geometry_samples(pos[:, None], vel[:, None], units)
    assert elevation.shape == distance.shape == range_rate.shape == (len(t), len(points))
    for j, ground in enumerate(points):
        column = geometry_samples(pos, vel, ground)
        for got, want in zip((elevation, distance, range_rate), column):
            np.testing.assert_allclose(got[:, j], want, rtol=RTOL, atol=RTOL)


def test_propagate_many_keeps_epoch_check_and_scalar_times():
    orbit = OrbitSpec(kind=OrbitKind.LEO_CIRCULAR, altitude_km=600.0, epoch_s=100.0)
    with pytest.raises(DomainError):
        propagate_many(orbit, np.array([100.0, 99.0]))
    pos, vel = propagate_many(orbit, 150.0)
    assert pos.shape == vel.shape == (3,)
    np.testing.assert_allclose(pos, propagate_reference(orbit, 150.0).position_km, rtol=RTOL)


def assert_frame_is_the_matrix_product(raan_deg, inclination_deg, u, dt):
    """``geometry._earth_fixed`` of the in-plane positions and velocities
    at arguments of latitude ``u``, through the Earth's turn over ``dt``,
    has the bits of the same frame written as the product of the node's
    and the inclination's rotation matrices."""
    orbit = OrbitSpec(OrbitKind.LEO_CIRCULAR, 600.0, inclination_deg, raan_deg)
    a, n = orbit.semi_major_axis_km, orbit.mean_motion_rad_s()
    u, dt = np.asarray(u, dtype=float), np.asarray(dt, dtype=float)
    turn = geometry._earth_turn(dt)
    c, s = turn
    m = _rot_z(math.radians(raan_deg)) @ _rot_x(math.radians(inclination_deg))
    e = geometry._elements([orbit])[0]
    for p0, p1 in ((a * np.cos(u), a * np.sin(u)), (-a * n * np.sin(u), a * n * np.cos(u))):
        x_in = m[0, 0] * p0 + m[0, 1] * p1
        y_in = m[1, 0] * p0 + m[1, 1] * p1
        want = np.stack([c * x_in - s * y_in, s * x_in + c * y_in, m[2, 0] * p0 + m[2, 1] * p1], axis=-1)
        assert_same_bits([geometry._earth_fixed(e, p0, p1, turn)], [want])


@pytest.mark.parametrize("raan_deg", [-0.0, 0.0, 90.0, 180.0, 270.0])
@pytest.mark.parametrize("inclination_deg", [-0.0, 0.0, 90.0, 179.9])
def test_the_frame_is_the_rotation_matrices_on_the_axes(raan_deg, inclination_deg):
    """Nodes and inclinations where the matrices hold exact zeros and
    ones, at arguments of latitude where the in-plane components do, and
    with the Earth's turn at 0 where its sine does: a zero's sign too."""
    u = np.array([0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2, 1.0, 2e4, 0.0])
    dt = np.array([0.0, 0.0, 0.0, 0.0, 60.0, 1e3, 5e8, 86164.0905])
    assert_frame_is_the_matrix_product(raan_deg, inclination_deg, u, dt)


@given(
    st.floats(-180.0, 360.0),
    st.floats(0.0, 179.9),
    st.lists(st.tuples(st.floats(-1e5, 1e5), st.floats(0.0, 1e9)), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_the_frame_is_the_rotation_matrices(raan_deg, inclination_deg, samples):
    u, dt = zip(*samples)
    assert_frame_is_the_matrix_product(raan_deg, inclination_deg, u, dt)


def test_geometry_samples_rejects_coincident_ground():
    ground = GroundPosition(0.0, 0.0)
    sat = satellite_state_over(ground, 600.0)
    # Ground vectors are scaled by the Earth's radius, so this one puts the
    # ground point at the satellite's own position.
    on_satellite = (sat.position_km / EARTH_RADIUS_KM)[None]
    with pytest.raises(DomainError, match="coincides"):
        geometry_samples(sat.position_km, sat.velocity_km_s, on_satellite)
    elevation, _, _ = geometry_samples(sat.position_km, sat.velocity_km_s, ground.unit_vector()[None])
    assert elevation.shape == (1,) and elevation[0] == pytest.approx(90.0)


def test_overhead_sample_does_not_leave_asin_domain():
    # Exactly overhead at this longitude, where dot(los, up) / d rounds to
    # just above 1, so an asin of that ratio would leave its domain.
    ground = GroundPosition(0.0, -179.0)
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 53.0, ground, overhead_at_s=3000.0)
    want = geometry_sample_reference(propagate_reference(orbit, 3000.0), ground, 2e9)
    assert want.elevation_deg == pytest.approx(90.0)
    elevation, _, _ = geometry_samples(*propagate_many(orbit, 3000.0), ground)
    assert elevation == pytest.approx(90.0)
    duration = visibility_duration(orbit, ground, 10.0)
    assert duration == visibility_reference(orbit, ground, 10.0)
    assert 400.0 < duration < 600.0


# -- every ported sweep against its scalar loop -----------------------------


def test_visibility_matches_scalar_loop(leo_config):
    observer = leo_config.observer.to_ground()
    bundled = leo_config.constellation[0].to_orbit_spec()
    min_el = leo_config.min_elevation_deg
    cases = [(bundled, observer, 1.0, min_el)]
    for lon in (0.0, 33.5, -120.0):
        ground = GroundPosition(0.0, lon)
        orbit = overhead_pass_orbit(bundled.kind, 600.0, 53.0, ground, overhead_at_s=3000.0)
        cases += [(orbit, ground, 4.0, min_el), (orbit, ground, 4.0, 45.0)]
    cases += [(orbit, GroundPosition(20.0, 10.0), 10.0, min_el) for orbit in walker()[::5]]
    for orbit, ground, step, threshold in cases:
        got = visibility_duration(orbit, ground, threshold, step)
        assert got == visibility_reference(orbit, ground, threshold, step)


def test_beam_schedule_matches_scalar_loop(leo_config):
    cell = leo_config.cells[0].center()
    bundled = [o.to_orbit_spec() for o in leo_config.constellation]
    got = earth_fixed_beam_schedule(bundled, cell, 10.0, horizon_s=6 * 3600.0, step_s=10.0)
    assert got == schedule_reference(bundled, cell, 10.0, horizon_s=6 * 3600.0, step_s=10.0)
    assert got  # the bundled orbit passes over its own cells

    constellation = walker()
    for cell in (GroundPosition(0.0, 0.0), GroundPosition(40.0, -75.0)):
        got = earth_fixed_beam_schedule(constellation, cell, 10.0, step_s=20.0)
        assert got == schedule_reference(constellation, cell, 10.0, step_s=20.0)
        assert len({iv.satellite_index for iv in got}) > 1

    # Service that lasts to the end closes at the final step.
    inclined = [OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=5.0)]
    equator = GroundPosition(0.0, 0.0)
    got = earth_fixed_beam_schedule(inclined, equator, 10.0, horizon_s=3590.0, step_s=60.0)
    assert got == schedule_reference(inclined, equator, 10.0, horizon_s=3590.0, step_s=60.0)
    assert got == [ServiceInterval(0.0, 3600.0, 0)]


def test_beam_schedule_ties_go_to_the_later_satellite():
    # Identical orbits tie at every step: the later index serves.
    leo = walker()[0]
    got = earth_fixed_beam_schedule([leo, leo], GroundPosition(0.0, 0.0), 10.0, step_s=20.0)
    assert got and {iv.satellite_index for iv in got} == {1}
    geo = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
    cell = GroundPosition(30.0, 0.0)
    assert earth_fixed_beam_schedule([geo, geo], cell, 10.0) == [ServiceInterval(0.0, math.inf, 1)]
    # The threshold is inclusive: a satellite exactly at it serves.
    elevation = geometry_sample(propagate(geo, 0.0), cell, 1e9).elevation_deg
    assert earth_fixed_beam_schedule([geo], cell, elevation) == [ServiceInterval(0.0, math.inf, 0)]


def highest_satellite_loop(orbits, t_s, ground, min_elevation_deg=-math.inf):
    """The serving rule as one full kernel sample per orbit: every orbit's
    elevation, range and range rate at max(t, epoch), the running highest
    kept, ties to the later index.  ``highest_satellite`` ranks by
    elevation first, only where a bound cannot rule an orbit out, and
    measures only the winners; it must return these bits."""
    t = np.asarray(t_s, dtype=float)
    index = np.full(t.shape, -1)
    elevation = np.full(t.shape, float(min_elevation_deg))
    distance = np.full(t.shape, np.nan)
    range_rate = np.full(t.shape, np.nan)
    for i, orbit in enumerate(orbits):
        el, d, rr = geometry_samples(*propagate_many(orbit, np.maximum(t, orbit.epoch_s)), ground)
        take = el >= elevation
        index[take] = i
        elevation[take] = el[take]
        distance[take] = d[take]
        range_rate[take] = rr[take]
    return index, np.where(index >= 0, elevation, np.nan), distance, range_rate


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


# Epochs of orbit k: one for all, two that alternate, or one each.
EPOCHS = {
    "equal": lambda k: 500.0,
    "alternate": lambda k: 500.0 * (k % 2),
    "distinct": lambda k: 125.0 * k,
}


def with_epochs(orbits, pattern):
    return [dataclasses.replace(o, epoch_s=EPOCHS[pattern](k)) for k, o in enumerate(orbits)]


@pytest.mark.parametrize("pattern", sorted(EPOCHS))
@pytest.mark.parametrize("threshold", [-math.inf, 0.0, 10.0, "exact"])
def test_highest_satellite_is_the_full_sample_loop_bit_for_bit(pattern, threshold):
    """The Walker constellation with its two most serving orbits repeated
    at the end (each repeat ties with its original at every time), on a
    1 s grid over a period that starts before some epochs, and at scalar
    times.  "exact" is the median served elevation above 10 degrees, a
    sample's own value, which must serve: the threshold is inclusive."""
    constellation = with_epochs(walker(), pattern)
    ground = GroundPosition(40.0, -75.0)
    t = np.arange(0.0, constellation[0].period_s(), 1.0)
    index, elevation, _, _ = highest_satellite_loop(constellation, t, ground, 10.0)
    constellation += [constellation[k] for k in np.bincount(index[index >= 0]).argsort()[-2:]]
    exact = threshold == "exact"
    if exact:
        served = np.sort(elevation[index >= 0])
        threshold = float(served[len(served) // 2])
    want = highest_satellite_loop(constellation, t, ground, threshold)
    assert_same_bits(highest_satellite(constellation, t, ground, threshold), want)
    assert {24, 25} <= set(want[0].tolist())
    if exact:
        assert np.count_nonzero(want[1] == threshold) == 1
    for ti in t[::250]:
        got = highest_satellite(constellation, float(ti), ground, threshold)
        assert_same_bits(got, highest_satellite_loop(constellation, float(ti), ground, threshold))


@given(
    st.lists(st.integers(0, 23), min_size=1, max_size=6),
    st.sampled_from(sorted(EPOCHS)),
    st.one_of(st.floats(0.0, 7000.0), st.lists(st.floats(0.0, 7000.0), min_size=1, max_size=30)),
    grounds,
    st.sampled_from([-math.inf, 0.0, 10.0, "exact"]),
)
# Orbit 2 twice: the repeat ties with it, before and after its epoch.
@example([2, 2, 7], "distinct", [0.0, 260.0, 3900.0], GroundPosition(0.0, 0.0), -math.inf)
@settings(max_examples=80, deadline=None)
def test_highest_satellite_on_walker_subsets(subset, pattern, times, ground, threshold):
    """Any Walker subset, at one time or at several, against the loop; an
    "exact" threshold is the first orbit's elevation at the first time."""
    orbits = with_epochs([walker()[k] for k in subset], pattern)
    if threshold == "exact":
        first = orbits[0]
        t0 = max(np.ravel(times)[0], first.epoch_s)
        threshold = float(geometry_samples(*propagate_many(first, t0), ground)[0])
    want = highest_satellite_loop(orbits, times, ground, threshold)
    assert_same_bits(highest_satellite(orbits, times, ground, threshold), want)


@pytest.mark.parametrize("times", [123.0, np.arange(600.0), np.arange(600.0).reshape(20, 30)])
@pytest.mark.parametrize("threshold", [-math.inf, 10.0])
def test_no_orbit_serves_an_empty_constellation(times, threshold):
    assert geometry._elements([]).shape == (0, 6)
    ground = GroundPosition(40.0, -75.0)
    index, elevation, distance, range_rate = highest_satellite([], times, ground, threshold)
    for got in (index, elevation, distance, range_rate):
        assert got.shape == np.shape(times)
    assert (index == -1).all()
    assert np.isnan(elevation).all() and np.isnan(distance).all() and np.isnan(range_rate).all()


def longest_run(flags):
    best = run = 0
    for flag in flags:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def test_visibility_ranks_the_kernel_elevations(monkeypatch):
    """``visibility_duration`` is the longest run of the full grid's
    ``geometry_samples`` elevations at or above the threshold, though it
    evaluates the kernel only where ``_candidates`` cannot rule the orbit
    out: under a quarter of the grid for the LEO pass at 10 degrees.
    "exact" is the elevation where the orbit first reaches 10 degrees, a
    sample's own value, which counts: the threshold is inclusive."""
    ground = GroundPosition(0.0, 33.5)
    pass_orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 53.0, ground, overhead_at_s=3000.0)
    cases = []
    # Walker orbit 16 peaks at 11 degrees here: a pass that barely clears 10.
    for orbit, step in ((pass_orbit, 1.0), (dataclasses.replace(walker()[16], epoch_s=123.25), 0.7)):
        t = geometry._sweep_times(orbit.epoch_s, orbit.period_s(), step)
        elevation, _, _ = geometry_samples(*propagate_many(orbit, t), ground)
        exact = float(elevation[np.argmax(elevation >= 10.0)])
        assert exact > 10.0 and np.count_nonzero(elevation == exact) == 1
        cases.append((orbit, step, t.size, elevation, exact))
    seen = []
    sight = geometry._sight
    monkeypatch.setattr(geometry, "_sight", lambda *args: seen.append(sight(*args)) or seen[-1])
    for orbit, step, size, elevation, exact in cases:
        for threshold in (0.0, 10.0, exact):
            seen.clear()
            got = visibility_duration(orbit, ground, threshold, step)
            assert got == longest_run(elevation >= threshold) * step > 0.0
            if orbit is pass_orbit and threshold == 10.0:
                assert sum(el.size for _, el in seen) < 0.25 * size


def mixed_constellation():
    """The Walker LEOs, a GEO over the test's ground longitude and an
    inclined GEO 15 degrees east of it."""
    return walker() + [
        OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, raan_deg=-75.0),
        OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=5.0, raan_deg=-60.0, phase_deg=90.0),
    ]


def grid():
    return np.arange(0.0, walker()[0].period_s(), 1.0)


def non_finite_grid():
    t = grid()
    t[[0, 17, 2500, 4000, -1]] = [np.nan, np.inf, -np.inf, np.nan, np.inf]
    return t


# (constellation, times, ground altitude in m) of each case, all seen from
# 40N 75W.
ORACLE_CASES = {
    "2-d": (walker, lambda: grid()[:5700].reshape(57, 100), 0.0),
    "shuffled": (walker, lambda: np.random.default_rng(5).permutation(grid()), 0.0),
    "non-finite": (walker, non_finite_grid, 0.0),
    "leo+geo": (mixed_constellation, grid, 0.0),
    "ground -500 m": (walker, grid, -500.0),
    "ground 100 km": (walker, grid, 100_000.0),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("threshold", [0.0, 45.0, 90.0, 95.0, math.inf])
def test_highest_satellite_is_the_loop_on_any_grid(case, threshold):
    """The bound (``_candidates``) rules pairs out on finite times below
    90 degrees, whatever their order or shape; at non-finite times and
    thresholds it cannot help every pair is a candidate; both return the
    loop's bits."""
    make_orbits, make_times, altitude_m = ORACLE_CASES[case]
    orbits, t = make_orbits(), make_times()
    ground = GroundPosition(40.0, -75.0, altitude_m)
    candidates = geometry._candidates(geometry._elements(orbits), t.ravel(), ground, threshold)
    bounded = any(at.size < t.size for at in candidates)
    assert bounded == (threshold < 90.0 and case != "non-finite")
    with np.errstate(invalid="ignore"):  # cos and sin of an infinite time
        want = highest_satellite_loop(orbits, t, ground, threshold)
        assert_same_bits(highest_satellite(orbits, t, ground, threshold), want)
    served = set(want[0][want[0] >= 0].tolist())
    assert bool(served) == (threshold < 90.0)
    if case == "leo+geo":
        assert (24 in served) == (threshold == 0.0)


def test_the_bound_allows_for_rounding_at_large_times():
    """18.5 million years past the epoch the phase n * dt rounds to about
    1e-4 rad, so the anchors and the kernel see the orbit that far apart.
    Here, with the slack fixed at 1e-6 rad, the bound ruled out a sample
    exactly at the threshold (a near-retrograde equatorial orbit closes in
    on the point at almost the full rate n + omega); the slack that grows
    with |t| keeps it."""
    orbit = OrbitSpec(
        kind=OrbitKind.LEO_CIRCULAR,
        altitude_km=600.0,
        inclination_deg=179.9,
        raan_deg=-24.25291531027662,
        phase_deg=240.9470274868273,
    )
    ground = GroundPosition(0.0, -27.797517622753986)
    t = 583940770472488.5 + np.arange(0.0, 6000.0, 0.125)
    threshold = 9.665491618038951  # the elevation of t[11615]
    assert geometry._candidates(geometry._elements([orbit]), t, ground, threshold)[0].size < t.size
    want = highest_satellite_loop([orbit], t, ground, threshold)
    assert want[1][11615] == threshold
    assert_same_bits(highest_satellite([orbit], t, ground, threshold), want)


@given(
    st.lists(orbits, max_size=3),
    st.floats(500.0, 2000.0),
    st.floats(0.0, 179.9),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.2e5),
    st.integers(8, 300),
    st.floats(0.1, 4.0),
    st.booleans(),
    st.builds(
        GroundPosition,
        latitude_deg=st.one_of(st.floats(-20.0, 20.0), st.floats(-90.0, 90.0)),
        longitude_deg=st.floats(-180.0, 180.0),
        altitude_m=st.floats(-500.0, 100_000.0),
    ),
    st.floats(-80.0, 70.0),
)
@settings(max_examples=150, deadline=None)
def test_the_bound_rules_out_only_pairs_below_the_threshold(
    constellation, altitude_km, inclination_deg, when, start, count, step, shuffle, ground, threshold
):
    """Every (orbit, time) pair ``_candidates`` leaves out has a dense
    kernel elevation below the threshold.  Besides any orbits, one LEO
    passes over the equator at the ground point's longitude at a drawn
    time of the grid, so that near an equatorial point most examples hold
    a rise or a set."""
    t = start + np.arange(count) * step
    overhead = GroundPosition(0.0, ground.longitude_deg)
    at_s = start + when * (count - 1) * step
    constellation = constellation + [
        overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, altitude_km, inclination_deg, overhead, at_s)
    ]
    if shuffle:
        t = np.random.default_rng(count).permutation(t)
    candidates = geometry._candidates(geometry._elements(constellation), t, ground, threshold)
    for orbit, at in zip(constellation, candidates):
        elevation, _, _ = geometry_samples(*propagate_many(orbit, np.maximum(t, orbit.epoch_s)), ground)
        ruled_out = np.ones(t.size, bool)
        ruled_out[at] = False
        assert (elevation[ruled_out] < threshold).all()


def highest_reference(orbits, t_s, ground, fc_hz):
    """The serving rule on the scalar oracle: each orbit sampled at
    max(t, epoch), the highest kept, the later one on a tie."""
    best = None
    for orbit in orbits:
        state = propagate_reference(orbit, max(t_s, orbit.epoch_s))
        sample = geometry_sample_reference(state, ground, fc_hz)
        if best is None or sample.elevation_deg >= best.elevation_deg:
            best = sample
    return best


@given(
    st.floats(0.0, 2e4),
    st.floats(0.0, 60.0),
    st.lists(st.one_of(st.none(), st.floats(0.0, 60.0)), min_size=24, max_size=24),
    grounds,
)
@settings(max_examples=40, deadline=None)
def test_ephemeris_estimate_serves_the_highest_orbit(t, staleness, lags, fix):
    """A 24-satellite ephemeris of age ``staleness``: an orbit with a lag
    has its epoch that long after t - staleness, so it is seen at its
    epoch; the others (epoch 0) at t - staleness, or at 0 before that."""
    orbits = tuple(
        orbit if lag is None else dataclasses.replace(orbit, epoch_s=t - staleness + lag)
        for orbit, lag in zip(walker(), lags)
    )
    device, eph = DeviceContext(gnss_position=fix), Ephemeris(orbits, staleness)
    best = highest_reference(orbits, t - staleness, fix, 2e9)
    if best.elevation_deg >= 0.0:
        delay = estimate_service_delay(device, eph, t)
        assert close(delay, best.one_way_delay_ms, one_way_delay_ms(EARTH_RADIUS_KM))
        offset = doppler_precompensation(device, eph, 2e9, t)
        assert close(offset, -best.doppler_hz, -doppler_hz(8.0, 2e9))
    else:
        with pytest.raises(NotReachableError):
            estimate_service_delay(device, eph, t)
        with pytest.raises(NotReachableError):
            doppler_precompensation(device, eph, 2e9, t)


def test_ground_track_matches_scalar_loop():
    orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0, epoch_s=50.0)
    for duration, step in ((86164.0905, 60.0), (1.0, 0.1), (600.0, 7.0)):
        want, t = [], orbit.epoch_s
        while t <= orbit.epoch_s + duration + 1e-9:
            want.append((t, *subsatellite_point(propagate_reference(orbit, t))))
            t += step
        got = ground_track(orbit, duration, step)
        assert len(got) == len(want)
        for (tg, lat_g, lon_g), (tw, lat_w, lon_w) in zip(got, want):
            assert close(tg, tw, duration)
            assert close(lat_g, lat_w, 90.0)
            assert close(lon_g, lon_w, 180.0)


def test_differential_delay_matches_scalar_loop(leo_config):
    leo_beam = leo_config.beams[0].to_beam()
    leo_sat = satellite_state_over(leo_beam.center, 600.0)
    geo_sat = propagate(OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS), 0.0)
    cases = [
        (leo_sat, leo_beam, 64),
        (leo_sat, BeamSpec(GroundPosition(3.0, 2.0), 300.0), 17),
        (geo_sat, BeamSpec(GroundPosition(57.0, 5.0), 3500.0), 64),
    ]
    for sat, beam, grid_n in cases:
        got = differential_delay(sat, beam, grid_n)
        assert close(got, differential_delay_reference(sat, beam, grid_n), 1.0)


def test_differential_delay_zero_radius_beam():
    geo_sat = propagate(OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS), 0.0)
    assert differential_delay(geo_sat, BeamSpec(GroundPosition(30.0, 0.0), 0.0)) == 0.0
    with pytest.raises(DomainError):
        differential_delay(geo_sat, BeamSpec(GroundPosition(85.0, 0.0), 0.0))


def footprint_grid(sat, beam, grid_n):
    """Every grid point of the footprint, as unit vectors in one (N, 3)
    array, built as the dense evaluation built it (``np.meshgrid``)."""
    radius = beam.diameter_km / 2.0
    u0 = beam.center.unit_vector()
    e1, e2 = _tangent_basis(beam.center, sat.velocity_km_s)
    xs = np.linspace(-radius, radius, grid_n)
    x, y = (g.ravel() for g in np.meshgrid(xs, xs))
    inside = x * x + y * y <= radius * radius
    x, y = x[inside, None], y[inside, None]
    s = np.hypot(x, y)
    return u0 * np.cos(s / EARTH_RADIUS_KM) + (e1 * x + e2 * y) * (
        np.sin(s / EARTH_RADIUS_KM) / np.where(s > 0, s, 1.0)
    )


def differential_delay_dense(sat, beam, grid_n=64):
    """``differential_delay`` with every grid point sent to the kernel: the
    oracle its p.u bound must match bit for bit."""
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 2:
        raise DomainError(f"grid_n must be an integer of at least 2, not {grid_n!r}")
    points = footprint_grid(sat, beam, grid_n)
    if len(points) == 0:
        raise DomainError(f"grid_n={grid_n} puts no grid point inside the beam")
    elevation, distance, _ = geometry_samples(sat.position_km, sat.velocity_km_s, points)
    if np.any(elevation < 0):
        raise DomainError("beam footprint extends below the horizon")
    delays = one_way_delay_ms(distance)
    return float(delays.max() - delays.min())


def outcome(fn, *args):
    """The bits of a float result, or the type and message of what it raised."""
    try:
        return "value", np.float64(fn(*args)).tobytes()
    except Exception as exc:  # what it raised is the outcome, warnings included
        return type(exc).__name__, str(exc)


def sent_points(sat, beam, grid_n):
    """The points ``differential_delay`` sends to the kernel (it may raise
    after sending them)."""
    sent = []

    def record(pos, vel, ground):
        sent.append(ground)
        return geometry_samples(pos, vel, ground)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "geometry_samples", record)
        try:
            differential_delay(sat, beam, grid_n)
        except DomainError:
            pass
    return sent[0]


NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def footprints(draw, finite=False):
    """(satellite, beam, grid_n): a satellite at the beam centre's zenith
    (rings of tied ranges), one over a nearby point (up to beams that
    cross the horizon), a GEO satellite, or, unless ``finite``, one of
    those with a NaN or infinite position or velocity component."""
    center = GroundPosition(draw(st.floats(-90.0, 90.0)), draw(st.floats(-180.0, 180.0)))
    kind = draw(st.sampled_from(["zenith", "offset", "geo"]))
    if kind == "zenith":
        sat = satellite_state_over(center, draw(st.floats(300.0, 40000.0)))
    elif kind == "offset":
        lat = min(90.0, max(-90.0, center.latitude_deg + draw(st.floats(-40.0, 40.0))))
        over = GroundPosition(lat, center.longitude_deg + draw(st.floats(-40.0, 40.0)))
        sat = satellite_state_over(over, draw(st.floats(300.0, 40000.0)), draw(st.floats(0.0, 360.0)))
    else:
        orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, raan_deg=draw(st.floats(0.0, 360.0)))
        sat = propagate(orbit, draw(st.floats(0.0, 1e5)))
    if not finite and draw(st.booleans()):
        state = [sat.position_km.copy(), sat.velocity_km_s.copy()]
        state[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(st.sampled_from(NON_FINITE))
        sat = SatelliteState(*state)
    # Beams of a few metres hold ranges that differ only in their last bits.
    diameter = draw(
        st.one_of(st.just(0.0), st.just(1e308), st.floats(0.0, 12000.0), st.floats(0.0, 0.01))
    )
    return sat, BeamSpec(center, diameter), draw(st.integers(2, 64))


LEO_ZENITH = satellite_state_over(GroundPosition(0.0, 0.0), 600.0)
GEO_STATE = propagate(OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS), 0.0)
# Over this 1 m beam the ranges differ in their last bits only, and the point
# of greatest computed p.u is not the kernel's nearest: with no slack the
# bound returns other bits.
TINY_BEAM_SAT = satellite_state_over(GroundPosition(-28.2, 119.8), 35786.0)


@given(footprints())
@example((LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 1000.0), 64))
@example((GEO_STATE, BeamSpec(GroundPosition(57.0, 5.0), 3500.0), 64))
@example((GEO_STATE, BeamSpec(GroundPosition(71.0, 0.0), 3500.0), 64))
@example((LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 1e308), 17))
@example((TINY_BEAM_SAT, BeamSpec(GroundPosition(-28.2, 119.8), 1e-3), 64))
@example((LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 100.0), 2))
@example((SatelliteState(np.array([math.nan, 0.0, 0.0]), GEO_STATE.velocity_km_s),
          BeamSpec(GroundPosition(0.0, 0.0), 1000.0), 64))
@example((SatelliteState(np.array([math.inf, 0.0, 0.0]), GEO_STATE.velocity_km_s),
          BeamSpec(GroundPosition(0.0, 0.0), 1000.0), 64))
@settings(max_examples=150, deadline=None)
def test_differential_delay_is_the_dense_evaluation_bit_for_bit(case):
    """The value, or the exception's type and message, of the dense oracle:
    with numpy's warnings raised as errors (as this suite runs), and with
    them silenced, when NaN and inf states read nan."""
    assert outcome(differential_delay, *case) == outcome(differential_delay_dense, *case)
    with np.errstate(all="ignore"):
        assert outcome(differential_delay, *case) == outcome(differential_delay_dense, *case)


@given(footprints(finite=True))
@example((LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 1000.0), 64))
@example((GEO_STATE, BeamSpec(GroundPosition(71.0, 0.0), 3500.0), 64))
@settings(max_examples=60, deadline=None)
def test_the_pu_bound_rules_out_only_points_between_the_kept_extremes(case):
    """Every grid point the bound withholds from the kernel has a dense range
    strictly between the least and the greatest kept range, and a dense
    elevation no lower than the lowest kept one, so at or above the
    horizon whenever the kept points are."""
    sat, beam, grid_n = case
    with np.errstate(over="ignore"):  # x * x on a 1e308 km beam's grid
        dense = footprint_grid(sat, beam, grid_n)
        if len(dense) == 0:
            return
        sent = {row.tobytes() for row in sent_points(sat, beam, grid_n)}
    dense_rows = [row.tobytes() for row in dense]
    assert sent <= set(dense_rows)
    kept = np.array([row in sent for row in dense_rows])
    elevation, distance, _ = geometry_samples(sat.position_km, sat.velocity_km_s, dense)
    out = ~kept
    assert (distance[out] > distance[kept].min()).all()
    assert (distance[out] < distance[kept].max()).all()
    assert (elevation[out] >= elevation[kept].min()).all()
    if (elevation[kept] >= 0).all():
        assert (elevation[out] >= 0).all()


@pytest.mark.parametrize("center", [(0.0, 0.0), (57.0, 0.0), (40.0, -15.0), (48.5, 15.0)])
def test_benchmark_beams_send_at_most_16_points(leo_config, center):
    """The benchmark's beams (a 1000 km LEO beam under a 600 km zenith
    satellite, a 3500 km GEO beam at 40-57 N) send at most 16 of their
    3096 grid points to the kernel."""
    leo_beam = BeamSpec(GroundPosition(*center), leo_config.beams[0].diameter_km)
    cases = [
        (satellite_state_over(leo_beam.center, 600.0), leo_beam),
        (GEO_STATE, BeamSpec(GroundPosition(*center), 3500.0)),
    ]
    for sat, beam in cases:
        assert len(footprint_grid(sat, beam, 64)) == 3096
        assert len(sent_points(sat, beam, 64)) <= 16
        assert outcome(differential_delay, sat, beam) == outcome(differential_delay_dense, sat, beam)


def test_differential_delay_rejects_a_grid_with_no_point_in_the_beam():
    """A 2x2 grid has its four points at the corners of the beam's square,
    outside a beam of positive diameter; a zero-diameter beam holds them."""
    with pytest.raises(DomainError, match="grid_n=2"):
        differential_delay(LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 100.0), 2)
    assert differential_delay(LEO_ZENITH, BeamSpec(GroundPosition(0.0, 0.0), 0.0), 2) == 0.0


@pytest.mark.parametrize("grid_n", [4.5, 4.0, "64", None, 1, True, -3])
def test_differential_delay_rejects_a_grid_size_that_is_not_an_integer_of_two_or_more(grid_n):
    beam = BeamSpec(GroundPosition(0.0, 0.0), 100.0)
    with pytest.raises(DomainError, match="grid_n"):
        differential_delay(LEO_ZENITH, beam, grid_n)
    assert differential_delay(LEO_ZENITH, beam, np.int64(17)) == differential_delay(LEO_ZENITH, beam, 17)


def test_beam_doppler_profile_matches_scalar_loop():
    center = GroundPosition(10.0, 20.0)
    sat = satellite_state_over(GroundPosition(12.0, 21.0), 600.0, azimuth_deg=30.0)
    beam = BeamSpec(center, 200.0)
    got = beam_doppler_profile(sat, beam, 2e9, n=11)
    u0 = center.unit_vector()
    e1, _ = _tangent_basis(center, sat.velocity_km_s)
    scale = max(abs(d) for _, d in got)
    for (offset, doppler), want_offset in zip(got, np.linspace(-100.0, 100.0, 11)):
        u = u0 * math.cos(want_offset / EARTH_RADIUS_KM) + e1 * math.sin(want_offset / EARTH_RADIUS_KM)
        ground = GroundPosition(math.degrees(math.asin(u[2])), math.degrees(math.atan2(u[1], u[0])))
        assert offset == want_offset
        assert close(doppler, geometry_sample_reference(sat, ground, 2e9).doppler_hz, scale)
