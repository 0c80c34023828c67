"""Circular-orbit geometry for bent-pipe satellite links.

Spherical earth, circular Kepler orbits, propagated into an earth-fixed
frame so that range rates (and hence Doppler and delay drift) include the
earth-rotation contribution.  All positions are km, velocities km/s,
delays ms, Doppler Hz, delay drift microseconds per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .constants import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    OMEGA_EARTH_RAD_S,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
)
from .errors import DomainError

GEO_ALTITUDE_KM = 35786.0
LEO_ALTITUDE_MIN_KM = 500.0
LEO_ALTITUDE_MAX_KM = 2000.0
# Ground points: from below the Dead Sea shore to the edge of space.
GROUND_ALTITUDE_MIN_M = -500.0
GROUND_ALTITUDE_MAX_M = 100_000.0
# The most time steps one sweep may take.  A LEO600 period at a 1 s step
# is about 5 800; the cap stops a long span or a fine step from trying to
# allocate a grid that does not fit in memory.
MAX_SWEEP_STEPS = 10**6


def normalize_longitude(lon_deg: float) -> float:
    """Map a longitude to (-180, 180]."""
    lon = math.fmod(lon_deg, 360.0)
    if lon > 180.0:
        lon -= 360.0
    elif lon <= -180.0:
        lon += 360.0
    return lon


@dataclass(frozen=True)
class GroundPosition:
    """A point on (or just above) the reference sphere."""

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise DomainError(f"latitude {self.latitude_deg} outside [-90, 90]")
        if not GROUND_ALTITUDE_MIN_M <= self.altitude_m <= GROUND_ALTITUDE_MAX_M:
            raise DomainError(
                f"altitude {self.altitude_m} m outside "
                f"[{GROUND_ALTITUDE_MIN_M:g}, {GROUND_ALTITUDE_MAX_M:g}] m"
            )
        object.__setattr__(
            self, "longitude_deg", normalize_longitude(self.longitude_deg)
        )

    def unit_vector(self) -> np.ndarray:
        lat = math.radians(self.latitude_deg)
        lon = math.radians(self.longitude_deg)
        return np.array(
            [
                math.cos(lat) * math.cos(lon),
                math.cos(lat) * math.sin(lon),
                math.sin(lat),
            ]
        )

    def ecef_km(self) -> np.ndarray:
        """Earth-fixed cartesian position."""
        r = EARTH_RADIUS_KM + self.altitude_m / 1000.0
        return r * self.unit_vector()


class OrbitKind(Enum):
    GEOSYNCHRONOUS = "geosynchronous"
    LEO_CIRCULAR = "leo_circular"


@dataclass(frozen=True)
class OrbitSpec:
    """A circular orbit: altitude, inclination, node, and phase at epoch.

    ``raan_deg`` is the earth-fixed longitude of the ascending node at
    epoch; ``phase_deg`` is the argument of latitude at epoch.
    """

    kind: OrbitKind
    altitude_km: float = GEO_ALTITUDE_KM
    inclination_deg: float = 0.0
    raan_deg: float = 0.0
    phase_deg: float = 0.0
    epoch_s: float = 0.0

    def __post_init__(self):
        if self.altitude_km <= 0:
            raise DomainError("altitude must be positive")
        if self.kind is OrbitKind.GEOSYNCHRONOUS:
            if abs(self.altitude_km - GEO_ALTITUDE_KM) > 1e-6:
                raise DomainError(
                    f"geosynchronous altitude is fixed at {GEO_ALTITUDE_KM} km"
                )
        else:
            if not LEO_ALTITUDE_MIN_KM <= self.altitude_km <= LEO_ALTITUDE_MAX_KM:
                raise DomainError(
                    "LEO altitude must lie in "
                    f"[{LEO_ALTITUDE_MIN_KM}, {LEO_ALTITUDE_MAX_KM}] km"
                )
        if not 0.0 <= self.inclination_deg < 180.0:
            raise DomainError("inclination must lie in [0, 180)")

    @property
    def semi_major_axis_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    def mean_motion_rad_s(self) -> float:
        if self.kind is OrbitKind.GEOSYNCHRONOUS:
            return 2.0 * math.pi / SIDEREAL_DAY_S
        a = self.semi_major_axis_km
        return math.sqrt(MU_EARTH_KM3_S2 / a**3)

    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s()

    def inertial_speed_km_s(self) -> float:
        return self.mean_motion_rad_s() * self.semi_major_axis_km


@dataclass(frozen=True)
class SatelliteState:
    """Earth-fixed position/velocity at an instant."""

    position_km: np.ndarray
    velocity_km_s: np.ndarray


@dataclass(frozen=True)
class GeometrySample:
    elevation_deg: float
    slant_range_km: float
    one_way_delay_ms: float
    range_rate_km_s: float  # positive = receding
    doppler_hz: float
    delay_drift_us_s: float


@dataclass(frozen=True)
class BeamSpec:
    center: GroundPosition
    diameter_km: float

    def __post_init__(self):
        if not self.diameter_km >= 0:
            raise DomainError("beam diameter must be non-negative")


def slant_range(elevation_deg: float, altitude_km: float) -> float:
    """Line-of-sight distance to a satellite seen at a given elevation."""
    if not 0.0 <= elevation_deg <= 90.0:
        raise DomainError("elevation must lie in [0, 90] degrees")
    if altitude_km <= 0:
        raise DomainError("altitude must be positive")
    re = EARTH_RADIUS_KM
    r = re + altitude_km
    eps = math.radians(elevation_deg)
    return math.sqrt(r * r - (re * math.cos(eps)) ** 2) - re * math.sin(eps)


def propagate(orbit: OrbitSpec, t_s: float) -> SatelliteState:
    """Earth-fixed state of a circular orbit at time t: a 0-d call of
    ``propagate_many``."""
    pos, vel = propagate_many(orbit, t_s)
    return SatelliteState(position_km=pos, velocity_km_s=vel)


def propagate_many(orbit: OrbitSpec, t_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Earth-fixed positions and velocities at an array of times.

    For times of shape ``S`` it returns ``(pos, vel)`` of shape
    ``S + (3,)``; a scalar time gives one state (as ``propagate``).
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < orbit.epoch_s):
        raise DomainError("t must not precede the orbit epoch")
    dt = t - orbit.epoch_s
    turn = _earth_turn(dt)
    e = _elements([orbit])[0]
    pos, cos_u, sin_u = _positions(e, dt, turn)
    # v_ef = rot @ v_in - omega x r_ef with omega along +z.
    vel = _earth_fixed(e, -e[_A] * e[_N] * sin_u, e[_A] * e[_N] * cos_u, turn)
    vel[..., 0] += OMEGA_EARTH_RAD_S * pos[..., 1]
    vel[..., 1] -= OMEGA_EARTH_RAD_S * pos[..., 0]
    return pos, vel


_A, _N, _PHASE, _NODE, _INC, _EPOCH = range(6)


def _elements(orbits) -> np.ndarray:
    """One row per orbit of what the kernel reads of it, in the columns
    ``_A`` .. ``_EPOCH``: semi-major axis (km), mean motion (rad/s), phase,
    node and inclination (rad), epoch (s).  ``+ 0.0`` turns a node or
    inclination of -0.0 into 0.0, as the frame's rotation matrices had it."""
    rows = [(o.semi_major_axis_km, o.mean_motion_rad_s(), math.radians(o.phase_deg),
             math.radians(o.raan_deg) + 0.0, math.radians(o.inclination_deg) + 0.0, o.epoch_s)
            for o in orbits]
    return np.array(rows, dtype=float).reshape(len(rows), 6)


def _earth_turn(dt):
    """cos and sin of the Earth's turn ``-omega * dt`` over ``dt`` seconds
    since an orbit's epoch: the rotation from the inertial into the
    earth-fixed frame.  It depends on the epoch, not on the orbit."""
    theta = -OMEGA_EARTH_RAD_S * dt
    return np.cos(theta), np.sin(theta)


def _positions(e: np.ndarray, dt, turn):
    """Earth-fixed positions ``dt`` seconds past the epoch of ``_elements``
    rows ``e``, whose leading axes broadcast against ``dt`` (``turn`` is
    ``_earth_turn(dt)``), with the cos and sin of the argument of latitude."""
    a = e[..., _A]
    u = e[..., _PHASE] + e[..., _N] * dt
    cos_u, sin_u = np.cos(u), np.sin(u)
    return _earth_fixed(e, a * cos_u, a * sin_u, turn), cos_u, sin_u


def _earth_fixed(e: np.ndarray, p0, p1, turn) -> np.ndarray:
    """Earth-fixed vectors (trailing axis 3) of the in-plane components
    ``(p0, p1)`` of ``_elements`` rows ``e``: into the inertial frame, then
    through the Earth's turn ``(cos, sin)``."""
    cos_node, sin_node = np.cos(e[..., _NODE]), np.sin(e[..., _NODE])
    cos_inc, sin_inc = np.cos(e[..., _INC]), np.sin(e[..., _INC])
    c, s = turn
    x_in = cos_node * p0 + (-sin_node * cos_inc) * p1
    y_in = sin_node * p0 + (cos_node * cos_inc) * p1
    out = np.empty(np.shape(x_in) + (3,))
    out[..., 0] = c * x_in - s * y_in
    out[..., 1] = s * x_in + c * y_in
    # 0.0 * p0 keeps the sign of a zero z as the frame's matrix product had it.
    out[..., 2] = 0.0 * p0 + sin_inc * p1
    return out


def _step_count(steps: float, rounding=math.ceil) -> int:
    """A sweep's span over its step, rounded to a whole number of steps
    and checked against ``MAX_SWEEP_STEPS``."""
    if not (math.isfinite(steps) and rounding(steps) <= MAX_SWEEP_STEPS):
        raise DomainError(f"sweep needs more than {MAX_SWEEP_STEPS} steps")
    return rounding(steps)


def _sweep_times(epoch_s: float, span_s: float, step_s: float) -> np.ndarray:
    """The time grid ``epoch + k * step`` for k = 0 .. ceil(span / step)."""
    return epoch_s + np.arange(_step_count(span_s / step_s) + 1) * step_s


def subsatellite_point(state: SatelliteState) -> tuple[float, float]:
    """(latitude, longitude) of the sub-satellite point in degrees."""
    x, y, z = state.position_km
    r = float(np.linalg.norm(state.position_km))
    lat = math.degrees(math.asin(z / r))
    lon = normalize_longitude(math.degrees(math.atan2(y, x)))
    return lat, lon


def ground_track(
    orbit: OrbitSpec, duration_s: float, step_s: float
) -> list[tuple[float, float, float]]:
    """Sub-satellite (t, lat, lon) series from the orbit epoch."""
    if not (0 < duration_s < math.inf and 0 < step_s < math.inf):
        raise DomainError("duration and step must be positive and finite")
    n_steps = _step_count((duration_s + 1e-9) / step_s, math.floor)
    t = orbit.epoch_s + np.arange(n_steps + 1) * step_s
    pos, _ = propagate_many(orbit, t)
    r = np.linalg.norm(pos, axis=-1)
    lat = np.degrees(np.arcsin(pos[:, 2] / r))
    lon = np.degrees(np.arctan2(pos[:, 1], pos[:, 0]))
    lon[lon <= -180.0] += 360.0  # normalize_longitude on atan2's [-180, 180]
    return list(zip(t.tolist(), lat.tolist(), lon.tolist()))


def geometry_sample(
    sat: SatelliteState, ground: GroundPosition, fc_hz: float
) -> GeometrySample:
    """Elevation, slant range, delay, range rate, Doppler, delay drift.

    Ground stations are fixed in the earth-fixed frame, so the satellite's
    earth-fixed velocity is the full relative velocity.  A 0-d call of
    ``geometry_samples``.
    """
    if fc_hz <= 0:
        raise DomainError("carrier frequency must be positive")
    elevation, d, range_rate = (
        float(x) for x in geometry_samples(sat.position_km, sat.velocity_km_s, ground)
    )
    return GeometrySample(
        elevation_deg=elevation,
        slant_range_km=d,
        one_way_delay_ms=one_way_delay_ms(d),
        range_rate_km_s=range_rate,
        doppler_hz=doppler_hz(range_rate, fc_hz),
        delay_drift_us_s=range_rate / SPEED_OF_LIGHT_KM_S * 1e6,
    )


def geometry_samples(
    pos: np.ndarray, vel: np.ndarray, ground: GroundPosition | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevation, slant range and range rate of satellite states seen
    from ground points.

    ``pos`` and ``vel`` are earth-fixed satellite states with a trailing
    axis of 3 (as from ``propagate_many``).  ``ground`` is a
    ``GroundPosition`` or an array of earth-fixed unit vectors (trailing
    axis 3) of points on the reference sphere.  The leading axes of the
    two broadcast against each other, e.g. ``pos[:, None]`` against
    ``(G, 3)`` ground points gives (time, ground point) outputs.

    Returns ``(elevation_deg, slant_range_km, range_rate_km_s)``; delay
    and Doppler follow with ``one_way_delay_ms`` and ``doppler_hz``.
    """
    los, elevation = _sight(pos, *_ground_vectors(ground))
    d = np.sqrt(np.einsum("...i,...i->...", los, los))
    if np.any(d < 1e-9):
        raise DomainError("ground position coincides with the satellite")
    range_rate = np.einsum("...i,...i->...", los, vel) / d
    return elevation, d, range_rate


def _ground_vectors(ground: GroundPosition | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up unit vectors and earth-fixed positions (km) of a ``GroundPosition``
    or of an array of unit vectors of points on the reference sphere."""
    if isinstance(ground, GroundPosition):
        return ground.unit_vector(), ground.ecef_km()
    up = np.asarray(ground, dtype=float)
    return up, EARTH_RADIUS_KM * up


def _sight(pos: np.ndarray, up: np.ndarray, r_gnd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Line of sight from ground points (``_ground_vectors``) to satellite
    positions, and its elevation in degrees."""
    los = pos - r_gnd
    # atan2 of the vertical over the horizontal part: asin(vertical / d)
    # loses half the digits near the zenith, where its slope is infinite.
    vertical = np.einsum("...i,...i->...", los, up)
    horizontal = los - vertical[..., None] * up
    horizontal_km = np.sqrt(np.einsum("...i,...i->...", horizontal, horizontal))
    return los, np.degrees(np.arctan2(vertical, horizontal_km))


def one_way_delay_ms(slant_range_km):
    """Propagation delay (ms) over a slant range; scalar or array."""
    return slant_range_km / SPEED_OF_LIGHT_KM_S * 1000.0


def doppler_hz(range_rate_km_s, fc_hz: float):
    """Doppler shift (Hz) of a carrier for a range rate (positive =
    receding); scalar or array."""
    return -range_rate_km_s / SPEED_OF_LIGHT_KM_S * fc_hz


# The serving sweep's bound (``_candidates``) rules a pair (orbit, time)
# out only when its central angle exceeds the reach by a slack (rad):
# _SLACK_RAD, far above the rounding of the anchors' angles (arccos of
# the kernel's positions), plus _PHASE_SLACK x rate x (max |t| + max |epoch|)
# for the rounding of an orbit's phase and of the Earth's turn at large times.
_SLACK_RAD = 1e-6
_PHASE_SLACK = 1e-15


def _serving(orbits, t_s, ground: GroundPosition, min_elevation_deg: float):
    """``highest_satellite``'s ranking alone: at each time of ``t_s``, the
    index of the highest orbit at or above ``min_elevation_deg`` (ties to
    the later index, -1 where none is) and its elevation (the threshold
    where none is), each orbit seen at ``max(t, orbit.epoch_s)``.

    The orbits' element rows go in index order through the kernel's
    elevation (``_positions`` + ``_sight``) and the running ``el >=
    elevation`` rule, so the result has a dense sweep's bits; but each
    orbit is evaluated only at the times ``_candidates`` cannot rule out,
    one orbit at a time (all pairs at once would hold k times the memory).  No
    coincidence check is needed: an orbit is at least 500 km up and a
    ground point at most 100 km, so no satellite meets the ground point.
    """
    t = np.asarray(t_s, dtype=float)
    flat = t.ravel()
    index = np.full(flat.shape, -1)
    elevation = np.full(flat.shape, float(min_elevation_deg))
    ground_vectors = _ground_vectors(ground)
    elements = _elements(orbits)
    candidates = _candidates(elements, flat, ground, min_elevation_deg)
    for i, (e, at) in enumerate(zip(elements, candidates)):
        if not at.size:
            continue
        dt = np.maximum(flat[at], e[_EPOCH]) - e[_EPOCH]
        _, el = _sight(_positions(e, dt, _earth_turn(dt))[0], *ground_vectors)
        take = el >= elevation[at]
        index[at[take]] = i
        elevation[at[take]] = el[take]
    return index.reshape(t.shape), elevation.reshape(t.shape)


def _candidates(elements: np.ndarray, t: np.ndarray, ground: GroundPosition, min_elevation_deg: float):
    """For each ``_elements`` row, the indices of the 1-D times ``t`` at
    which its orbit may be at or above ``min_elevation_deg`` from ``ground``.
    Where the bound cannot help, every time is a candidate: fewer than two
    times, a threshold outside (-90, 90), a non-finite time, or more anchors
    than half the times.

    A satellite at radius r is at or above elevation e seen from a point
    at radius rho exactly when its central angle from the point is at
    most its reach arccos(rho / r * cos e) - e.  In the earth-fixed frame
    its sub-satellite point turns at most at rate n + omega.  Anchors D =
    min(reach / (2 rate)) apart span [t.min(), t.max()]; between anchors
    k and k + 1 the central angle is at least (angle_k + angle_k+1 -
    rate D) / 2, so an orbit is ruled out of a span where that exceeds
    its reach.  The anchors' angles are the kernel's (``_positions``, all
    orbits in one call).
    """
    every = [np.arange(t.size)] * len(elements)
    if not (every and t.size >= 2 and -90.0 < min_elevation_deg < 90.0 and np.isfinite(t).all()):
        return every
    eps = math.radians(min_elevation_deg)
    a = elements[:, _A]
    rho = float(np.linalg.norm(ground.ecef_km()))
    reach = np.arccos(np.clip(rho / a * math.cos(eps), -1.0, 1.0)) - eps
    rate = elements[:, _N] + OMEGA_EARTH_RAD_S
    step = float((reach / (2.0 * rate)).min())
    start, stop = float(t.min()), float(t.max())
    spans = (stop - start) / step if step > 0.0 else math.inf
    if not spans + 1.0 <= t.size / 2.0:
        return every
    spans = max(1, math.ceil(spans))
    epoch = elements[:, _EPOCH, None]
    dt = np.maximum(start + np.arange(spans + 1) * step, epoch) - epoch
    pos = _positions(elements[:, None], dt, _earth_turn(dt))[0]
    angle = np.arccos(np.clip(pos @ ground.unit_vector() / a[:, None], -1.0, 1.0))
    farthest = max(abs(start), abs(stop)) + float(np.abs(epoch).max())
    slack = _SLACK_RAD + _PHASE_SLACK * rate * farthest
    near = (angle[:, :-1] + angle[:, 1:] - (rate * step)[:, None]) / 2.0 <= (reach + slack)[:, None]
    span = np.minimum(((t - start) / step).astype(np.intp), spans - 1)
    return [np.flatnonzero(k[span]) if k.any() else span[:0] for k in near]


def highest_satellite(
    orbits: list[OrbitSpec] | tuple[OrbitSpec, ...],
    t_s,
    ground: GroundPosition,
    min_elevation_deg: float = -math.inf,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The satellite serving a ground point at each time: the highest of
    ``orbits`` at or above ``min_elevation_deg``, ties to the later index,
    each orbit seen at ``max(t, orbit.epoch_s)``.  Returns ``(index,
    elevation_deg, slant_range_km, range_rate_km_s)`` in the shape of
    ``t_s``, with index -1 and NaNs where no satellite is that high."""
    t = np.asarray(t_s, dtype=float)
    # Rank by elevation alone (``_serving``), then measure each serving
    # orbit at the times it serves.
    index, elevation = _serving(orbits, t, ground, min_elevation_deg)
    distance = np.full(t.shape, np.nan)
    range_rate = np.full(t.shape, np.nan)
    for i in set(index[index >= 0].tolist()):
        served = index == i
        seen = np.maximum(t[served], orbits[i].epoch_s)
        _, distance[served], range_rate[served] = geometry_samples(
            *propagate_many(orbits[i], seen), ground
        )
    return index, np.where(index >= 0, elevation, np.nan), distance, range_rate


def visibility_duration(
    orbit: OrbitSpec,
    ground: GroundPosition,
    min_elevation_deg: float,
    step_s: float = 1.0,
) -> float:
    """Longest contiguous above-threshold interval over one orbital period.

    Fixed-step numeric sweep; returns 0 if the satellite never rises above
    the threshold.
    """
    if not 0.0 <= min_elevation_deg <= 90.0:
        raise DomainError("min_elevation must lie in [0, 90]")
    if not 0 < step_s < math.inf:
        raise DomainError("step must be positive and finite")
    t = _sweep_times(orbit.epoch_s, orbit.period_s(), step_s)
    served = _serving([orbit], t, ground, min_elevation_deg)[0] >= 0
    above = np.concatenate(([0], served.astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(above))  # alternating run starts and ends
    best = int((edges[1::2] - edges[::2]).max(initial=0))
    return best * step_s


@dataclass(frozen=True)
class ServiceInterval:
    start_s: float
    end_s: float
    satellite_index: int


def earth_fixed_beam_schedule(
    orbits: list[OrbitSpec],
    cell_center: GroundPosition,
    min_elevation_deg: float,
    horizon_s: float | None = None,
    step_s: float = 1.0,
) -> list[ServiceInterval]:
    """Intervals during which each satellite serves an earth-fixed cell.

    The serving satellite is ``highest_satellite``'s of the cell center at
    the threshold, ranked by elevation alone (``_serving``: no range or
    range rate); a change of serving satellite starts a new interval (a
    service-link switch).
    """
    if not 0 < step_s < math.inf or not (horizon_s is None or 0 < horizon_s < math.inf):
        raise DomainError("horizon and step must be positive and finite")
    static = all(
        o.kind is OrbitKind.GEOSYNCHRONOUS and o.inclination_deg == 0.0 for o in orbits
    )
    epoch = max((o.epoch_s for o in orbits), default=0.0)  # with no orbits, none serves
    if static:
        serving = int(_serving(orbits, epoch, cell_center, min_elevation_deg)[0])
        return [ServiceInterval(epoch, math.inf, serving)] if serving >= 0 else []

    if horizon_s is None:
        horizon_s = max(o.period_s() for o in orbits)
    t = _sweep_times(epoch, horizon_s, step_s)
    serving = _serving(orbits, t, cell_center, min_elevation_deg)[0]
    # Runs of one serving index; each ends where the next starts, the last
    # at the final step.
    starts = np.concatenate(([0], np.flatnonzero(serving[1:] != serving[:-1]) + 1))
    ends = np.append(starts[1:], len(t) - 1)
    return [
        ServiceInterval(float(t[start]), float(t[end]), int(serving[start]))
        for start, end in zip(starts, ends)
        if serving[start] >= 0
    ]


def satellite_state_over(
    ground: GroundPosition, altitude_km: float, azimuth_deg: float = 0.0
) -> SatelliteState:
    """Earth-fixed state of a satellite at the zenith of a ground point.

    The inertial velocity is horizontal with the given azimuth (0 = north,
    90 = east) and circular-orbit magnitude; the returned velocity is
    earth-fixed.
    """
    r = EARTH_RADIUS_KM + altitude_km
    pos = r * ground.unit_vector()
    speed = math.sqrt(MU_EARTH_KM3_S2 / r)
    # The second tangent axis, up x north, points west; at a pole the first
    # ("north") is +x.
    north, west = _tangent_basis(ground, np.array([0.0, 0.0, 1.0]))
    az = math.radians(azimuth_deg)
    v_in = speed * (math.cos(az) * north - math.sin(az) * west)
    omega_vec = np.array([0.0, 0.0, OMEGA_EARTH_RAD_S])
    v_ef = v_in - np.cross(omega_vec, pos)
    return SatelliteState(position_km=pos, velocity_km_s=v_ef)


def overhead_pass_orbit(
    kind: OrbitKind,
    altitude_km: float,
    inclination_deg: float,
    ground: GroundPosition,
    overhead_at_s: float,
) -> OrbitSpec:
    """An orbit with epoch 0 whose sub-satellite point crosses a
    near-equatorial ground point (peak elevation 90 degrees) at the
    requested time."""
    if abs(ground.latitude_deg) > 1e-6:
        raise DomainError("overhead pass construction requires an equatorial point")
    if overhead_at_s < 0:
        raise DomainError("overhead time must not precede the epoch")
    probe = OrbitSpec(kind=kind, altitude_km=altitude_km, inclination_deg=inclination_deg)
    n = probe.mean_motion_rad_s()
    # Put the ascending node over the ground point at overhead_at_s.
    raan = ground.longitude_deg + math.degrees(OMEGA_EARTH_RAD_S * overhead_at_s)
    phase = -math.degrees(n * overhead_at_s)
    return OrbitSpec(
        kind=kind,
        altitude_km=altitude_km,
        inclination_deg=inclination_deg,
        raan_deg=normalize_longitude(raan),
        phase_deg=phase % 360.0,
    )


def _tangent_basis(center: GroundPosition, along: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent basis at a ground point; first axis follows
    ``along`` projected into the tangent plane (east where ``along`` is
    radial, and +x where east is undefined, at a pole)."""
    u0 = center.unit_vector()
    e1 = along - u0 * float(np.dot(along, u0))
    norm = float(np.linalg.norm(e1))
    if not norm > 1e-9:
        e1 = np.cross(np.array([0.0, 0.0, 1.0]), u0)
        norm = float(np.linalg.norm(e1))
        if norm < 1e-12:
            e1, norm = np.array([1.0, 0.0, 0.0]), 1.0
    e1 = e1 / norm
    return e1, np.cross(u0, e1)


def beam_doppler_profile(
    sat: SatelliteState, beam: BeamSpec, fc_hz: float, n: int
) -> list[tuple[float, float]]:
    """Doppler sampled along the ground-track direction across the beam."""
    if n < 3:
        raise DomainError("need at least three samples")
    u0 = beam.center.unit_vector()
    e1, _ = _tangent_basis(beam.center, sat.velocity_km_s)
    offsets = np.linspace(-beam.diameter_km / 2.0, beam.diameter_km / 2.0, n)
    angle = (offsets / EARTH_RADIUS_KM)[:, None]
    points = u0 * np.cos(angle) + e1 * np.sin(angle)
    _, _, range_rate = geometry_samples(sat.position_km, sat.velocity_km_s, points)
    return list(zip(offsets.tolist(), doppler_hz(range_rate, fc_hz).tolist()))


def differential_delay(
    sat: SatelliteState, beam: BeamSpec, grid_n: int = 64
) -> float:
    """Max minus min one-way delay (ms) over the beam footprint.

    The footprint is a geodesic disc sampled on a grid_n x grid_n grid of
    tangent-plane offsets (a zero-diameter beam is its centre); raises if
    any point of it is below the horizon as seen from the satellite.

    Only the points nearest and farthest from the satellite reach the
    kernel: on the sphere, range^2 = |p|^2 + R^2 - 2R pu with pu = p.u, and
    elevation < 0 exactly when pu < R, so the range falls as pu grows and
    a point below the horizon has the least pu.  The points within a slack
    of 256 eps (|p|^2 + R^2) / R (eps: machine epsilon) of the least or
    the greatest pu are sent: several times the sum of pu's and the
    kernel's rounding, each below 30 eps (|p|^2 + R^2) / R.  Every point is
    sent when pu or the slack is not finite.  The dense oracle it matches
    bit for bit is tests/test_geometry_kernel.py's differential_delay_dense.
    """
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 2:
        raise DomainError(f"grid_n must be an integer of at least 2, not {grid_n!r}")
    radius = beam.diameter_km / 2.0
    u0 = beam.center.unit_vector()
    e1, e2 = _tangent_basis(beam.center, sat.velocity_km_s)
    xs = np.linspace(-radius, radius, grid_n)
    sq = xs * xs
    iy, ix = np.nonzero(sq[:, None] + sq <= radius * radius)
    if ix.size == 0:
        raise DomainError(f"grid_n={grid_n} puts no grid point inside the beam")
    x, y = xs[ix], xs[iy]
    s = np.hypot(x, y)
    # Geodesic offset s along (e1 x + e2 y) / s; sin(0) / 1 = 0 at the centre.
    c = np.cos(s / EARTH_RADIUS_KM)
    f = np.sin(s / EARTH_RADIUS_KM) / np.where(s > 0, s, 1.0)
    p = sat.position_km
    with np.errstate(all="ignore"):  # a NaN or inf state warns in the kernel only
        pu = (u0 @ p) * c + ((e1 @ p) * x + (e2 @ p) * y) * f
        lo, hi = pu.min(), pu.max()
        slack = 256 * np.finfo(float).eps / EARTH_RADIUS_KM * (p @ p + EARTH_RADIUS_KM**2)
    if np.isfinite(hi - lo + slack):
        keep = (pu <= lo + slack) | (pu >= hi - slack)
        x, y, c, f = x[keep], y[keep], c[keep], f[keep]
    points = u0 * c[:, None] + (e1 * x[:, None] + e2 * y[:, None]) * f[:, None]
    elevation, distance, _ = geometry_samples(p, sat.velocity_km_s, points)
    if np.any(elevation < 0):
        raise DomainError("beam footprint extends below the horizon")
    delays = one_way_delay_ms(distance)
    return float(delays.max() - delays.min())
