"""RRC-idle cell suitability, distance-based ranking, and measurement
capability checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import EARTH_RADIUS_KM
from .errors import NoCellError
from .geometry import GeometrySample, GroundPosition, SatelliteState, geometry_sample
from .linkbudget import LinkBudgetParams, fspl, snr


def great_circle_distance_km(a: GroundPosition, b: GroundPosition) -> float:
    """Geodesic distance on the reference sphere (haversine)."""
    lat1, lat2 = math.radians(a.latitude_deg), math.radians(b.latitude_deg)
    dlat = lat2 - lat1
    dlon = math.radians(b.longitude_deg - a.longitude_deg)
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


@dataclass(frozen=True)
class CellCandidate:
    cell_id: str
    cell_center: GroundPosition
    max_rtt_ms: float
    estimated_rtt_ms: float
    center_distance_km: float = 0.0


def cell_suitability(candidate: CellCandidate) -> bool:
    """Suitable iff the estimated RTT does not exceed the advertised
    maximum (inclusive at the boundary)."""
    return candidate.estimated_rtt_ms <= candidate.max_rtt_ms


def rank_cells(
    device_pos: GroundPosition, candidates: list[CellCandidate]
) -> list[CellCandidate]:
    """Order candidates by geodesic distance to their cell centers,
    ascending; ties broken by cell_id."""
    if not candidates:
        raise NoCellError("no candidate cells to rank")
    with_distance = [
        replace(c, center_distance_km=great_circle_distance_km(device_pos, c.cell_center))
        for c in candidates
    ]
    return sorted(with_distance, key=lambda c: (c.center_distance_km, c.cell_id))


def measurement_capability_check(capability: int, reuse_denominator: int) -> bool:
    """Whether the device can measure enough frequencies for a 1/N reuse."""
    if capability < 1 or reuse_denominator < 1:
        raise NoCellError("capability and reuse denominator must be >= 1")
    return capability >= reuse_denominator


# Homogeneous-beam SNR model used to check that distance ranking picks the
# best cell: all beams share the satellite link, and the beam pattern is a
# monotone roll-off with distance from the beam center.
BEAM_ROLLOFF_DB_PER_KM = 0.003


def cell_model_snr(
    device_pos: GroundPosition,
    sat: SatelliteState,
    cell_center: GroundPosition,
    base: LinkBudgetParams,
    fc_hz: float,
) -> float:
    sample = geometry_sample(sat, device_pos, fc_hz)
    params = replace(base, fspl_db=fspl(sample.slant_range_km, fc_hz / 1e9))
    off_center = great_circle_distance_km(device_pos, cell_center)
    return snr(params) - BEAM_ROLLOFF_DB_PER_KM * off_center
