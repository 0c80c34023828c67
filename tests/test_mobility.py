import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim.constants import EARTH_RADIUS_KM
from ntnsim.errors import NoCellError
from ntnsim.geometry import GroundPosition, satellite_state_over
from ntnsim.linkbudget import LinkBudgetParams
from ntnsim.mobility import (
    CellCandidate,
    cell_model_snr,
    cell_suitability,
    great_circle_distance_km,
    measurement_capability_check,
    rank_cells,
)


def test_great_circle_known_values():
    equator = GroundPosition(0.0, 0.0)
    assert great_circle_distance_km(equator, GroundPosition(0.0, 90.0)) == pytest.approx(
        math.pi / 2.0 * EARTH_RADIUS_KM, rel=1e-9
    )
    assert great_circle_distance_km(equator, GroundPosition(90.0, 0.0)) == pytest.approx(
        math.pi / 2.0 * EARTH_RADIUS_KM, rel=1e-9
    )
    assert great_circle_distance_km(equator, equator) == 0.0


coords = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


@given(coords, coords)
def test_great_circle_symmetry(a, b):
    pa, pb = GroundPosition(*a), GroundPosition(*b)
    assert great_circle_distance_km(pa, pb) == pytest.approx(
        great_circle_distance_km(pb, pa), abs=1e-9
    )
    assert great_circle_distance_km(pa, pb) <= math.pi * EARTH_RADIUS_KM + 1e-6


def _cand(cell_id, lat, lon, max_rtt=30.0, est=20.0):
    return CellCandidate(
        cell_id=cell_id,
        cell_center=GroundPosition(lat, lon),
        max_rtt_ms=max_rtt,
        estimated_rtt_ms=est,
    )


def test_suitability_inclusive_boundary():
    assert cell_suitability(_cand("a", 0, 0, max_rtt=20.0, est=20.0))
    assert not cell_suitability(_cand("a", 0, 0, max_rtt=20.0, est=20.0001))


def test_rank_cells_by_distance_then_id():
    device = GroundPosition(0.0, 0.0)
    ranked = rank_cells(
        device, [_cand("far", 5.0, 0.0), _cand("near", 1.0, 0.0), _cand("mid", 3.0, 0.0)]
    )
    assert [c.cell_id for c in ranked] == ["near", "mid", "far"]
    assert ranked[0].center_distance_km < ranked[1].center_distance_km


def test_rank_cells_tie_broken_by_id():
    device = GroundPosition(0.0, 0.0)
    ranked = rank_cells(device, [_cand("b", 0.0, 2.0), _cand("a", 0.0, -2.0)])
    assert [c.cell_id for c in ranked] == ["a", "b"]


def test_rank_cells_empty_raises():
    with pytest.raises(NoCellError):
        rank_cells(GroundPosition(0.0, 0.0), [])


def test_measurement_capability():
    assert measurement_capability_check(3, 3)
    assert not measurement_capability_check(3, 4)
    with pytest.raises(NoCellError):
        measurement_capability_check(0, 3)


BASE = LinkBudgetParams(
    eirp_dbw=26.6, g_over_t_db_k=-31.6, bandwidth_hz=180e3, fspl_db=160.0
)


@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=50)
def test_closest_cell_has_best_model_snr(dlat, dlon):
    device = GroundPosition(dlat, dlon)
    sat = satellite_state_over(GroundPosition(0.0, 0.0), 600.0)
    centers = [GroundPosition(0.0, 0.0), GroundPosition(2.0, 2.0), GroundPosition(-2.0, 1.0)]
    cands = [
        CellCandidate(
            cell_id=f"c{i}",
            cell_center=c,
            max_rtt_ms=30.0,
            estimated_rtt_ms=10.0,
        )
        for i, c in enumerate(centers)
    ]
    ranked = rank_cells(device, cands)
    snrs = {
        c.cell_id: cell_model_snr(device, sat, c.cell_center, BASE, 2e9) for c in cands
    }
    assert snrs[ranked[0].cell_id] == pytest.approx(max(snrs.values()), abs=1e-12)


def test_model_snr_keeps_every_term_of_the_base_budget():
    device = GroundPosition(0.5, 0.5)
    sat = satellite_state_over(GroundPosition(0.0, 0.0), 600.0)
    center = GroundPosition(0.0, 0.0)
    plus_one_db = replace(BASE, boltzmann_term_db=BASE.boltzmann_term_db + 1.0)
    assert cell_model_snr(device, sat, center, plus_one_db, 2e9) == pytest.approx(
        cell_model_snr(device, sat, center, BASE, 2e9) + 1.0, abs=1e-9
    )
