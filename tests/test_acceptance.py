"""End-to-end acceptance checks for the bundled GEO/LEO scenarios.

Each test covers one acceptance criterion, or one paper claim of
``ntnsim.claims.CLAIMS``, and prints a single "PASS: ..." line once its
assertions hold, so a -s run gives a compact scorecard.
"""

import json
import math
import re
import shutil

import numpy as np
import pytest

from ntnsim import claims
from ntnsim.claims import CLAIMS
from ntnsim.config import load_config
from ntnsim.constants import SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S
from ntnsim.engine import run_scenario
from ntnsim.events import RX_ARRIVAL, TX_START
from ntnsim.geometry import GEO_ALTITUDE_KM, BeamSpec, GroundPosition, OrbitKind, OrbitSpec
from ntnsim.geometry import beam_doppler_profile, geometry_sample, ground_track
from ntnsim.geometry import overhead_pass_orbit, propagate, satellite_state_over
from ntnsim.linkbudget import LinkBudgetParams, bandwidth_rescale
from ntnsim.mobility import CellCandidate, cell_model_snr, cell_suitability, rank_cells
from ntnsim.protocol import BentPipeChannel, HarqConfig, build_ta_command
from ntnsim.protocol import harq_throughput, rlc_arq_throughput

FC_HZ = 2.0e9
LEO_ALTITUDE_KM = 600.0
# The ground point the LEO pass and beams are centred on.
EQUATOR = GroundPosition(0.0, 0.0)


def _ok(label):
    print(f"PASS: {label}")


@pytest.mark.parametrize(
    "claim",
    [c for c in CLAIMS if c.paper is not None],
    ids=lambda c: re.sub(r"\W+", "_", c.name),
)
def test_paper_claim(claim):
    # Criteria 1-4, 7 and 8: the SNR bounds, the 180 -> 15 kHz rescale,
    # the FSPL and RTT envelopes, LEO speed and periods, the pass Doppler,
    # visibility and the inclined-GEO peak Doppler.
    value = claim.compute()
    tolerance = {"rel" if claim.relative else "abs": claim.tolerance}
    assert value == pytest.approx(claim.paper, **tolerance)
    _ok(f"{claim.name}: {value:.4g} {claim.unit}, paper {claim.paper:g}")


def test_claims_read_the_bundled_configs(config_dir, tmp_path, monkeypatch):
    """The claims table keeps no private copy of a scenario: with
    geo_sband's downlink EIRP 1 dB higher, both GEO DL SNR rows read 1 dB
    more and the GEO UL rows do not move."""
    configs = shutil.copytree(config_dir, tmp_path / "configs")
    data = json.loads((configs / "geo_sband.json").read_text())
    next(link for link in data["links"] if link["name"] == "geo_dl")["eirp_dbw"] += 1.0
    (configs / "geo_sband.json").write_text(json.dumps(data))
    rows = [c for c in CLAIMS if c.name.startswith(("GEO DL SNR", "GEO UL SNR"))]
    assert len(rows) == 4
    before = [c.compute() for c in rows]
    monkeypatch.setattr(claims, "CONFIG_DIR", configs)
    for claim, value in zip(rows, before):
        step = 1.0 if claim.name.startswith("GEO DL") else 0.0
        assert claim.compute() == pytest.approx(value + step, abs=1e-9)
    _ok("the GEO DL SNR claims follow geo_sband.json's downlink EIRP")


def test_c04_leo_kinematics():
    # Per sample of the retrograde pass, the delay drift in us/s equals
    # the Doppler in ppm.
    orbit = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, LEO_ALTITUDE_KM, 150.0, EQUATOR, 3000.0)
    for t in np.arange(2400.0, 3600.0, 1.0):
        sample = geometry_sample(propagate(orbit, t), EQUATOR, FC_HZ)
        if sample.elevation_deg >= 10.0:
            ppm = abs(sample.range_rate_km_s) / SPEED_OF_LIGHT_KM_S * 1e6
            assert abs(sample.delay_drift_us_s) == pytest.approx(ppm, rel=1e-9)
    _ok("criterion 4: delay drift in us/s equals Doppler in ppm")


def _zero_crossing(f, lo, hi):
    flo = f(lo)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2.0


def test_c05_inclined_geo_diurnal_doppler():
    orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0)
    obs = GroundPosition(59.0, 0.0)

    def f(t):
        return geometry_sample(propagate(orbit, t), obs, FC_HZ).doppler_hz

    # Period from matched zero crossings one cycle apart.
    t = 0.0
    while f(t) * f(t + 60.0) > 0:
        t += 60.0
    first = _zero_crossing(f, t, t + 60.0)
    t2 = first + SIDEREAL_DAY_S - 300.0
    while f(t2) * f(t2 + 60.0) > 0:
        t2 += 60.0
    second = _zero_crossing(f, t2, t2 + 60.0)
    assert second - first == pytest.approx(SIDEREAL_DAY_S, abs=1.0)

    track = ground_track(orbit, SIDEREAL_DAY_S, 30.0)
    lats = [lat for _, lat, _ in track]
    lons = [lon for _, _, lon in track]
    assert (max(lats) - min(lats)) / 2.0 == pytest.approx(10.0, abs=0.1)
    i_rad = math.radians(10.0)
    assert (max(lons) - min(lons)) / 2.0 == pytest.approx(
        math.degrees(i_rad * i_rad / 4.0), rel=0.05
    )
    _ok("criterion 5: diurnal inclined-GEO Doppler and figure-8 track")


def test_c06_beam_doppler_linearity():
    beam = BeamSpec(center=EQUATOR, diameter_km=50.0)
    sat = satellite_state_over(EQUATOR, LEO_ALTITUDE_KM)
    profile = beam_doppler_profile(sat, beam, FC_HZ, n=101)
    x = np.array([p[0] for p in profile])
    y = np.array([p[1] for p in profile])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r2 = 1.0 - np.sum(residuals**2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.999

    # Closed form for a zenith satellite: the radial speed toward a point
    # offset r along track is v * r / sqrt(h^2 + r^2).
    v = np.linalg.norm(sat.velocity_km_s)
    r = beam.diameter_km / 2.0
    oracle_span = 2.0 * FC_HZ / SPEED_OF_LIGHT_KM_S * v * r / math.hypot(LEO_ALTITUDE_KM, r)
    assert y.max() - y.min() == pytest.approx(oracle_span, rel=0.10)
    _ok("criterion 6: in-beam Doppler linear, span matches closed form")


def test_c08_bandwidth_rescale_exact():
    gain = bandwidth_rescale(0.0, 180e3, 15e3)
    assert gain == pytest.approx(10.0 * math.log10(12.0), rel=1e-12)
    _ok("criterion 8: 180 to 15 kHz rescale equals 10 log10(12) dB")


def test_c09_protocol_invariants(config_dir):
    # Perfect GNSS: zero residual, zero-step TA.
    geo_cfg = load_config(config_dir / "geo_sband.json")
    clean = json.loads((config_dir / "geo_sband.json").read_text())
    clean["access"]["gnss_error_m"] = 0.0
    from ntnsim.config import load_config_dict

    cfg0 = load_config_dict(clean)
    res0 = run_scenario(cfg0, seed=1)
    assert all(o.success and o.ta_command.steps == 0 for o in res0.attempts.outcomes())

    # TA quantizer error bound.
    for residual in np.linspace(-32.0, 32.0, 401):
        cmd = build_ta_command(float(residual))
        assert abs(cmd.advance_us - residual) <= 0.26 + 1e-9

    # HARQ outstanding bound over the simulated GEO transfer.
    outstanding, peak = 0, 0
    for row in res0.trace_rows:
        _, _, _, kind, detail = row
        if kind == TX_START and detail.startswith("harq_data"):
            outstanding += 1
            peak = max(peak, outstanding)
        elif kind == RX_ARRIVAL and detail.startswith("harq_ack"):
            outstanding -= 1
    assert 1 <= peak <= cfg0.harq.n_processes

    # Timer start offset cuts monitoring time by attempts * offset exactly.
    no_offset = json.loads(json.dumps(clean))
    no_offset["timers"]["ntn_start_offset_ms"] = 0.0
    base = run_scenario(load_config_dict(no_offset), seed=1)
    offset = clean["timers"]["ntn_start_offset_ms"]
    saved = base.report.monitoring_time_ms - res0.report.monitoring_time_ms
    assert saved == pytest.approx(res0.report.access_attempts * offset, abs=1e-6)

    # RLC ARQ outruns two-process HARQ on the GEO RTT, and the simulated
    # engine agrees with the formulas within 2 percent.
    rtt = BentPipeChannel.at(GEO_ALTITUDE_KM, 10.0, 10.0).rtt_ms
    tbs, tti, window = 1000.0, 4.0, 16
    harq_rate = harq_throughput(rtt, tbs, HarqConfig(n_processes=2), proc_delay_ms=tti)
    rlc_rate = rlc_arq_throughput(rtt, window, tbs, tti)
    assert rlc_rate > harq_rate

    from ntnsim.engine import harq_transfer, rlc_transfer
    from ntnsim.events import Simulator, us_to_ms

    n = 64
    sim_h = Simulator()
    end_h = harq_transfer(sim_h, 0, n, 2, tti, rtt)
    sim_r = Simulator()
    end_r = rlc_transfer(sim_r, 0, n, window, tti, rtt)
    sim_harq_rate = n * tbs / (us_to_ms(end_h) / 1000.0)
    sim_rlc_rate = n * tbs / (us_to_ms(end_r) / 1000.0)
    assert sim_harq_rate == pytest.approx(harq_rate, rel=0.02)
    assert sim_rlc_rate == pytest.approx(rlc_rate, rel=0.02)
    assert sim_rlc_rate > sim_harq_rate
    _ok("criterion 9: protocol invariant suite")
    assert geo_cfg.access is not None


def test_c10_determinism(config_dir):
    for name in ("geo_sband.json", "leo600_sband.json"):
        cfg = load_config(config_dir / name)
        a = run_scenario(cfg, seed=42)
        b = run_scenario(cfg, seed=42)
        assert json.dumps(a.report.to_dict(), sort_keys=True) == json.dumps(
            b.report.to_dict(), sort_keys=True
        )
        assert a.trace_rows == b.trace_rows
    _ok("criterion 10: equal seeds give byte-identical reports and traces")


def test_c11_cell_selection_trials():
    import random

    rng = random.Random(2024)
    base = LinkBudgetParams(
        eirp_dbw=26.6, g_over_t_db_k=-31.6, bandwidth_hz=180e3, fspl_db=160.0
    )
    sat_anchor = GroundPosition(0.0, 0.0)
    sat = satellite_state_over(sat_anchor, LEO_ALTITUDE_KM)
    wins = 0
    trials = 1000
    for _ in range(trials):
        device = GroundPosition(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        centers = [
            GroundPosition(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            for _ in range(rng.randint(2, 6))
        ]
        cands = [
            CellCandidate(
                cell_id=f"c{i}", cell_center=c, max_rtt_ms=30.0, estimated_rtt_ms=10.0
            )
            for i, c in enumerate(centers)
        ]
        ranked = rank_cells(device, cands)
        snrs = [cell_model_snr(device, sat, c.cell_center, base, FC_HZ) for c in cands]
        best = max(snrs)
        chosen = snrs[int(ranked[0].cell_id[1:])]
        if chosen >= best - 1e-12:
            wins += 1
    assert wins == trials

    # Inclusive suitability boundary.
    boundary = CellCandidate(
        cell_id="b", cell_center=sat_anchor, max_rtt_ms=25.8, estimated_rtt_ms=25.8
    )
    assert cell_suitability(boundary)
    over = CellCandidate(
        cell_id="b", cell_center=sat_anchor, max_rtt_ms=25.8, estimated_rtt_ms=25.8001
    )
    assert not cell_suitability(over)
    _ok("criterion 11: distance rank-1 cell is SNR-optimal in 1000/1000 trials")
