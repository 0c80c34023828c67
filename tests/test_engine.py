import io
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim import engine
from ntnsim.config import MAX_TRANSFER_UNITS, ObserverCfg, load_config, load_config_dict
from ntnsim.constants import SPEED_OF_LIGHT_KM_S
from ntnsim.engine import (
    MetricsReport,
    harq_transfer,
    rlc_transfer,
    run_scenario,
)
from ntnsim.errors import ConfigError, DomainError
from ntnsim.events import RX_ARRIVAL, TIMER_FIRE, TX_START, Simulator, ms_to_us, ms_to_us_array
from ntnsim.events import us_to_ms
from ntnsim.geometry import (
    MAX_SWEEP_STEPS,
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    ServiceInterval,
    earth_fixed_beam_schedule,
    ground_track,
    overhead_pass_orbit,
    slant_range,
    visibility_duration,
)
from ntnsim.protocol import (
    BentPipeChannel,
    HarqConfig,
    harq_throughput,
    reception_ok,
    repetition_gain_db,
    rlc_arq_throughput,
)


def test_event_queue_fifo_at_equal_times():
    sim = Simulator()
    sim.schedule(100, TIMER_FIRE, "a")
    sim.schedule(100, TIMER_FIRE, "b")
    sim.schedule(50, TIMER_FIRE, "c")
    sim.run()
    assert sim.trace_rows() == [
        (0.05, 2, "c", "timer_fire", ""),
        (0.1, 0, "a", "timer_fire", ""),
        (0.1, 1, "b", "timer_fire", ""),
    ]


def test_event_logged_before_a_later_timed_one_sorts_into_place():
    sim = Simulator()
    sim.schedule(10_000, RX_ARRIVAL, "bs", "late")
    sim.schedule(5_000, TX_START, "device", "early")
    sim.schedule(10_000, TIMER_FIRE, "device", "late_too")
    sim.run()
    assert [(row[0], row[1], row[4]) for row in sim.trace_rows()] == [
        (5.0, 1, "early"),
        (10.0, 0, "late"),
        (10.0, 2, "late_too"),
    ]


def test_repetition_gain():
    assert repetition_gain_db(1) == 0.0
    assert repetition_gain_db(4) == pytest.approx(10.0 * math.log10(4.0))
    with pytest.raises(DomainError):
        repetition_gain_db(0)


def test_reception_threshold_inclusive():
    assert reception_ok(-14.5, 1, -14.5)
    assert not reception_ok(-14.51, 1, -14.5)
    assert reception_ok(-20.0, 4, -14.5) == (-20.0 + 10 * math.log10(4) >= -14.5)


def test_harq_transfer_matches_throughput_formula():
    # Long-RTT regime: both processes ping-pong and the formula rate is
    # n * tbs / (rtt + tti + ack_proc) once the pipe is full.
    rtt, tti, tbs, n_blocks = 541.0, 4.0, 1000.0, 40
    sim = Simulator()
    end = harq_transfer(sim, 0, n_blocks, 2, tti, rtt, ack_processing_ms=0.0)
    sim.run()
    simulated = n_blocks * tbs / (us_to_ms(end) / 1000.0)
    formula = harq_throughput(rtt, tbs, HarqConfig(n_processes=2), proc_delay_ms=tti)
    assert simulated == pytest.approx(formula, rel=0.02)


def test_harq_outstanding_bound_never_exceeded():
    rtt, tti = 100.0, 4.0
    for n_proc in (1, 2):
        sim = Simulator()
        harq_transfer(sim, 0, 25, n_proc, tti, rtt)
        sim.run()
        outstanding = 0
        peak = 0
        for _, _, _, kind, detail in sim.trace_rows():
            if kind == TX_START and detail.startswith("harq_data"):
                outstanding += 1
                peak = max(peak, outstanding)
            elif kind == RX_ARRIVAL and detail.startswith("harq_ack"):
                outstanding -= 1
        assert peak == n_proc


def test_rlc_transfer_matches_throughput_formula():
    rtt, tti, pdu, window = 541.0, 4.0, 1000.0, 16
    n_pdus = window * 10
    sim = Simulator()
    end = rlc_transfer(sim, 0, n_pdus, window, tti, rtt)
    sim.run()
    simulated = n_pdus * pdu / (us_to_ms(end) / 1000.0)
    formula = rlc_arq_throughput(rtt, window, pdu, tti)
    assert simulated == pytest.approx(formula, rel=1e-9)


def harq_end_us(n_blocks, n_processes, tti_ms, rtt_ms, ack_ms):
    """End of a HARQ transfer started at 0, in integer us.  With T the TTI,
    h the hop and R' = 2h + ACK processing, the processes take turns in
    rounds of T + R' while R' >= (P - 1)T; otherwise the transmitter never
    waits and the last ACK comes R' after the last block."""
    tti, hop = ms_to_us(tti_ms), BentPipeChannel.one_way_us(rtt_ms)
    r = 2 * hop + ms_to_us(ack_ms)
    if r >= (n_processes - 1) * tti:
        rounds = -(-n_blocks // n_processes)
        return rounds * (tti + r) + (n_blocks - 1) % n_processes * tti
    return n_blocks * tti + r


def rlc_end_us(n_pdus, window_pdus, tti_ms, rtt_ms):
    """End of an RLC transfer started at 0, in integer us: each full window
    takes W*T + 2h, and a last partial window (N mod W)*T + 2h."""
    tti, hop = ms_to_us(tti_ms), BentPipeChannel.one_way_us(rtt_ms)
    full, rest = divmod(n_pdus, window_pdus)
    return full * (window_pdus * tti + 2 * hop) + (rest * tti + 2 * hop if rest else 0)


TTI_MS = st.floats(min_value=0.001, max_value=50.0)
RTT_MS = st.floats(min_value=0.0, max_value=1000.0)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=8),
    TTI_MS,
    RTT_MS,
    st.floats(min_value=0.0, max_value=50.0),
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_harq_transfer_ends_at_the_closed_form(n_blocks, n_processes, tti, rtt, ack, start):
    end = harq_transfer(Simulator(), start, n_blocks, n_processes, tti, rtt, ack)
    assert end == start + harq_end_us(n_blocks, n_processes, tti, rtt, ack)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=64),
    TTI_MS,
    RTT_MS,
    st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=200, deadline=None)
def test_rlc_transfer_ends_at_the_closed_form(n_pdus, window, tti, rtt, start):
    end = rlc_transfer(Simulator(), start, n_pdus, window, tti, rtt)
    assert end == start + rlc_end_us(n_pdus, window, tti, rtt)


@pytest.mark.parametrize(
    "n_processes, end_us",
    [(2, 2 * (1000 + 2000) + 1000), (8, 4 * 1000 + 2000)],
    ids=["processes_wait", "transmitter_bound"],
)
def test_harq_closed_form_covers_both_regimes(n_processes, end_us):
    """Four blocks, a 1 ms TTI and a 2 ms round trip: two processes wait
    for their ACKs (two rounds of T + R', then one TTI); eight never do."""
    assert harq_transfer(Simulator(), 0, 4, n_processes, 1.0, 2.0) == end_us
    assert harq_end_us(4, n_processes, 1.0, 2.0, 0.0) == end_us


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=10.0, max_value=600.0),
)
@settings(max_examples=30, deadline=None)
def test_rlc_transfer_monotone_in_rtt(n_pdus, window, rtt):
    sim1, sim2 = Simulator(), Simulator()
    end1 = rlc_transfer(sim1, 0, n_pdus, window, 4.0, rtt)
    end2 = rlc_transfer(sim2, 0, n_pdus, window, 4.0, rtt + 50.0)
    assert end2 >= end1


def test_rlc_transfer_rejects_an_empty_window():
    with pytest.raises(DomainError):
        rlc_transfer(Simulator(), 0, 5, 0, 4.0, 10.0)


OUT_OF_US_RANGE = "event time outside the int64 us range"


@pytest.mark.parametrize("t_ms", [2.0**62 / 1000, -1e300, math.inf, math.nan])
def test_ms_to_us_rejects_what_its_array_form_rejects(t_ms):
    for convert in (ms_to_us, lambda t: ms_to_us_array(np.array([t]))):
        with pytest.raises(DomainError, match=OUT_OF_US_RANGE):
            convert(t_ms)
    assert ms_to_us(2.0**62 / 1000 - 1.0) == ms_to_us_array(np.array([2.0**62 / 1000 - 1.0]))[0]


@pytest.mark.parametrize("tti_ms, rtt_ms", [(1e300, 10.0), (10.0, 1e300), (4e15, 10.0)])
def test_a_transfer_past_the_us_range_is_rejected(tti_ms, rtt_ms):
    """4e15 ms is in range; four TTIs of it are not."""
    with pytest.raises(DomainError, match=OUT_OF_US_RANGE):
        harq_transfer(Simulator(), 0, 4, 1, tti_ms, rtt_ms)
    with pytest.raises(DomainError, match=OUT_OF_US_RANGE):
        rlc_transfer(Simulator(), 0, 4, 4, tti_ms, rtt_ms)


# One schedule call per event, with every time worked out from start_us by
# stepping through the processes or windows: the oracle that the closed-form
# templates of engine._harq_events and _rlc_events must match.
def harq_transfer_reference(
    sim, start_us, n_blocks, n_processes, tti_ms, rtt_ms, ack_processing_ms=0.0
):
    if n_blocks < 1 or n_processes < 1:
        raise DomainError("need at least one block and one process")
    tti = ms_to_us(tti_ms)
    one_way = ms_to_us(rtt_ms / 2)  # service + feeder, as the access hop
    ack_proc = ms_to_us(ack_processing_ms)
    proc_free = [start_us] * n_processes
    tx_free = start_us
    last_ack = start_us
    for block in range(n_blocks):
        p = min(range(n_processes), key=lambda i: proc_free[i])
        t_tx = max(tx_free, proc_free[p])
        sim.schedule(t_tx, TX_START, "device", f"harq_data block={block} proc={p}")
        tx_end = t_tx + tti
        tx_free = tx_end
        data_arr = tx_end + one_way
        sim.schedule(data_arr, RX_ARRIVAL, "bs", f"harq_data block={block} proc={p}")
        ack_tx = data_arr + ack_proc
        sim.schedule(ack_tx, TX_START, "bs", f"harq_ack block={block} proc={p}")
        ack_arr = ack_tx + one_way
        sim.schedule(ack_arr, RX_ARRIVAL, "device", f"harq_ack block={block} proc={p}")
        proc_free[p] = ack_arr
        last_ack = max(last_ack, ack_arr)
    return last_ack


def rlc_transfer_reference(sim, start_us, n_pdus, window_pdus, tti_ms, rtt_ms):
    if n_pdus < 1:
        raise DomainError("need at least one PDU")
    tti = ms_to_us(tti_ms)
    one_way = ms_to_us(rtt_ms / 2)  # service + feeder, as the access hop
    t = start_us
    sent = 0
    while sent < n_pdus:
        batch = min(window_pdus, n_pdus - sent)
        for j in range(batch):
            tx = t + j * tti
            sim.schedule(tx, TX_START, "device", f"rlc_pdu sn={sent + j}")
            sim.schedule(tx + tti + one_way, RX_ARRIVAL, "bs", f"rlc_pdu sn={sent + j}")
        last_arr = t + batch * tti + one_way
        sim.schedule(last_arr, TX_START, "bs", f"rlc_status upto={sent + batch}")
        status_arr = last_arr + one_way
        sim.schedule(status_arr, RX_ARRIVAL, "device", f"rlc_status upto={sent + batch}")
        sent += batch
        t = status_arr
    return t


rtts = st.floats(min_value=0.0, max_value=600.0)
transfers = st.one_of(
    # (harq?, units, processes or window, tti_ms, rtt_ms, ack_processing_ms)
    st.tuples(st.just(True), st.integers(1, 40), st.integers(1, 3),
              st.floats(0.001, 20.0), rtts, st.floats(0.0, 20.0)),
    st.tuples(st.just(False), st.integers(1, 60), st.integers(1, 20),
              st.floats(0.001, 20.0), rtts, st.just(0.0)),
)


def _transfer(sim, start_us, params, reference):
    harq, units, width, tti, rtt, ack = params
    if harq:
        fn = harq_transfer_reference if reference else harq_transfer
        return fn(sim, start_us, units, width, tti, rtt, ack)
    fn = rlc_transfer_reference if reference else rlc_transfer
    return fn(sim, start_us, units, width, tti, rtt)


@given(
    prefix=st.lists(st.integers(0, 10**7), min_size=1, max_size=5),
    first=transfers,
    second=transfers,
    start_us=st.integers(0, 10**9),
    overlap=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_transfer_replay_matches_per_event_loop(prefix, first, second, start_us, overlap):
    """Two transfers with different parameters, the second starting while
    the first runs, after some unrelated events, and the first again (its
    template rebuilt at a new start): the same trace and end times as the
    loops."""
    if first == second:
        second = (*second[:3], second[3] + 1.0, *second[4:])
    traces, ends = [], []
    for reference in (True, False):
        sim = Simulator()
        for k, t in enumerate(prefix):
            sim.schedule(t, TIMER_FIRE, "device", f"before {k}")
        end1 = _transfer(sim, start_us, first, reference)
        start2 = start_us + int(overlap * (end1 - start_us))
        end2 = _transfer(sim, start2, second, reference)
        end3 = _transfer(sim, end2, first, reference)
        sim.run()
        traces.append(sim.trace_rows())
        ends.append((end1, end2, end3))
    assert traces[1] == traces[0]
    assert ends[1] == ends[0]


def _logged(transfer, *args):
    """(trace rows, end) of one transfer logged at 7 us."""
    sim = Simulator()
    end = transfer(sim, 7, *args)
    sim.run()
    return sim.trace_rows(), end


BEYOND_THE_UNITS = pytest.mark.parametrize(
    "beyond", [lambda n: n + 1, lambda n: n + 7, lambda n: 2**70], ids=["n+1", "n+7", "2**70"]
)


@pytest.mark.parametrize("n_units", [1, 5, 9])
@BEYOND_THE_UNITS
def test_rlc_window_beyond_the_pdu_count_matches_the_loop(n_units, beyond):
    """A window wider than the transfer (up to 2**70, which no int64 holds)
    sends every PDU back to back, as the loop does."""
    expected = _logged(rlc_transfer_reference, n_units, beyond(n_units), 3.0, 541.0)
    assert _logged(rlc_transfer, n_units, beyond(n_units), 3.0, 541.0) == expected


@pytest.mark.parametrize("n_units", [1, 5, 9])
@BEYOND_THE_UNITS
def test_harq_processes_beyond_the_block_count_match_the_loop(n_units, beyond):
    """More processes than blocks: block b runs on process b, none waits.
    The loop keeps a list slot per process, so it runs with n_units + 1 of
    them, which gives the same trace as any larger count."""
    expected = _logged(harq_transfer_reference, n_units, n_units + 1, 3.0, 541.0, 2.0)
    assert _logged(harq_transfer, n_units, beyond(n_units), 3.0, 541.0, 2.0) == expected


@pytest.mark.parametrize("n_processes", [2, 3])
@pytest.mark.parametrize("ack_us", [-1, 0, 1], ids=["below", "at", "above"])
def test_harq_regime_boundary_matches_the_loop(n_processes, ack_us):
    """2h + A against (P - 1)T, exactly and 1 us either side: T = 4 ms,
    h = 1.5 ms, and A = (P - 1)T - 2h + ack_us."""
    tti_ms, rtt_ms = 4.0, 3.0
    ack_ms = ((n_processes - 1) * 4000 - 3000 + ack_us) / 1000
    args = (11, n_processes, tti_ms, rtt_ms, ack_ms)
    rows, end = _logged(harq_transfer, *args)
    assert (rows, end) == _logged(harq_transfer_reference, *args)
    assert end == 7 + harq_end_us(*args)


def test_harq_with_a_zero_us_round_trip_matches_the_loop():
    """A TTI that rounds to 0 us, no hop and no ACK processing: every ACK
    arrives as its block is sent, so process 0 takes each block."""
    args = (5, 2, 0.0004, 0.0, 0.0)
    rows, end = _logged(harq_transfer, *args)
    assert (rows, end) == _logged(harq_transfer_reference, *args)
    assert {row[4].split()[-1] for row in rows} == {"proc=0"}


def test_beam_schedule_static_geo():
    geo = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
    intervals = earth_fixed_beam_schedule([geo], GroundPosition(30.0, 0.0), 10.0)
    assert intervals == [ServiceInterval(0.0, math.inf, 0)]
    # A cell the satellite cannot see gets no service.
    assert earth_fixed_beam_schedule([geo], GroundPosition(85.0, 0.0), 10.0) == []
    # Nor does any cell of an empty constellation.
    assert earth_fixed_beam_schedule([], GroundPosition(30.0, 0.0), 10.0) == []


def test_beam_schedule_leo_switch():
    obs = GroundPosition(0.0, 0.0)
    first = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=1500.0)
    second = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=2100.0)
    intervals = earth_fixed_beam_schedule(
        [first, second], obs, 10.0, horizon_s=3000.0, step_s=5.0
    )
    assert len(intervals) >= 2
    served_by = [iv.satellite_index for iv in intervals]
    assert 0 in served_by and 1 in served_by
    for a, b in zip(intervals, intervals[1:]):
        assert a.end_s <= b.start_s + 1e-9


@pytest.mark.parametrize(
    "horizon_s, step_s",
    [
        (-5.0, 1.0),
        (100.0, 0.0),
        (100.0, -1.0),
        (None, 0.0),
        (math.nan, 1.0),
        (math.inf, 1.0),
        (100.0, math.nan),
        (100.0, math.inf),
        (None, math.nan),
        (None, math.inf),
        (1e300, 1.0),
        (100.0, 1e-300),
    ],
)
def test_sweeps_reject_a_non_positive_horizon_or_step(horizon_s, step_s):
    obs = GroundPosition(0.0, 0.0)
    leo = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 90.0, obs, overhead_at_s=1500.0)
    with pytest.raises(DomainError):
        earth_fixed_beam_schedule([leo], obs, 10.0, horizon_s=horizon_s, step_s=step_s)
    with pytest.raises(DomainError):
        ground_track(leo, 100.0 if horizon_s is None else horizon_s, step_s)
    if not 0 < step_s < math.inf or leo.period_s() / step_s > MAX_SWEEP_STEPS:
        with pytest.raises(DomainError):
            visibility_duration(leo, obs, 10.0, step_s=step_s)


@pytest.mark.parametrize(
    "harq, public, template",
    [(True, "harq_transfer", "_harq_events"), (False, "rlc_transfer", "_rlc_events")],
    ids=["harq", "rlc"],
)
def test_run_scenario_logs_the_public_transfers_template_per_delivered_message(
    config_dir, monkeypatch, harq, public, template
):
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["harq"]["enabled"] = harq
    data["traffic"]["n_messages"] = 60
    data["channel"]["fading_sigma_db"] = 12.0
    calls = {"_harq_events": [], "_rlc_events": []}
    for name, seen in calls.items():
        def spy(*args, _original=getattr(engine, name), _seen=seen):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(engine, name, spy)
    result = run_scenario(load_config_dict(data), seed=3)
    report = result.report
    # Some attempts fade out and transfer nothing.  Access succeeds only when
    # the uplink closes, so every success passes the data SNR check.
    assert "data_snr" not in report.failure_causes
    assert 0 < report.access_successes < report.access_attempts
    assert [name for name, seen in calls.items() if seen] == [template]
    (args,) = calls[template]
    # The public transfer with run_scenario's arguments logs the same
    # template; the trace holds it once per delivered message.
    sim = Simulator()
    getattr(engine, public)(sim, 0, *args)
    assert calls[template][1] == args
    first = sim.trace_rows()[0][2:]
    assert [row[2:] for row in result.trace_rows].count(first) == report.access_successes


@pytest.mark.parametrize("harq", [True, False], ids=["harq", "rlc"])
@pytest.mark.parametrize(
    "name, elevation_deg", [("leo600_sband", 20.0), ("geo_sband", 30.0)], ids=["leo", "geo"]
)
def test_access_and_transfer_hops_take_the_same_us(config_dir, name, elevation_deg, harq):
    """One link, one one-way delay: every Msg1 hop and every data hop (TTI
    left out) of a trace takes ms_to_us(service + feeder).  Here both
    links sit at one elevation and that sum's us fraction lies in
    [0.5, 0.75), where half the rounded RTT, floored, is 1 us shorter."""
    data = json.loads((config_dir / f"{name}.json").read_text())
    data["access"].update(service_elevation_deg=elevation_deg, feeder_elevation_deg=elevation_deg)
    data["harq"]["enabled"] = harq
    config = load_config_dict(data)
    altitude_km = config.constellation[0].altitude_km
    hop_ms = slant_range(elevation_deg, altitude_km) / SPEED_OF_LIGHT_KM_S * 1000.0
    assert 0.5 <= (hop_ms + hop_ms) * 1000.0 % 1.0 < 0.75
    want = ms_to_us(hop_ms + hop_ms)
    data_kind = "harq_data" if harq else "rlc_pdu"
    sent, hops = {}, {"msg1_preamble": [], data_kind: []}
    # Attempts do not overlap, so each arrival belongs to the last send of
    # its message; Msg1's arrival adds the residual to the detail.
    for t_ms, _, _, kind, detail in run_scenario(config, seed=1).trace_rows:
        message = detail.split(" residual_us=")[0]
        if message.partition(" ")[0] in hops:
            if kind == "tx_start":
                sent[message] = ms_to_us(t_ms)
            else:
                hops[message.partition(" ")[0]].append(ms_to_us(t_ms) - sent.pop(message))
    # A data hop starts at the end of its TTI.
    tti = ms_to_us(config.transfer.tti_ms)
    assert hops["msg1_preamble"] and hops[data_kind]
    assert set(hops["msg1_preamble"]) == {want}
    assert set(hops[data_kind]) == {tti + want}


MINIMAL = {
    "name": "unit",
    "constellation": [{"kind": "leo_circular", "altitude_km": 600.0}],
    "carrier_frequency_hz": 2.0e9,
    "traffic": {"message_size_bits": 2000.0, "inter_arrival_ms": 3000.0, "n_messages": 3},
    "access": {"max_rtt_ms": 26.0},
    "timers": {"ntn_start_offset_ms": 26.0},
}


def test_run_scenario_deterministic_per_seed():
    cfg = load_config_dict(json.loads(json.dumps(MINIMAL)))
    r1 = run_scenario(cfg, seed=7)
    r2 = run_scenario(cfg, seed=7)
    assert r1.report.to_dict() == r2.report.to_dict()
    assert r1.trace_rows == r2.trace_rows


@pytest.mark.parametrize("seed", [-7, -1, 2**64, 2**64 + 7])
def test_run_scenario_rejects_a_seed_outside_u64(seed):
    """random.Random seeds with abs(seed), so -7 would run seed 7 and report
    -7; the API takes the config's and the CLI's seed range."""
    cfg = load_config_dict(json.loads(json.dumps(MINIMAL)))
    with pytest.raises(DomainError, match=re.escape(f"seed {seed} outside [0, 2**64)")):
        run_scenario(cfg, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_run_scenario_runs_the_ends_of_the_seed_range(seed):
    cfg = load_config_dict(json.loads(json.dumps(MINIMAL)))
    assert run_scenario(cfg, seed=seed).report.seed == seed


def _gauss_draws(seed, n, sigmas):
    """The draw oracle: ``gauss`` called message by message and sigma by
    sigma, a sigma of 0 drawing nothing."""
    gauss = random.Random(seed).gauss
    return np.array([
        gauss(0.0, sigma) if sigma > 0 else 0.0 for _ in range(n) for sigma in sigmas
    ]).reshape(n, len(sigmas))


SIGMAS = st.sampled_from([0.0, 5e-324, 1e-300, 6.0, 50.0, 1e300])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 2000), st.tuples(SIGMAS, SIGMAS))
def test_message_draws_are_the_gauss_stream_bit_for_bit(seed, n, sigmas):
    got = engine._message_draws(seed, n, sigmas)
    assert got.shape == (n, 2)
    np.testing.assert_array_equal(got.view(np.int64), _gauss_draws(seed, n, sigmas).view(np.int64))


def test_message_draws_match_the_gauss_stream_over_200001_messages():
    sigmas = (3000.0, 6.0)
    got = engine._message_draws(2**63 + 1, 200_001, sigmas)
    np.testing.assert_array_equal(
        got.view(np.int64), _gauss_draws(2**63 + 1, 200_001, sigmas).view(np.int64)
    )


def test_start_times_beyond_the_int64_us_range_raise():
    data = json.loads(json.dumps(MINIMAL))
    data["traffic"]["inter_arrival_ms"] = 1e16  # the third message starts at 2e19 us
    with pytest.raises(DomainError, match="int64"):
        run_scenario(load_config_dict(data))


def test_absent_or_null_observer_loads_as_the_origin():
    data = json.loads(json.dumps(MINIMAL))
    assert load_config_dict(data).observer == ObserverCfg(0.0, 0.0)
    data["observer"] = None
    assert load_config_dict(data).observer == ObserverCfg(0.0, 0.0)


def test_orbits_and_observer_load_as_the_domain_types():
    data = json.loads(json.dumps(MINIMAL))
    data["observer"] = {"latitude_deg": 10.0, "longitude_deg": 540.0}
    cfg = load_config_dict(data)
    assert isinstance(cfg.constellation[0], OrbitSpec)
    assert isinstance(cfg.observer, GroundPosition)
    # GroundPosition's own check ran at load and normalised the longitude.
    assert cfg.observer.longitude_deg == 180.0


def test_orbit_altitude_stays_required_though_orbit_spec_has_a_default():
    data = json.loads(json.dumps(MINIMAL))
    del data["constellation"][0]["altitude_km"]
    with pytest.raises(ConfigError) as exc:
        load_config_dict(data)
    assert exc.value.fields == ["config.constellation[0].altitude_km: missing required field"]


def test_run_scenario_requires_access_and_traffic():
    bare = {k: v for k, v in MINIMAL.items() if k not in ("access", "traffic")}
    cfg = load_config_dict(bare)
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_run_scenario_all_messages_succeed_on_clean_channel():
    cfg = load_config_dict(json.loads(json.dumps(MINIMAL)))
    result = run_scenario(cfg, seed=3)
    assert result.report.access_attempts == 3
    assert result.report.access_successes == 3
    assert result.report.goodput_bps > 0
    assert result.report.failure_causes == {}


def test_run_scenario_dropped_preamble_counts_rar_timeouts():
    data = json.loads(json.dumps(MINIMAL))
    data["channel"] = {"drop_kinds": ["msg1_preamble"]}
    data["access"]["rar_window_length_ms"] = 100.0
    cfg = load_config_dict(data)
    result = run_scenario(cfg, seed=3)
    assert result.report.access_successes == 0
    assert result.report.failure_causes == {"rar_timeout": 3}


def test_report_sums_are_exact_beyond_int64(config_dir):
    """Ten RAR windows of 1e15 ms add to 1e19 us, past the int64 range; the
    report adds them in Python ints."""
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["access"]["rar_window_length_ms"] = 1e15
    data["channel"]["drop_kinds"] = ["msg1_preamble"]
    data["traffic"]["n_messages"] = 10
    report = run_scenario(load_config_dict(data)).report
    assert report.failure_causes == {"rar_timeout": 10}
    assert report.monitoring_time_ms == 1e16


def test_config_unknown_field_and_type_errors_collected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["bogus"] = 1
    bad["traffic"]["n_messages"] = "three"
    with pytest.raises(ConfigError) as exc:
        load_config_dict(bad)
    joined = " ".join(exc.value.fields)
    assert "bogus" in joined and "n_messages" in joined


def test_config_rejects_an_integer_beyond_the_float_range():
    bad = json.loads(json.dumps(MINIMAL))
    bad["carrier_frequency_hz"] = 10**400
    with pytest.raises(ConfigError, match="carrier_frequency_hz: expected a finite number"):
        load_config_dict(bad)


def test_config_rejects_out_of_range_values():
    bad = json.loads(json.dumps(MINIMAL))
    bad["constellation"][0]["altitude_km"] = 100.0
    with pytest.raises(ConfigError):
        load_config_dict(bad)


def test_transfer_unit_bound_counts_blocks_or_pdus():
    data = json.loads(json.dumps(MINIMAL))
    data["transfer"] = {"tbs_bits": 1000.0, "rlc_pdu_bits": 10.0}
    data["traffic"]["message_size_bits"] = 1000.0 * MAX_TRANSFER_UNITS
    assert load_config_dict(data).transfer_units() == MAX_TRANSFER_UNITS
    data["harq"] = {"enabled": False}  # now counted in 10-bit PDUs
    with pytest.raises(ConfigError, match="more than 1000000 transfer units"):
        load_config_dict(data)
    data["harq"] = {"enabled": True}
    data["traffic"]["message_size_bits"] += 1.0
    with pytest.raises(ConfigError, match="more than 1000000 transfer units"):
        load_config_dict(data)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")


def test_bundled_configs_load(config_dir):
    for name in (
        "geo_sband.json",
        "leo600_sband.json",
        "inclined_geo.json",
        "beam_profile.json",
    ):
        cfg = load_config(config_dir / name)
        assert cfg.constellation


def test_past_2_33_ms_the_csv_prints_the_exact_us(config_dir):
    """The CSV prints each time's exact integer us; ``trace_rows`` gives the
    float ``time_us / 1000``, which prints the same at 6 places only below
    2**33 ms.  Message 3 of a 3e9 ms spacing sends Msg3 at 9000000038.228 ms."""
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["traffic"].update(inter_arrival_ms=3e9, n_messages=5)
    result = run_scenario(load_config_dict(data))
    out = io.StringIO()
    result.trace.write_csv(out)
    line = "9000000038.228000,76,device,tx_start,msg3 reported_delay_ms=6.4"
    assert line in out.getvalue().splitlines()
    (row,) = [row for row in result.trace_rows if row[1] == 76]
    assert f"{row[0]:.6f}" == "9000000038.228001"
