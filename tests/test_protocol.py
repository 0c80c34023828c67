import json
import math
from pathlib import Path

import pytest
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from ntnsim.config import load_config, load_config_dict
from ntnsim.constants import SPEED_OF_LIGHT_KM_S
from ntnsim.engine import run_scenario
from ntnsim.errors import DomainError, NotReachableError
from ntnsim.events import MEASUREMENT, RX_ARRIVAL, TIMER_FIRE, TX_START, Simulator, ms_to_us
from ntnsim.events import record
from ntnsim.geometry import (
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    geometry_sample,
    geometry_samples,
    overhead_pass_orbit,
    propagate_many,
    satellite_state_over,
)
from ntnsim.protocol import (
    AccessTiming,
    BentPipeChannel,
    CR_TIMEOUT,
    DeviceContext,
    Ephemeris,
    HarqConfig,
    MessageKind,
    RAR_TIMEOUT,
    REPORTED_DELAY_QUANTUM_MS,
    RrcState,
    SystemInformation,
    TA_BIPOLAR_RANGE_US,
    TA_RANGE,
    TA_STEP_US,
    TimerConfig,
    TimerEvent,
    access_attempts,
    apply_timer_rules,
    autonomous_ta_update,
    build_ta_command,
    delay_residual,
    doppler_precompensation,
    estimate_service_delay,
    harq_throughput,
    precompensate_preamble,
    quantize_ta,
    rlc_arq_throughput,
    run_random_access,
    schedule_rar_window,
)
from ntnsim.protocol import _SLOT_RECORDS, _SLOTS, _STAGES, _TEMPLATE_SIZES, _TEMPLATE_SLOTS
from ntnsim.protocol import _TEMPLATE_STARTS
from ntnsim.protocol import (
    CR_EXPIRY, MSG1_RX, MSG1_TX, MSG2_RX, MSG2_TX, MSG3_RX, MSG3_TX, MSG4_RX, MSG4_TX,
    RAR_EXPIRY, TA_OUT,
)

GEO = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
OBS = GroundPosition(0.0, 0.0)


def _si(max_rtt_ms=545.0):
    return SystemInformation(
        ephemeris=Ephemeris(orbits=(GEO,)),
        max_rtt_ms=max_rtt_ms,
    )


def _channel(service=135.0, feeder=135.0, **kw):
    return BentPipeChannel(service_delay_ms=service, feeder_delay_ms=feeder, **kw)


def _run(channel, si=None, timers=None, delay_est_ms=None, sim=None, start_ms=0.0):
    return run_random_access(
        DeviceContext(gnss_position=OBS),
        si or _si(),
        channel,
        timers=timers or TimerConfig(),
        timing=AccessTiming(),
        sim=sim,
        start_ms=start_ms,
        delay_est_ms=delay_est_ms,
    )


def test_preamble_precompensation_doubles_service_delay():
    assert precompensate_preamble(120.5) == pytest.approx(241.0)
    with pytest.raises(DomainError):
        precompensate_preamble(-1.0)


@given(st.floats(min_value=-32.0, max_value=32.0))
def test_ta_quantizer_error_bounded(residual):
    cmd = build_ta_command(residual)
    assert abs(cmd.advance_us - residual) <= TA_STEP_US / 2.0 + 1e-12


def test_ta_command_range():
    build_ta_command(TA_BIPOLAR_RANGE_US)
    build_ta_command(-TA_BIPOLAR_RANGE_US)
    with pytest.raises(DomainError):
        build_ta_command(TA_BIPOLAR_RANGE_US + 0.01)


def test_ta_command_bipolar_sign():
    assert build_ta_command(-5.2).steps == -10
    assert build_ta_command(5.2).steps == 10
    assert build_ta_command(0.0).steps == 0


def test_rar_window_shifted_by_max_rtt():
    start, end = schedule_rar_window(100.0, 541.0, processing_delay_ms=4.0, window_length_ms=10240.0)
    assert start == pytest.approx(100.0 + 541.0 + 4.0)
    assert end - start == pytest.approx(10240.0)


def test_channel_rtt_sums_both_hops():
    """A link built at the elevations a device and a gateway see holds
    the geometry's one-way delays; the RTT is both, there and back."""
    obs = GroundPosition(0.0, 0.0)
    gw = GroundPosition(5.0, 5.0)
    sat = satellite_state_over(obs, 600.0)
    service = geometry_sample(sat, obs, 2e9)
    feeder = geometry_sample(sat, gw, 2e9)
    link = BentPipeChannel.at(600.0, service.elevation_deg, feeder.elevation_deg)
    assert link.service_delay_ms == pytest.approx(service.one_way_delay_ms, rel=1e-9)
    assert link.feeder_delay_ms == pytest.approx(feeder.one_way_delay_ms, rel=1e-9)
    assert link.rtt_ms == 2.0 * (link.service_delay_ms + link.feeder_delay_ms)
    with pytest.raises(DomainError):
        BentPipeChannel.at(600.0, service.elevation_deg, -1.0)


@given(st.floats(0.0, 300.0), st.floats(0.0, 300.0))
def test_one_way_us_rounds_the_sum_of_both_hops(service, feeder):
    link = BentPipeChannel(service, feeder)
    assert link.one_way_us(link.rtt_ms) == ms_to_us(service + feeder)


def test_estimate_service_delay_matches_geometry():
    device = DeviceContext(gnss_position=OBS)
    delay = estimate_service_delay(device, Ephemeris(orbits=(GEO,)), 0.0)
    assert delay == pytest.approx(35786.0 / 299792.458 * 1000.0, rel=1e-9)


# A LEO pass overhead OBS at t = 3000 s, and an inclined GEO beside it.
LEO_PASS = overhead_pass_orbit(OrbitKind.LEO_CIRCULAR, 600.0, 53.0, OBS, overhead_at_s=3000.0)
INCLINED_GEO = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=5.0)


@pytest.mark.parametrize("staleness", [0.5, 7.25, 60.0, 2000.0])
def test_stale_ephemeris_is_the_fresh_one_at_the_earlier_time(staleness):
    device = DeviceContext(gnss_position=GroundPosition(1.0, -2.0))
    stale = Ephemeris((LEO_PASS, INCLINED_GEO), staleness)
    fresh = Ephemeris((LEO_PASS, INCLINED_GEO))
    for t in (2000.0, 2900.0, 3000.0, 3100.5, 5000.0):
        want = estimate_service_delay(device, fresh, t - staleness)
        assert estimate_service_delay(device, stale, t) == want
        want = doppler_precompensation(device, fresh, 2e9, t - staleness)
        assert doppler_precompensation(device, stale, 2e9, t) == want


@pytest.mark.parametrize("staleness", [1.0, 5.0, 20.0])
def test_stale_delay_estimate_error_is_within_the_range_rate_bound(staleness):
    """The docstring's bound, staleness * |range rate| / c, with |range rate|
    at its largest over [t - staleness, t] (on a fine grid, ends included)."""
    device, eph = DeviceContext(gnss_position=OBS), Ephemeris((LEO_PASS,), staleness)
    for t in np.arange(2850.0, 3150.0, 12.5):
        stale = estimate_service_delay(device, eph, t)
        fresh = estimate_service_delay(device, Ephemeris((LEO_PASS,)), t)
        _, _, rr = geometry_samples(*propagate_many(LEO_PASS, np.linspace(t - staleness, t, 101)), OBS)
        bound = staleness * np.abs(rr).max() / SPEED_OF_LIGHT_KM_S * 1000.0
        assert 0.0 < abs(stale - fresh) <= bound * (1.0 + 1e-9)


def test_negative_staleness_raises():
    with pytest.raises(DomainError, match="staleness must be non-negative"):
        Ephemeris((GEO,), -1.0)


def test_no_satellite_above_the_horizon_is_not_reachable():
    # The GEO at longitude 0 sets at a central angle of about 81.3 degrees.
    eph = Ephemeris(orbits=(GEO,))
    low = DeviceContext(gnss_position=GroundPosition(0.0, 81.0))  # elevation +0.31
    assert estimate_service_delay(low, eph, 0.0) > 0
    for lon in (82.0, 180.0):  # elevations -0.69 and -90
        device = DeviceContext(gnss_position=GroundPosition(0.0, lon))
        with pytest.raises(NotReachableError, match="above the horizon"):
            estimate_service_delay(device, eph, 0.0)
        with pytest.raises(NotReachableError):
            run_random_access(device, _si(), _channel())
    device, empty = DeviceContext(gnss_position=OBS), Ephemeris(orbits=())
    with pytest.raises(NotReachableError):
        estimate_service_delay(device, empty, 0.0)
    with pytest.raises(NotReachableError):
        doppler_precompensation(device, empty, 2e9, 0.0)


def test_doppler_precompensation_refuses_what_the_delay_estimate_refuses():
    # Both serve from the highest satellite above the horizon, so a fix
    # that sees none gets no Doppler offset either, and keeps its old one.
    eph = Ephemeris(orbits=(GEO,))
    low = DeviceContext(gnss_position=GroundPosition(0.0, 81.0))  # elevation +0.31
    assert doppler_precompensation(low, eph, 2e9, 0.0) == low.frequency_offset_hz
    for lon in (82.0, 180.0):  # elevations -0.69 and -90
        device = DeviceContext(gnss_position=GroundPosition(0.0, lon), frequency_offset_hz=5.0)
        with pytest.raises(NotReachableError, match="above the horizon"):
            doppler_precompensation(device, eph, 2e9, 0.0)
        assert device.frequency_offset_hz == 5.0


def test_access_success_timeline():
    si = _si(max_rtt_ms=545.0)
    ch = _channel()
    sim = Simulator()
    out = _run(ch, si=si, delay_est_ms=ch.service_delay_ms, sim=sim)
    assert out.success
    sim.run()
    # The time of each message's transmission and arrival, from the trace.
    t = {
        f"{detail[:4]}_{'tx' if kind == 'tx_start' else 'arrival'}": time_ms
        for time_ms, _, _, kind, detail in sim.trace_rows()
    }
    one_way = ch.service_delay_ms + ch.feeder_delay_ms
    assert t["msg1_arrival"] == pytest.approx(one_way)
    # Msg2 is timed so it arrives exactly at the window start.
    assert t["msg2_arrival"] == pytest.approx(si.max_rtt_ms + 4.0)
    assert t["msg3_tx"] == pytest.approx(
        t["msg2_arrival"] - one_way + si.max_rtt_ms + 8.0 - one_way
    )
    # The CR timer starts the max RTT after Msg3 (the default offset), 1 ms
    # after Msg4 could arrive, so Msg4 is held, as Msg2 is, to arrive then.
    assert t["msg3_tx"] + one_way + 4.0 + one_way < t["msg3_tx"] + si.max_rtt_ms
    assert t["msg4_arrival"] == pytest.approx(t["msg3_tx"] + si.max_rtt_ms)
    assert out.monitoring_ms == 0.0
    assert out.latency_ms == pytest.approx(t["msg4_arrival"])


def test_access_perfect_gnss_zero_residual():
    ch = _channel()
    out = _run(ch, delay_est_ms=ch.service_delay_ms)
    assert out.success
    assert out.ta_command.steps == 0


def test_access_gnss_error_produces_ta_steps():
    ch = _channel()
    # 1.5 km estimation error -> 10 us round-trip residual.
    err_ms = 1.5 / 299792.458 * 1000.0
    out = _run(ch, delay_est_ms=ch.service_delay_ms - err_ms)
    assert out.success
    expected_residual_us = 2.0 * err_ms * 1000.0
    assert out.ta_command.advance_us == pytest.approx(expected_residual_us, abs=TA_STEP_US / 2.0)


def test_access_ta_out_of_range_fails():
    ch = _channel()
    err_ms = 0.02  # 40 us round-trip residual, beyond +/-32 us.
    out = _run(ch, delay_est_ms=ch.service_delay_ms - err_ms)
    assert not out.success
    assert out.cause == TA_RANGE


def test_access_rar_timeout_on_dropped_preamble():
    ch = _channel(drop_kinds=frozenset({MessageKind.MSG1_PREAMBLE}))
    out = _run(ch, delay_est_ms=ch.service_delay_ms)
    assert not out.success
    assert out.cause == RAR_TIMEOUT
    assert out.monitoring_ms == pytest.approx(10240.0)


def test_access_cr_timeout_on_dropped_msg4():
    ch = _channel(drop_kinds=frozenset({MessageKind.MSG4_CONTENTION_RESOLUTION}))
    out = _run(ch, delay_est_ms=ch.service_delay_ms)
    assert not out.success
    assert out.cause == CR_TIMEOUT


@pytest.mark.parametrize("err_ms", [0.0, 0.01, -0.01])
def test_a_cr_timeout_keeps_the_timing_advance_that_the_rar_gave(err_ms):
    """Msg2 arrived before Msg4 was lost, so the device applies its TA
    command on top of the preamble advance, and stays idle."""
    ch = _channel(drop_kinds=frozenset({MessageKind.MSG4_CONTENTION_RESOLUTION}))
    device = DeviceContext(gnss_position=OBS, timing_advance_us=-1.0)
    delay_est_ms = ch.service_delay_ms - err_ms
    out = run_random_access(device, _si(), ch, delay_est_ms=delay_est_ms)
    assert out.cause == CR_TIMEOUT
    assert out.ta_command.steps == round(2000.0 * err_ms / TA_STEP_US)
    advance_us = precompensate_preamble(delay_est_ms) * 1000.0 + out.ta_command.advance_us
    assert device.timing_advance_us == advance_us
    assert device.rrc_state is RrcState.IDLE


def test_access_requires_idle_device():
    device = DeviceContext(gnss_position=OBS, rrc_state=RrcState.CONNECTED)
    with pytest.raises(DomainError):
        run_random_access(device, _si(), _channel(), delay_est_ms=135.0)


def test_cr_timer_rtt_offset_reduces_monitoring_exactly():
    si = _si()
    ch = _channel()
    base = _run(ch, si=si, timers=TimerConfig(ntn_start_offset_ms=0.0), delay_est_ms=ch.service_delay_ms)
    offset = ch.rtt_ms
    shifted = _run(
        ch,
        si=si,
        timers=TimerConfig(ntn_start_offset_ms=offset),
        delay_est_ms=ch.service_delay_ms,
    )
    assert base.success and shifted.success
    assert base.latency_ms == shifted.latency_ms
    assert base.monitoring_ms - shifted.monitoring_ms == pytest.approx(offset, abs=1e-3)


def test_timer_config_caps():
    with pytest.raises(DomainError):
        TimerConfig(contention_resolution_ms=10241.0)
    with pytest.raises(DomainError):
        TimerConfig(t_reordering_ms=1601.0)


def test_apply_timer_rules():
    cfg = TimerConfig(harq_rtt_ms=12.0)
    assert apply_timer_rules(cfg, 541.0, TimerEvent.MSG3_SENT) == (541.0, 10240.0)
    assert apply_timer_rules(cfg, 541.0, TimerEvent.UL_DATA_DONE) == (541.0, 12.0)
    offset, duration = apply_timer_rules(cfg, 541.0, TimerEvent.RLC_OUT_OF_ORDER)
    assert offset == 0.0
    assert duration == pytest.approx(1600.0 + 550.0)  # extension rounded up to 10 ms


def test_t_reordering_explicit_extension():
    cfg = TimerConfig(t_reordering_extension_ms=600.0)
    _, duration = apply_timer_rules(cfg, 541.0, TimerEvent.RLC_OUT_OF_ORDER)
    assert duration == pytest.approx(2200.0)


def test_autonomous_ta_update_connected_only():
    device = DeviceContext(gnss_position=OBS, rrc_state=RrcState.CONNECTED)
    ta = autonomous_ta_update(device, Ephemeris(orbits=(GEO,)), 0.0, 100.0)
    assert ta == pytest.approx(2.0 * 35786.0 / 299792.458 * 1e6, rel=1e-9)
    device.rrc_state = RrcState.IDLE
    with pytest.raises(DomainError):
        autonomous_ta_update(device, Ephemeris(orbits=(GEO,)), 0.0, 100.0)


def test_doppler_precompensation_cancels_prediction():
    orbit = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS, inclination_deg=10.0)
    device = DeviceContext(gnss_position=GroundPosition(59.0, 0.0))
    eph = Ephemeris(orbits=(orbit,))
    offset = doppler_precompensation(device, eph, 2e9, 20000.0)
    from ntnsim.geometry import geometry_sample, propagate

    sample = geometry_sample(propagate(orbit, 20000.0), device.gnss_position, 2e9)
    assert offset == pytest.approx(-sample.doppler_hz)
    assert device.frequency_offset_hz == offset
    with pytest.raises(DomainError, match="carrier frequency"):
        doppler_precompensation(device, eph, 0.0, 20000.0)


def test_harq_throughput_formula():
    cfg = HarqConfig(n_processes=2)
    assert harq_throughput(541.0, 1000.0, cfg) == pytest.approx(2 * 1000.0 / 0.541)
    with pytest.raises(DomainError):
        harq_throughput(541.0, 1000.0, HarqConfig(n_processes=2, enabled=False))
    with pytest.raises(DomainError):
        HarqConfig(n_processes=3)


def test_rlc_throughput_regimes():
    # Long RTT: pipeline limited.
    assert rlc_arq_throughput(541.0, 16, 1000.0, 4.0) == pytest.approx(
        16 * 1000.0 / ((541.0 + 64.0) / 1000.0)
    )
    # Zero RTT: link limited.
    assert rlc_arq_throughput(0.0, 64, 1000.0, 4.0) == pytest.approx(1000.0 / 0.004)


@given(
    st.floats(min_value=1.0, max_value=600.0),
    st.integers(min_value=1, max_value=128),
)
def test_rlc_never_exceeds_link_rate(rtt, window):
    rate = rlc_arq_throughput(rtt, window, 1000.0, 4.0)
    assert rate <= 1000.0 / 0.004 + 1e-6


@given(st.floats(min_value=100.0, max_value=600.0))
def test_geo_rlc_beats_two_process_harq(rtt):
    harq = harq_throughput(rtt, 1000.0, HarqConfig(n_processes=2))
    rlc = rlc_arq_throughput(rtt, 16, 1000.0, 4.0)
    assert rlc > harq


def _ms(hi):
    """Durations in ms: arbitrary floats, or on the half-us grid, where a
    sum rounded to integer us depends on the order of float steps."""
    return st.one_of(st.floats(0.0, hi), st.integers(0, int(hi * 2000)).map(lambda k: k / 2000))


@st.composite
def _links(draw):
    """(channel, timers, timing, max_rtt_ms): one link and one set of access
    timings, with messages that get through or not by their fade."""
    channel = BentPipeChannel(
        service_delay_ms=draw(_ms(150.0)),
        feeder_delay_ms=draw(_ms(150.0)),
        snr_dl_db=0.0,
        snr_ul_db=0.0,
        snr_threshold_dl_db=0.0,
        snr_threshold_ul_db=0.0,
    )
    max_rtt = draw(st.one_of(st.sampled_from([12.3455, 26.0, 541.0]), _ms(700.0).filter(bool)))
    timers = TimerConfig(
        contention_resolution_ms=draw(_ms(10240.0)),
        ntn_start_offset_ms=draw(st.one_of(st.none(), _ms(600.0))),
    )
    timing = AccessTiming(
        bs_processing_ms=draw(_ms(20.0)),
        device_processing_ms=draw(_ms(20.0)),
        rar_window_length_ms=draw(_ms(2000.0)),
    )
    return channel, timers, timing, max_rtt


def _log(sim):
    """(times_us, (entity, kind, detail) of each entry), in log order."""
    times, codes = sim._merged()
    return times, [sim._records[code][:3] for code in codes.tolist()]


def _shape(outcome):
    return outcome.success, outcome.cause, outcome.latency_ms, outcome.monitoring_ms


@given(
    _links(),
    st.lists(st.tuples(st.integers(0, 10**10), st.floats(-3.0, 3.0), st.floats(-0.02, 0.02)),
             min_size=1, max_size=8),
    st.integers(1, 10**10),
)
@settings(max_examples=200, deadline=None)
def test_the_access_timeline_is_a_pure_shift_of_the_start(link, starts, k):
    """Every attempt over one link has one timeline: starting it k us later
    moves each logged event by exactly k us and changes no path, latency
    or monitoring time, through the kernel and through one-attempt calls."""
    channel, timers, timing, max_rtt = link
    t1, fades, errors = (np.array(column) for column in zip(*starts))
    # Short of the true delay, so no aggregate advance is negative.
    delay_est = np.maximum(channel.service_delay_ms - np.abs(errors), 0.0)
    runs = []
    for shift in (0, k):
        sim = Simulator()
        got = access_attempts(
            sim, t1 + shift, channel, fades, delay_est, max_rtt, timers, timing
        )
        runs.append((_log(sim), got.outcomes()))
    ((times, records), outcomes), ((shifted, shifted_records), shifted_outcomes) = runs
    assert shifted.tolist() == (times + k).tolist()
    assert shifted_records == records
    assert list(map(_shape, shifted_outcomes)) == list(map(_shape, outcomes))

    si = SystemInformation(ephemeris=Ephemeris(orbits=(GEO,)), max_rtt_ms=max_rtt)
    for start, estimate in zip(t1.tolist(), delay_est.tolist()):
        runs = []
        for shift in (0, k):
            sim = Simulator()
            outcome = run_random_access(
                DeviceContext(gnss_position=OBS), si, channel, timers, timing, sim,
                start_ms=(start + shift) / 1000, delay_est_ms=estimate,
            )
            runs.append((_log(sim), _shape(outcome)))
        ((times, records), outcome), ((shifted, shifted_records), shifted_outcome) = runs
        assert shifted.tolist() == (times + k).tolist()
        assert (shifted_records, shifted_outcome) == (records, outcome)


_SPACING_US = 10**8  # longer than any attempt's exchange below


def _printed(sim, prefix):
    """(attempt, integer, negative) of each printed ``prefix`` detail: the
    attempt by its start time, the integer its text reads with the point
    taken out, and whether the text has a "-"."""
    times, records = _log(sim)
    return [
        (t // _SPACING_US, int(detail[len(prefix):].replace(".", "")), "-" in detail)
        for t, (_, _, detail) in zip(times.tolist(), records)
        if detail.startswith(prefix)
    ]


@given(
    _ms(150.0),
    st.lists(st.floats(0.0, 300.0), max_size=10),
    st.lists(st.floats(-1e-6, 1e-6), max_size=10),
)
@example(2.5e-7, [0.0], [])  # a decimal tie: the residual 0.0005 us prints 0.000
@example(135.0, [], [1e-10])  # a residual of -2e-7 us prints -0.000
@settings(max_examples=300, deadline=None)
def test_each_printed_detail_reads_back_as_its_integer(service, estimates, near):
    """Each printed residual is its value in whole ns, half to even, each TA
    step count its steps and each reported delay its 0.1 ms quanta, and a
    text has a "-" exactly where the value's sign bit is set, so that a
    residual in (-0.0005, 0) us prints -0.000.  ``near`` holds estimates
    just off the true delay, whose residuals are fractions of a ns."""
    estimates = np.array(estimates + [max(service + e, 0.0) for e in near])
    assume(len(estimates))
    residual, reported = delay_residual(service, estimates)
    in_range, steps = quantize_ta(residual)
    sim = Simulator()
    access_attempts(
        sim, np.arange(len(estimates)) * _SPACING_US, _channel(service, service), 0.0,
        estimates, 4 * service + 1.0, TimerConfig(), AccessTiming(),
    )
    for prefix, integers, values, attempts in (
        ("msg1_preamble residual_us=", np.rint(residual * 1000), residual,
         range(len(estimates))),
        ("msg2_rar ta_steps=", steps, steps, np.flatnonzero(in_range)),
        ("msg3 reported_delay_ms=", np.rint(estimates / REPORTED_DELAY_QUANTUM_MS), reported,
         np.flatnonzero(in_range)),
    ):
        printed = _printed(sim, prefix)
        assert [attempt for attempt, _, _ in printed] == list(attempts)
        for attempt, integer, negative in printed:
            assert integer == integers[attempt]
            assert negative == np.signbit(values[attempt])


@pytest.mark.parametrize("estimate", [1e300, math.inf, math.nan])
def test_a_detail_beyond_the_int64_range_raises(estimate):
    """A residual past 2**62 ns, inf or nan has no integer to print."""
    with pytest.raises(DomainError, match="residual_us outside the int64 range"):
        access_attempts(
            Simulator(), np.array([0]), _channel(), 0.0, np.array([estimate]), 545.0,
            TimerConfig(), AccessTiming(),
        )


def test_a_long_scenario_builds_one_record_per_printed_detail(config_dir):
    data = json.loads((config_dir / "leo600_sband.json").read_text())
    data["traffic"]["n_messages"] = 5000
    sim = run_scenario(load_config_dict(data)).trace
    assert len(sim._records) == len(set(sim._records))


def test_every_trace_kind_is_one_of_the_four(config_dir):
    """Kinds are a closed set: every event that a HARQ scenario, an RLC
    scenario or one access exchange logs has one of the four kinds, and
    together they log all four."""
    traces = []
    for name, harq in (("leo600_sband", True), ("geo_sband", False)):
        data = json.loads((config_dir / f"{name}.json").read_text())
        data["harq"]["enabled"] = harq
        traces.append(run_scenario(load_config_dict(data), seed=1).trace)
    # A success, a contention-resolution timeout and a TA out of range.
    cr = frozenset({MessageKind.MSG4_CONTENTION_RESOLUTION})
    for drop_kinds, err_ms in ((frozenset(), 0.0), (cr, 0.0), (frozenset(), 0.02)):
        sim, ch = Simulator(), _channel(drop_kinds=drop_kinds)
        _run(ch, delay_est_ms=ch.service_delay_ms - err_ms, sim=sim)
        traces.append(sim)
    kinds = {kind for sim in traces for _, _, _, kind, _ in sim.trace_rows()}
    assert kinds == {TX_START, RX_ARRIVAL, TIMER_FIRE, MEASUREMENT}


def test_each_stage_logs_its_messages_then_an_end_slot_above_every_detail_slot():
    """The access kernel writes message slot k's detail at entry k of the
    templates of the stages that log more than k messages.  That holds as
    each stage's template is range(n) then its end slot, and no end slot
    lies at or below a detail slot."""
    for stage, (_, n, end) in enumerate(_STAGES):
        start = _TEMPLATE_STARTS[stage]
        assert _TEMPLATE_SLOTS[start:start + _TEMPLATE_SIZES[stage]].tolist() == [*range(n), end]
        assert all(end > slot for slot, (*_, places) in _SLOTS.items() if places is not None)


def test_the_slot_table_lists_the_slots_in_order_so_a_slot_is_its_own_code():
    """The kernel's templates hold slots and its table starts with one
    record per slot, so each slot must be its own index in ``_SLOTS``."""
    slots = (MSG1_TX, MSG1_RX, MSG2_TX, MSG2_RX, MSG3_TX, MSG3_RX, MSG4_TX,
             TA_OUT, RAR_EXPIRY, CR_EXPIRY, MSG4_RX)
    assert list(_SLOTS) == list(slots) == list(range(11))
    assert _SLOT_RECORDS == [record(entity, kind, detail) for entity, kind, detail, _ in _SLOTS.values()]


def test_exactly_the_three_detail_slots_carry_places():
    places = {slot: row[3] for slot, row in _SLOTS.items() if row[3] is not None}
    assert places == {MSG1_RX: 3, MSG2_RX: 0, MSG3_TX: 1}
    assert all(_SLOTS[slot][2].endswith("=") for slot in places)


# The configs that run a scenario: the bundled ones with an access section,
# and the failure-path goldens' configs, which log every failure stage.
SCENARIO_CONFIGS = [
    *(p for p in sorted(CONFIG_DIR.glob("*.json")) if "access" in json.loads(p.read_text())),
    *sorted((Path(__file__).resolve().parent / "golden" / "configs").glob("*.json")),
]


@pytest.mark.parametrize("path", SCENARIO_CONFIGS, ids=lambda p: p.stem)
def test_no_trace_row_logs_a_bare_detail_prefix(path):
    """A detail slot's own record (its prefix alone) is in the kernel's
    table but never logged: every entry of a detail slot is patched."""
    details = [detail for *_, detail in run_scenario(load_config(path), seed=1).trace_rows]
    assert any(d.startswith(_SLOTS[MSG1_RX][2]) for d in details)
    assert [d for d in details if d.endswith("=")] == []
