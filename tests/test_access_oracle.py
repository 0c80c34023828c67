"""The closed-form access timeline against the event-by-event original.

``run_random_access_reference`` works the four-message exchange out one
message at a time, scheduling each event as it goes, and
``run_scenario_reference`` runs it per message with a fresh device and
channel and calls ``harq_transfer``/``rlc_transfer`` for each transfer.
``run_random_access`` and ``run_scenario`` must give the same outcomes,
reports and traces, bit for bit.
"""

import io
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from ntnsim.config import load_config_dict
from ntnsim.constants import SPEED_OF_LIGHT_KM_S, SPEED_OF_LIGHT_M_S
from ntnsim.engine import (
    MetricsReport,
    _link_snrs,
    harq_transfer,
    rlc_transfer,
    run_scenario,
)
from ntnsim.errors import DomainError
from ntnsim.events import MEASUREMENT, RX_ARRIVAL, TIMER_FIRE, TX_START, Simulator, ms_to_us
from ntnsim.events import us_to_ms
from ntnsim.geometry import GroundPosition, OrbitKind, OrbitSpec, slant_range
from ntnsim.protocol import (
    CR_TIMEOUT,
    RAR_TIMEOUT,
    REPORTED_DELAY_QUANTUM_MS,
    TA_RANGE,
    AccessOutcome,
    AccessTiming,
    BentPipeChannel,
    DeviceContext,
    Ephemeris,
    MessageKind,
    RrcState,
    SystemInformation,
    TimerConfig,
    TimerEvent,
    apply_timer_rules,
    build_ta_command,
    estimate_service_delay,
    precompensate_preamble,
    reception_ok,
    repetition_gain_db,
    run_random_access,
    schedule_rar_window,
)


LEO_LINKS = json.loads((CONFIG_DIR / "leo600_sband.json").read_text())["links"]


def run_random_access_reference(
    device, si, channel, timers=TimerConfig(), timing=AccessTiming(), sim=None,
    start_ms=0.0, delay_est_ms=None,
):
    """(outcome, {event name: time in ms}) of one attempt."""
    if device.rrc_state is not RrcState.IDLE:
        raise DomainError("random access requires an idle device")
    if sim is None:
        sim = Simulator()

    one_way = ms_to_us(channel.service_delay_ms + channel.feeder_delay_ms)
    if delay_est_ms is None:
        delay_est_ms = estimate_service_delay(device, si.ephemeris, start_ms / 1000.0)
    advance_ms = precompensate_preamble(delay_est_ms)
    residual_us = 2.0 * (channel.service_delay_ms - delay_est_ms) * 1000.0
    reported_delay_ms = (
        round(delay_est_ms / REPORTED_DELAY_QUANTUM_MS) * REPORTED_DELAY_QUANTUM_MS
    )

    t1 = ms_to_us(start_ms)
    window_start, window_end = schedule_rar_window(
        t1, ms_to_us(si.max_rtt_ms), ms_to_us(timing.bs_processing_ms),
        ms_to_us(timing.rar_window_length_ms),
    )
    times = {"msg1_tx": us_to_ms(t1)}

    def finish(success, cause, latency_us, monitoring_us, ta=None):
        outcome = AccessOutcome(
            success=success,
            cause=cause,
            latency_ms=None if latency_us is None else us_to_ms(latency_us),
            monitoring_ms=us_to_ms(monitoring_us),
            ta_command=ta,
            reported_delay_ms=reported_delay_ms if success else None,
        )
        return outcome, times

    sim.schedule(t1, TX_START, "device", "msg1_preamble")
    window_len = window_end - window_start
    if not channel.delivers(MessageKind.MSG1_PREAMBLE):
        sim.schedule(window_end, TIMER_FIRE, "device", "rar_window_expiry")
        return finish(False, RAR_TIMEOUT, None, window_len)

    msg1_arr = t1 + one_way
    # The residual in whole ns, half to even, with the float's sign, so one
    # that rounds to 0 from below prints -0.000.
    ns = abs(round(residual_us * 1000))
    sign = "-" * (math.copysign(1.0, residual_us) < 0)
    sim.schedule(
        msg1_arr, RX_ARRIVAL, "bs",
        f"msg1_preamble residual_us={sign}{ns // 1000}.{ns % 1000:03d}",
    )
    times["msg1_arrival"] = us_to_ms(msg1_arr)
    try:
        ta = build_ta_command(residual_us)
    except DomainError:
        sim.schedule(
            msg1_arr + ms_to_us(timing.bs_processing_ms), MEASUREMENT, "bs",
            "ta_out_of_range",
        )
        return finish(False, TA_RANGE, None, window_len)

    msg2_tx = max(msg1_arr + ms_to_us(timing.bs_processing_ms), window_start - one_way)
    msg2_arr = msg2_tx + one_way
    sim.schedule(msg2_tx, TX_START, "bs", "msg2_rar")
    if not channel.delivers(MessageKind.MSG2_RAR) or msg2_arr > window_end:
        sim.schedule(window_end, TIMER_FIRE, "device", "rar_window_expiry")
        return finish(False, RAR_TIMEOUT, None, window_len, ta)

    sim.schedule(msg2_arr, RX_ARRIVAL, "device", f"msg2_rar ta_steps={ta.steps}")
    times["msg2_arrival"] = us_to_ms(msg2_arr)
    rar_monitoring = msg2_arr - window_start

    total_advance_us = advance_ms * 1000.0 + ta.advance_us
    if total_advance_us < 0:
        raise DomainError("aggregate timing advance became negative")
    device.timing_advance_us = total_advance_us

    msg3_tx = msg2_tx + ms_to_us(si.max_rtt_ms) + ms_to_us(timing.device_processing_ms) - one_way
    msg3_arr = msg3_tx + one_way
    sim.schedule(
        msg3_tx, TX_START, "device", f"msg3 reported_delay_ms={reported_delay_ms:.1f}"
    )
    times["msg3_tx"] = us_to_ms(msg3_tx)

    # The CR timer starts the RTT after Msg3 unless an offset is set.
    offset_ms = timers.ntn_start_offset_ms
    cr_start = msg3_tx + ms_to_us(si.max_rtt_ms if offset_ms is None else offset_ms)
    cr_end = cr_start + ms_to_us(timers.contention_resolution_ms)
    times["cr_timer_start"] = us_to_ms(cr_start)
    if not channel.delivers(MessageKind.MSG3_RRC_CONNECTION_REQUEST):
        sim.schedule(cr_end, TIMER_FIRE, "device", "contention_resolution_expiry")
        return finish(
            False, CR_TIMEOUT, None, rar_monitoring + (cr_end - cr_start), ta
        )

    sim.schedule(msg3_arr, RX_ARRIVAL, "bs", "msg3_rrc_connection_request")
    # Held, as Msg2 is, so that Msg4 arrives no earlier than the CR start.
    msg4_tx = max(msg3_arr + ms_to_us(timing.bs_processing_ms), cr_start - one_way)
    msg4_arr = msg4_tx + one_way
    sim.schedule(msg4_tx, TX_START, "bs", "msg4_contention_resolution")
    if not channel.delivers(MessageKind.MSG4_CONTENTION_RESOLUTION) or msg4_arr > cr_end:
        sim.schedule(cr_end, TIMER_FIRE, "device", "contention_resolution_expiry")
        return finish(
            False, CR_TIMEOUT, None, rar_monitoring + (cr_end - cr_start), ta
        )

    sim.schedule(msg4_arr, RX_ARRIVAL, "device", "msg4_contention_resolution")
    times["msg4_arrival"] = us_to_ms(msg4_arr)
    device.rrc_state = RrcState.CONNECTED
    monitoring = rar_monitoring + (msg4_arr - cr_start)
    return finish(True, None, msg4_arr - t1, monitoring, ta)


def run_scenario_reference(config, seed):
    """run_scenario as a loop over run_random_access_reference, one device,
    channel and transfer call per message."""
    rng = random.Random(seed)
    access, traffic = config.access, config.traffic
    orbit_cfg = config.constellation[0]
    delay = lambda el: slant_range(el, orbit_cfg.altitude_km) / SPEED_OF_LIGHT_KM_S * 1000.0
    service_delay = delay(access.service_elevation_deg)
    feeder_delay = delay(access.feeder_elevation_deg)
    rtt_true = 2.0 * (service_delay + feeder_delay)
    snr_dl, snr_ul = _link_snrs(config, access.service_elevation_deg)
    drop_kinds = frozenset(MessageKind(k) for k in config.channel.drop_kinds)
    observer = config.observer.to_ground()
    si = SystemInformation(
        ephemeris=Ephemeris(orbits=(orbit_cfg.to_orbit_spec(),)),
        max_rtt_ms=access.max_rtt_ms,
    )
    n_units = config.transfer_units()
    sim = Simulator()
    report = MetricsReport(scenario=config.name, seed=seed)
    outcomes, latencies = [], []
    monitoring_us = transfer_us = 0
    for i in range(traffic.n_messages):
        start_ms = i * traffic.inter_arrival_ms
        gnss_err_m = rng.gauss(0.0, access.gnss_error_m) if access.gnss_error_m > 0 else 0.0
        sigma = config.channel.fading_sigma_db
        fade_db = rng.gauss(0.0, sigma) if sigma > 0 else 0.0
        delay_est = service_delay - gnss_err_m / SPEED_OF_LIGHT_M_S * 1000.0
        channel = BentPipeChannel(
            service_delay_ms=service_delay,
            feeder_delay_ms=feeder_delay,
            snr_dl_db=snr_dl - fade_db,
            snr_ul_db=snr_ul - fade_db,
            snr_threshold_dl_db=config.channel.snr_threshold_dl_db,
            snr_threshold_ul_db=config.channel.snr_threshold_ul_db,
            repetitions=config.channel.repetitions,
            drop_kinds=drop_kinds,
        )
        device = DeviceContext(gnss_position=observer)
        outcome, times = run_random_access_reference(
            device, si, channel, timers=config.timers, timing=access, sim=sim,
            start_ms=start_ms, delay_est_ms=delay_est,
        )
        outcomes.append(outcome)
        report.access_attempts += 1
        monitoring_us += ms_to_us(outcome.monitoring_ms)
        if not outcome.success:
            cause = outcome.cause
            report.failure_causes[cause] = report.failure_causes.get(cause, 0) + 1
            continue
        report.access_successes += 1
        latencies.append(outcome.latency_ms)
        if not reception_ok(channel.snr_ul_db, channel.repetitions, channel.snr_threshold_ul_db):
            report.failure_causes["data_snr"] = report.failure_causes.get("data_snr", 0) + 1
            continue
        transfer_start = ms_to_us(times["msg4_arrival"]) + ms_to_us(access.device_processing_ms)
        transfer = config.transfer
        if config.harq.enabled:
            end_us = harq_transfer(
                sim, transfer_start, n_units, config.harq.n_processes, transfer.tti_ms,
                rtt_true, transfer.ack_processing_ms,
            )
        else:
            end_us = rlc_transfer(
                sim, transfer_start, n_units, transfer.rlc_window_pdus, transfer.tti_ms, rtt_true
            )
        transfer_us += end_us - transfer_start
    latencies.sort()
    report.monitoring_time_ms = us_to_ms(monitoring_us)
    report.transferred_bits = report.access_successes * traffic.message_size_bits
    report.transfer_time_ms = us_to_ms(transfer_us)
    report.access_latency_p50_ms = _percentile(latencies, 0.50)
    report.access_latency_p95_ms = _percentile(latencies, 0.95)
    report.access_latency_max_ms = latencies[-1] if latencies else 0.0
    if report.transfer_time_ms > 0:
        report.goodput_bps = report.transferred_bits / (report.transfer_time_ms / 1000.0)
    sim.run()
    return report, sim.trace_rows(), outcomes


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def _summary(outcome):
    steps = None if outcome.ta_command is None else outcome.ta_command.steps
    return (outcome.success, outcome.cause, outcome.latency_ms, outcome.monitoring_ms, steps,
            outcome.reported_delay_ms)


def _attempt(fn, *args, **kwargs):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return (type(exc), str(exc))


def ms(hi):
    """Durations in ms: arbitrary floats, or on the half-us grid where
    rounding to integer us is most sensitive to the order of float steps."""
    return st.one_of(st.floats(0.0, hi), st.integers(0, int(hi * 2000)).map(lambda k: k / 2000))


DROPS = st.lists(st.sampled_from([k.value for k in MessageKind]), unique=True, max_size=4)
MAX_RTTS = st.one_of(ms(700.0).filter(bool), st.sampled_from([12.3455, 26.0, 541.0]))
# CR timer start offsets; None (the default) starts it the max RTT after Msg3.
OFFSETS = st.one_of(st.none(), ms(600.0))


def _timers(draw, t1, one_way, max_rtt_ms, bs_ms, offset_ms):
    """(RAR window, contention-resolution timer) in ms: the defaults, free
    draws, or ending exactly at (or 1 us before) the arrival of the RAR or
    Msg4 of an attempt started at ``t1`` us.  A None offset is the RTT."""
    bs = ms_to_us(bs_ms)
    window_start = t1 + ms_to_us(max_rtt_ms) + bs
    rar_late = max(t1 + one_way + bs, window_start - one_way) + one_way - window_start
    cr_offset = ms_to_us(max_rtt_ms if offset_ms is None else offset_ms)
    msg4_late = max(2 * one_way + bs - cr_offset, 0)
    rar_edges = [rar_late / 1000, max(rar_late - 1, 0) / 1000]
    window = draw(st.one_of(st.just(10240.0), ms(2000.0), st.sampled_from(rar_edges)))
    msg4_edges = [v / 1000 for v in (msg4_late, msg4_late - 1) if 0 <= v <= 10_240_000]
    cr = draw(st.one_of(st.just(10240.0), ms(10240.0), st.sampled_from(msg4_edges or [10240.0])))
    return window, cr


def _one_way_ms(altitude_km, elevation_deg):
    return slant_range(elevation_deg, altitude_km) / SPEED_OF_LIGHT_KM_S * 1000.0


@st.composite
def scenarios(draw):
    reps = draw(st.integers(1, 4))
    altitude = draw(st.one_of(st.just(35786.0), st.floats(500.0, 2000.0)))
    kind = "geosynchronous" if altitude == 35786.0 else "leo_circular"
    service_el, feeder_el = draw(st.floats(0.0, 90.0)), draw(st.floats(0.0, 90.0))
    one_way = ms_to_us(_one_way_ms(altitude, service_el) + _one_way_ms(altitude, feeder_el))
    max_rtt, bs, offset = draw(MAX_RTTS), draw(ms(20.0)), draw(OFFSETS)
    window, cr = _timers(draw, 0, one_way, max_rtt, bs, offset)
    timers = {"contention_resolution_ms": cr}
    if offset is not None:  # else left out
        timers["ntn_start_offset_ms"] = offset
    data = {
        "name": "oracle",
        "constellation": [{"kind": kind, "altitude_km": altitude}],
        "carrier_frequency_hz": 2.0e9,
        "timers": timers,
        "harq": {"enabled": draw(st.booleans()), "n_processes": draw(st.integers(1, 2))},
        "transfer": {
            "tbs_bits": 1000.0,
            "rlc_pdu_bits": 1000.0,
            "tti_ms": draw(st.floats(0.001, 20.0)),
            "ack_processing_ms": draw(ms(20.0)),
            "rlc_window_pdus": draw(st.integers(1, 8)),
        },
        "traffic": {
            "message_size_bits": draw(st.floats(1.0, 12000.0)),
            # Down to far below one access: attempts overlap.
            "inter_arrival_ms": draw(st.floats(0.01, 20000.0)),
            "n_messages": draw(st.integers(1, 20)),
        },
        "access": {
            "max_rtt_ms": max_rtt,
            "bs_processing_ms": bs,
            "device_processing_ms": draw(ms(20.0)),
            "rar_window_length_ms": window,
            "service_elevation_deg": service_el,
            "feeder_elevation_deg": feeder_el,
            # 5 km leaves many residuals beyond the +-32 us TA range; 1e6 m
            # makes some delay estimates negative.
            "gnss_error_m": draw(st.sampled_from([0.0, 50.0, 50.0, 5000.0, 1e6])),
        },
        "channel": {
            "repetitions": reps,
            "fading_sigma_db": draw(st.sampled_from([0.0, 0.0, 3.0, 20.0])),
            "drop_kinds": draw(st.one_of(st.just([]), DROPS)),
        },
    }
    if draw(st.booleans()):
        data["links"] = LEO_LINKS
    # Thresholds far below, exactly at or one ulp above the (unfaded) SNR
    # plus the repetition gain.
    dl, ul = _link_snrs(load_config_dict(data), service_el)
    gain = repetition_gain_db(reps)
    for key, value in (("snr_threshold_dl_db", dl), ("snr_threshold_ul_db", ul)):
        edge = value + gain
        data["channel"][key] = draw(
            st.sampled_from([-40.0, -40.0, edge, math.nextafter(edge, math.inf)])
        )
    return load_config_dict(data), draw(st.integers(0, 2**32))


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_run_scenario_matches_per_message_reference(case):
    config, seed = case
    want = _attempt(run_scenario_reference, config, seed)
    got = _attempt(run_scenario, config, seed)
    if want[0] is DomainError:  # both raise, with the same error
        assert got == want
        return
    report, rows, outcomes = want
    assert got.report == report
    assert got.report.to_dict() == report.to_dict()
    assert got.trace_rows == rows
    assert [_summary(o) for o in got.attempts.outcomes()] == [_summary(o) for o in outcomes]


def _fades(seed, n_messages, gnss_error_m, fading_sigma_db):
    """The fade run_scenario draws for each message."""
    rng = random.Random(seed)
    fades = []
    for _ in range(n_messages):
        if gnss_error_m > 0:
            rng.gauss(0.0, gnss_error_m)
        fades.append(rng.gauss(0.0, fading_sigma_db) if fading_sigma_db > 0 else 0.0)
    return fades


@given(st.integers(0, 2**32), st.integers(2, 4), st.sampled_from(["dl", "ul"]), st.data())
@settings(max_examples=50, deadline=None)
def test_faded_snr_at_the_threshold_matches_reference(seed, reps, link, data):
    """A threshold exactly at one message's faded SNR plus the repetition
    gain, (snr - fade) + gain, where adding the gain first would round to
    another value: the delivery flags keep the original float order."""
    raw = json.loads((CONFIG_DIR / "leo600_sband.json").read_text())
    raw["traffic"]["n_messages"] = 20
    raw["channel"].update(repetitions=reps, fading_sigma_db=3.0)
    config = load_config_dict(raw)
    fades = _fades(seed, 20, config.access.gnss_error_m, 3.0)
    snr = _link_snrs(config, config.access.service_elevation_deg)[link == "ul"]
    gain = repetition_gain_db(reps)
    sensitive = [snr - f + gain for f in fades if snr - f + gain != snr + gain - f]
    assume(sensitive)
    raw["channel"]["snr_threshold_dl_db"] = raw["channel"]["snr_threshold_ul_db"] = -40.0
    raw["channel"][f"snr_threshold_{link}_db"] = data.draw(st.sampled_from(sensitive))
    config = load_config_dict(raw)
    report, rows, outcomes = run_scenario_reference(config, seed)
    got = run_scenario(config, seed)
    assert (got.report, got.trace_rows) == (report, rows)
    assert [_summary(o) for o in got.attempts.outcomes()] == [_summary(o) for o in outcomes]


# Edits of the bundled LEO and GEO configs, and the attempt paths each
# gives there (40 messages, seed 2): "DomainError" is the error of a
# negative delay estimate.
FAILURE_CASES = {
    "gnss_error_3km": ({"access": {"gnss_error_m": 3000.0}}, "success ta_range", "success ta_range"),
    "drop_msg1": ({"channel": {"drop_kinds": ["msg1_preamble"]}}, "rar_timeout", "rar_timeout"),
    "drop_msg2": ({"channel": {"drop_kinds": ["msg2_rar"]}}, "rar_timeout", "rar_timeout"),
    "drop_msg3": ({"channel": {"drop_kinds": ["msg3_rrc_connection_request"]}},
                  "cr_timeout", "cr_timeout"),
    "drop_msg4": ({"channel": {"drop_kinds": ["msg4_contention_resolution"]}},
                  "cr_timeout", "cr_timeout"),
    "msg2_late": ({"access": {"max_rtt_ms": 1.0, "rar_window_length_ms": 1.0}},
                  "rar_timeout", "rar_timeout"),
    "msg4_late": ({"timers": {"ntn_start_offset_ms": 0.0, "contention_resolution_ms": 1.0}},
                  "cr_timeout", "cr_timeout"),
    "rlc_window_3": ({"harq": {"enabled": False}, "transfer": {"rlc_window_pdus": 3}},
                     "success", "success"),
    "overlapping_attempts": ({"traffic": {"inter_arrival_ms": 10.0}}, "success", "success"),
    "gnss_error_1e6m": ({"access": {"gnss_error_m": 1e6}}, "DomainError", "ta_range"),
}


def _oracle_csv(rows) -> str:
    """The trace CSV of ``trace_rows``, formatted row by row."""
    return "time_ms,seq,entity,kind,detail\n" + "".join(
        f"{t:.6f},{seq},{entity},{kind},{detail}\n" for t, seq, entity, kind, detail in rows
    )


@pytest.mark.parametrize("case", list(FAILURE_CASES))
@pytest.mark.parametrize("config_name", ["leo600_sband.json", "geo_sband.json"])
def test_failure_paths_match_the_reference(config_name, case):
    edits, leo_paths, geo_paths = FAILURE_CASES[case]
    data = json.loads((CONFIG_DIR / config_name).read_text())
    data["traffic"]["n_messages"] = 40
    for section, values in edits.items():
        data[section].update(values)
    config = load_config_dict(data)
    want = _attempt(run_scenario_reference, config, 2)
    got = _attempt(run_scenario, config, 2)
    paths = geo_paths if config_name.startswith("geo") else leo_paths
    if want[0] is DomainError:
        assert (paths, got) == ("DomainError", want)
        return
    report, rows, outcomes = want
    seen = set(report.failure_causes) | ({"success"} if report.access_successes else set())
    assert " ".join(sorted(seen)) == paths
    assert got.report == report
    assert got.report.to_dict() == report.to_dict()
    out = io.StringIO()
    got.trace.write_csv(out)
    assert out.getvalue() == _oracle_csv(rows)
    assert [_summary(o) for o in got.attempts.outcomes()] == [_summary(o) for o in outcomes]


GEO = OrbitSpec(kind=OrbitKind.GEOSYNCHRONOUS)
OBS = GroundPosition(0.0, 0.0)


@st.composite
def attempts(draw):
    service = draw(st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 0.001)))
    # Residuals within and beyond the +-32 us TA range; tiny delays with a
    # negative residual give a negative aggregate advance.
    delay_est = max(0.0, service + draw(st.floats(-0.03, 0.03)))
    channel = BentPipeChannel(
        service_delay_ms=service,
        feeder_delay_ms=draw(st.floats(0.0, 300.0)),
        snr_dl_db=draw(st.sampled_from([-14.5, -20.0, 5.0])),
        snr_ul_db=draw(st.sampled_from([-13.8, -20.0, 5.0])),
        drop_kinds=frozenset(MessageKind(k) for k in draw(DROPS)),
    )
    start_ms = draw(st.one_of(st.floats(0.0, 1e7), ms(1e4)))
    max_rtt, bs, offset = draw(MAX_RTTS), draw(ms(20.0)), draw(OFFSETS)
    one_way = ms_to_us(channel.service_delay_ms + channel.feeder_delay_ms)
    window, cr = _timers(draw, ms_to_us(start_ms), one_way, max_rtt, bs, offset)
    si = SystemInformation(ephemeris=Ephemeris(orbits=(GEO,)), max_rtt_ms=max_rtt)
    timers = TimerConfig(contention_resolution_ms=cr, ntn_start_offset_ms=offset)
    timing = AccessTiming(
        bs_processing_ms=bs, device_processing_ms=draw(ms(20.0)), rar_window_length_ms=window
    )
    return channel, si, timers, timing, start_ms, delay_est


@given(attempts(), st.lists(st.integers(0, 10**9), max_size=3))
@settings(max_examples=300, deadline=None)
def test_run_random_access_matches_reference(attempt, before):
    channel, si, timers, timing, start_ms, delay_est = attempt
    results = []
    for fn in (run_random_access_reference, run_random_access):
        sim, device = Simulator(), DeviceContext(gnss_position=OBS)
        for t in before:
            sim.schedule(t, TIMER_FIRE, "device", "unrelated")
        outcome = _attempt(
            fn, device, si, channel, timers=timers, timing=timing, sim=sim,
            start_ms=start_ms, delay_est_ms=delay_est,
        )
        sim.run()
        results.append((outcome, sim.trace_rows(), device))
    (want, want_rows, want_device), (got, got_rows, got_device) = results
    if want[0] is DomainError:  # both raise, with the same error
        assert got == want
        return
    assert _summary(got) == _summary(want[0])
    assert got_rows == want_rows
    assert (got_device.rrc_state, got_device.timing_advance_us) == (
        want_device.rrc_state, want_device.timing_advance_us
    )


def _bundled(config_name, offset_ms="bundled", **edits):
    """A bundled config with 3 messages, each section updated with its
    ``edits``, and the CR start offset left as bundled, left out (None) or
    set."""
    data = json.loads((CONFIG_DIR / config_name).read_text())
    data["traffic"]["n_messages"] = 3
    for section, values in edits.items():
        data[section].update(values)
    if offset_ms is None:
        del data["timers"]["ntn_start_offset_ms"]
    elif offset_ms != "bundled":
        data["timers"]["ntn_start_offset_ms"] = offset_ms
    return load_config_dict(data)


def _cr_spans_us(rows):
    """The time from each attempt's Msg3 to its CR timer expiry (us), with
    the attempts in log order."""
    rows = sorted(rows, key=lambda row: row[1])
    msg3 = [ms_to_us(t) for t, _, _, _, detail in rows if detail.startswith("msg3 ")]
    expiry = [
        ms_to_us(t) for t, _, _, _, detail in rows if detail == "contention_resolution_expiry"
    ]
    return [end - start for start, end in zip(msg3, expiry, strict=True)]


@pytest.mark.parametrize("offset_ms", [None, 0.0, 123.4567])
@pytest.mark.parametrize("config_name", ["leo600_sband.json", "geo_sband.json"])
def test_the_cr_timer_starts_where_apply_timer_rules_says(config_name, offset_ms):
    """Both access entry points start the CR timer at the offset
    apply_timer_rules gives for the cell's max RTT: the RTT when no offset
    is set, else the offset.  Msg4 is dropped, so each attempt logs the
    timer's expiry."""
    config = _bundled(
        config_name, offset_ms, channel={"drop_kinds": ["msg4_contention_resolution"]}
    )
    max_rtt_ms = config.access.max_rtt_ms
    start_ms, length_ms = apply_timer_rules(config.timers, max_rtt_ms, TimerEvent.MSG3_SENT)
    assert start_ms == (max_rtt_ms if offset_ms is None else offset_ms)
    want = ms_to_us(start_ms) + ms_to_us(length_ms)

    assert _cr_spans_us(run_scenario(config, 1).trace_rows) == [want] * 3

    sim = Simulator()
    outcome = run_random_access(
        DeviceContext(gnss_position=OBS),
        SystemInformation(ephemeris=Ephemeris(orbits=(GEO,)), max_rtt_ms=max_rtt_ms),
        BentPipeChannel(
            service_delay_ms=10.0,
            feeder_delay_ms=2.5,
            drop_kinds=frozenset({MessageKind.MSG4_CONTENTION_RESOLUTION}),
        ),
        timers=config.timers,
        timing=config.access,
        sim=sim,
        delay_est_ms=10.0,
    )
    assert outcome.cause == CR_TIMEOUT
    assert _cr_spans_us(sim.trace_rows()) == [want]


@pytest.mark.parametrize("offset_ms", ["bundled", None])
@pytest.mark.parametrize("config_name", ["leo600_sband.json", "geo_sband.json"])
def test_monitoring_is_never_negative_at_zenith(config_name, offset_ms):
    """At 90 degrees the true RTT plus the base-station processing is below
    the max RTT the CR timer start is dimensioned by, so Msg4 is held, as
    Msg2 is, and arrives exactly as the device starts to monitor for it:
    no monitoring at all, where it used to arrive before the CR start and
    count negative time."""
    config = _bundled(
        config_name, offset_ms, access={"service_elevation_deg": 90.0, "feeder_elevation_deg": 90.0}
    )
    result = run_scenario(config, 1)
    assert [(o.success, o.monitoring_ms) for o in result.attempts.outcomes()] == [(True, 0.0)] * 3
    assert result.report.monitoring_time_ms == 0.0
