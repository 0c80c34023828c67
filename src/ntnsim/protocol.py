"""Device and base-station procedures with the NTN adaptations.

Covers GNSS-aided delay pre-compensation, the bipolar timing-advance
command, RTT-offset RAR/Msg3 scheduling and timers, autonomous TA and
Doppler tracking, and the HARQ / RLC-ARQ throughput models.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import DomainError, NotReachableError
from .events import _MEASUREMENT, _RX, _TIMER, _TX
from .events import US_PER_MS, Simulator, ms_to_us, record, us_to_ms
from .geometry import GeometrySample, GroundPosition, OrbitSpec, geometry_sample, propagate

TA_STEP_US = 0.52
TA_BIPOLAR_RANGE_US = 32.0
REPORTED_DELAY_QUANTUM_MS = 0.1

MAX_CONTENTION_RESOLUTION_MS = 10240.0
MAX_T_REORDERING_MS = 1600.0


@dataclass(frozen=True)
class Ephemeris:
    """Broadcast orbital data; staleness is its age at use time."""

    orbits: tuple[OrbitSpec, ...]
    staleness_s: float = 0.0

    def __post_init__(self):
        if self.staleness_s < 0:
            raise DomainError("staleness must be non-negative")


@dataclass(frozen=True)
class SystemInformation:
    ephemeris: Ephemeris
    max_rtt_ms: float

    def __post_init__(self):
        if self.max_rtt_ms <= 0:
            raise DomainError("max RTT must be positive")


class RrcState(Enum):
    IDLE = "idle"
    CONNECTED = "connected"


@dataclass
class DeviceContext:
    gnss_position: GroundPosition
    rrc_state: RrcState = RrcState.IDLE
    timing_advance_us: float = 0.0
    frequency_offset_hz: float = 0.0


def _check_non_negative(*named: tuple[str, float]) -> None:
    for name, value in named:
        if value < 0:
            raise DomainError(f"{name} must be non-negative")


@dataclass(frozen=True)
class TimingAdvanceCommand:
    steps: int

    @property
    def advance_us(self) -> float:
        return self.steps * TA_STEP_US


@dataclass(frozen=True)
class TimerConfig:
    contention_resolution_ms: float = MAX_CONTENTION_RESOLUTION_MS
    harq_rtt_ms: float = 0.0
    t_reordering_ms: float = MAX_T_REORDERING_MS
    ntn_start_offset_ms: float = 0.0
    t_reordering_extension_ms: Optional[float] = None

    def __post_init__(self):
        _check_non_negative(
            ("contention resolution timer", self.contention_resolution_ms),
            ("HARQ RTT timer", self.harq_rtt_ms),
            ("base t-reordering", self.t_reordering_ms),
            ("timer start offset", self.ntn_start_offset_ms),
            ("t-reordering extension", self.t_reordering_extension_ms or 0.0),
        )
        if self.contention_resolution_ms > MAX_CONTENTION_RESOLUTION_MS:
            raise DomainError("contention resolution timer exceeds 10.24 s")
        if self.t_reordering_ms > MAX_T_REORDERING_MS:
            raise DomainError("base t-reordering exceeds 1600 ms")


@dataclass(frozen=True)
class HarqConfig:
    n_processes: int = 2
    enabled: bool = True

    def __post_init__(self):
        if not 1 <= self.n_processes <= 2:
            raise DomainError("HARQ needs one or two processes")


class MessageKind(Enum):
    MSG1_PREAMBLE = "msg1_preamble"
    MSG2_RAR = "msg2_rar"
    MSG3_RRC_CONNECTION_REQUEST = "msg3_rrc_connection_request"
    MSG4_CONTENTION_RESOLUTION = "msg4_contention_resolution"


class FailureCause(Enum):
    RAR_TIMEOUT = "rar_timeout"
    CR_TIMEOUT = "cr_timeout"
    TA_RANGE = "ta_range"


@dataclass(frozen=True)
class AccessTiming:
    bs_processing_ms: float = 4.0
    device_processing_ms: float = 8.0
    rar_window_length_ms: float = MAX_CONTENTION_RESOLUTION_MS

    def __post_init__(self):
        _check_non_negative(
            ("base-station processing time", self.bs_processing_ms),
            ("device processing time", self.device_processing_ms),
            ("RAR window length", self.rar_window_length_ms),
        )


@dataclass
class AccessOutcome:
    success: bool
    cause: Optional[FailureCause]
    latency_ms: Optional[float]
    monitoring_ms: float
    ta_command: Optional[TimingAdvanceCommand]
    reported_delay_ms: Optional[float]


def _highest_satellite(
    device: DeviceContext, eph: Ephemeris, fc_hz: float, t_s: float
) -> Optional[GeometrySample]:
    """The device's view of the ephemeris satellite highest above its GNSS
    fix, each evaluated at ``t - staleness`` (not before its epoch); the
    first one on a tie, None for an empty ephemeris."""
    fix = device.gnss_position
    samples = [
        geometry_sample(propagate(o, max(o.epoch_s, t_s - eph.staleness_s)), fix, fc_hz)
        for o in eph.orbits
    ]
    return max(samples, key=lambda sample: sample.elevation_deg, default=None)


def estimate_service_delay(device: DeviceContext, eph: Ephemeris, t_s: float) -> float:
    """One-way service-link delay (ms) as the device would compute it.

    Uses the device's (possibly erroneous) GNSS fix and the ephemeris
    evaluated at ``t - staleness``, which bounds the estimation error by
    (gnss_error + staleness * |range rate|) / c.
    """
    best = _highest_satellite(device, eph, 1e9, t_s)
    if best is None or best.elevation_deg < 0.0:
        raise NotReachableError("no satellite above the horizon")
    return best.one_way_delay_ms


def precompensate_preamble(delay_est_ms: float) -> float:
    """Transmit advance (ms) for the random access preamble.

    The device compensates the round trip over the service link; the
    feeder-link delay is a common offset absorbed at the gateway.
    """
    if delay_est_ms < 0:
        raise DomainError("delay estimate must be non-negative")
    return 2.0 * delay_est_ms


def delay_residual(service_delay_ms: float, delay_est_ms: float) -> tuple[float, float, float]:
    """(advance_ms, residual_us, reported_delay_ms) of a delay estimate:
    the preamble advance, the round-trip misalignment left after it, and
    the delay the device reports in Msg3, quantized to 0.1 ms."""
    advance_ms = precompensate_preamble(delay_est_ms)
    residual_us = 2.0 * (service_delay_ms - delay_est_ms) * 1000.0
    reported_delay_ms = round(delay_est_ms / REPORTED_DELAY_QUANTUM_MS) * REPORTED_DELAY_QUANTUM_MS
    return advance_ms, residual_us, reported_delay_ms


def build_ta_command(residual_us: float) -> TimingAdvanceCommand:
    """Quantize a signed residual misalignment into a bipolar TA command."""
    if abs(residual_us) > TA_BIPOLAR_RANGE_US:
        raise DomainError(
            f"residual {residual_us:.2f} us outside the +/-{TA_BIPOLAR_RANGE_US} us range"
        )
    return TimingAdvanceCommand(steps=round(residual_us / TA_STEP_US))


def schedule_rar_window(
    preamble_tx_ms: float,
    max_rtt_ms: float,
    processing_delay_ms: float = 4.0,
    window_length_ms: float = MAX_CONTENTION_RESOLUTION_MS,
) -> tuple[float, float]:
    """RAR monitoring window, shifted by the cell's maximum supported RTT."""
    if max_rtt_ms < 0:
        raise DomainError("max RTT must be non-negative")
    start = preamble_tx_ms + max_rtt_ms + processing_delay_ms
    return start, start + window_length_ms


# The access events with a fixed detail share one record each; the three
# with a per-attempt detail (residual, TA steps, reported delay) share one
# per distinct detail, so a long scenario's log holds no per-attempt copies.
_MSG1_TX = record("device", _TX, "msg1_preamble")
_RAR_EXPIRY = record("device", _TIMER, "rar_window_expiry")
_TA_OUT_OF_RANGE = record("bs", _MEASUREMENT, "ta_out_of_range")
_MSG2_TX = record("bs", _TX, "msg2_rar")
_MSG3_RX = record("bs", _RX, "msg3_rrc_connection_request")
_MSG4_TX = record("bs", _TX, "msg4_contention_resolution")
_MSG4_RX = record("device", _RX, "msg4_contention_resolution")
_CR_EXPIRY = record("device", _TIMER, "contention_resolution_expiry")
_shared_record = functools.lru_cache(maxsize=4096)(record)


def access_timeline(
    sim: Simulator,
    t1: int,
    one_way: int,
    residual_us: float,
    reported_delay_ms: float,
    delivered: tuple[bool, bool, bool, bool],
    max_rtt_ms: float,
    timers: TimerConfig,
    timing: AccessTiming,
) -> tuple[Optional[FailureCause], Optional[int], int, Optional[int], Optional[int]]:
    """The four-message exchange of one attempt, in closed form.

    ``t1`` is the preamble transmit time and ``one_way`` the true one-way
    delay (both integer us), ``residual_us`` the round-trip misalignment
    left after pre-compensation, and ``delivered`` whether Msg1..Msg4 get
    through.  The attempt's events are logged to ``sim`` in the order the
    exchange decides them.  Returns ``(cause, latency_us, monitoring_us,
    ta_steps, msg4_arrival_us)``: cause is None on success; latency and
    the Msg4 arrival are None unless it succeeded, and ta_steps is None
    unless the base station built a TA command.
    """
    d1, d2, d3, d4 = delivered
    bs_proc = ms_to_us(timing.bs_processing_ms)
    window_start_ms, window_end_ms = schedule_rar_window(
        t1 / US_PER_MS, max_rtt_ms, timing.bs_processing_ms, timing.rar_window_length_ms
    )
    window_start, window_end = ms_to_us(window_start_ms), ms_to_us(window_end_ms)
    window_len = window_end - window_start
    events = [(t1, _MSG1_TX)]
    emit = events.append
    try:  # every path logs its events in one replay
        if not d1:
            emit((window_end, _RAR_EXPIRY))
            return FailureCause.RAR_TIMEOUT, None, window_len, None, None
        msg1_arr = t1 + one_way
        detail = f"msg1_preamble residual_us={residual_us:.3f}"
        emit((msg1_arr, _shared_record("bs", _RX, detail)))
        if abs(residual_us) > TA_BIPOLAR_RANGE_US:  # build_ta_command's range check
            emit((msg1_arr + bs_proc, _TA_OUT_OF_RANGE))
            return FailureCause.TA_RANGE, None, window_len, None, None
        ta_steps = round(residual_us / TA_STEP_US)

        msg2_tx = max(msg1_arr + bs_proc, window_start - one_way)
        msg2_arr = msg2_tx + one_way
        emit((msg2_tx, _MSG2_TX))
        if not d2 or msg2_arr > window_end:
            emit((window_end, _RAR_EXPIRY))
            return FailureCause.RAR_TIMEOUT, None, window_len, ta_steps, None
        emit((msg2_arr, _shared_record("device", _RX, f"msg2_rar ta_steps={ta_steps}")))
        rar_monitoring = msg2_arr - window_start

        # Msg3 grant dimensioned by the cell's maximum supported RTT.
        msg3_tx = msg2_tx + ms_to_us(max_rtt_ms + timing.device_processing_ms) - one_way
        msg3_arr = msg3_tx + one_way
        detail = f"msg3 reported_delay_ms={reported_delay_ms:.1f}"
        emit((msg3_tx, _shared_record("device", _TX, detail)))
        cr_start = msg3_tx + ms_to_us(timers.ntn_start_offset_ms)
        cr_len = ms_to_us(timers.contention_resolution_ms)
        cr_end = cr_start + cr_len
        if d3:
            emit((msg3_arr, _MSG3_RX))
            msg4_tx = msg3_arr + bs_proc
            msg4_arr = msg4_tx + one_way
            emit((msg4_tx, _MSG4_TX))
            if d4 and msg4_arr <= cr_end:
                emit((msg4_arr, _MSG4_RX))
                monitoring = rar_monitoring + (msg4_arr - cr_start)
                return None, msg4_arr - t1, monitoring, ta_steps, msg4_arr
        emit((cr_end, _CR_EXPIRY))
        return FailureCause.CR_TIMEOUT, None, rar_monitoring + cr_len, ta_steps, None
    finally:
        sim.replay(0, events)


def access_outcome(timeline, reported_delay_ms: float) -> AccessOutcome:
    """The :class:`AccessOutcome` of an ``access_timeline`` result."""
    cause, latency_us, monitoring_us, ta_steps, _ = timeline
    return AccessOutcome(
        success=cause is None,
        cause=cause,
        latency_ms=None if latency_us is None else us_to_ms(latency_us),
        monitoring_ms=us_to_ms(monitoring_us),
        ta_command=None if ta_steps is None else TimingAdvanceCommand(ta_steps),
        reported_delay_ms=reported_delay_ms if cause is None else None,
    )


def run_random_access(
    device: DeviceContext,
    si: SystemInformation,
    channel,
    timers: TimerConfig = TimerConfig(),
    timing: AccessTiming = AccessTiming(),
    sim: Optional[Simulator] = None,
    start_ms: float = 0.0,
    delay_est_ms: Optional[float] = None,
) -> AccessOutcome:
    """Execute the four-message access exchange over a bent-pipe channel.

    ``channel`` supplies true one-way service/feeder delays and decides
    message delivery; ``delay_est_ms`` overrides the ephemeris-based
    estimate (used by scenario runs that specify the geometry directly).
    """
    if device.rrc_state is not RrcState.IDLE:
        raise DomainError("random access requires an idle device")
    if sim is None:
        sim = Simulator()
    if delay_est_ms is None:
        delay_est_ms = estimate_service_delay(device, si.ephemeris, start_ms / 1000.0)
    advance_ms, residual_us, reported_delay_ms = delay_residual(
        channel.service_delay_ms, delay_est_ms
    )
    timeline = access_timeline(
        sim,
        ms_to_us(start_ms),
        ms_to_us(channel.service_delay_ms + channel.feeder_delay_ms),
        residual_us,
        reported_delay_ms,
        tuple(channel.delivers(kind) for kind in MessageKind),
        si.max_rtt_ms,
        timers,
        timing,
    )
    cause, _, _, ta_steps, _ = timeline
    if cause is None or cause is FailureCause.CR_TIMEOUT:  # the RAR arrived
        total_advance_us = advance_ms * 1000.0 + ta_steps * TA_STEP_US
        if total_advance_us < 0:
            raise DomainError("aggregate timing advance became negative")
        device.timing_advance_us = total_advance_us
    if cause is None:
        device.rrc_state = RrcState.CONNECTED
    return access_outcome(timeline, reported_delay_ms)


def autonomous_ta_update(
    device: DeviceContext, eph: Ephemeris, t_s: float, interval_ms: float
) -> float:
    """Recompute the timing advance from ephemeris in connected mode.

    Returns the new advance in microseconds; between updates the alignment
    error is bounded by delay drift times the update interval.
    """
    if device.rrc_state is not RrcState.CONNECTED:
        raise DomainError("autonomous TA updates run in connected mode")
    if interval_ms <= 0:
        raise DomainError("update interval must be positive")
    delay_ms = estimate_service_delay(device, eph, t_s)
    device.timing_advance_us = 2.0 * delay_ms * 1000.0
    return device.timing_advance_us


def doppler_precompensation(
    device: DeviceContext, eph: Ephemeris, fc_hz: float, t_s: float
) -> float:
    """Transmit frequency offset cancelling the predicted Doppler."""
    best = _highest_satellite(device, eph, fc_hz, t_s)
    if best is None:
        raise NotReachableError("empty ephemeris")
    offset = -best.doppler_hz
    device.frequency_offset_hz = offset
    return offset


def harq_throughput(
    rtt_ms: float, tbs_bits: float, cfg: HarqConfig, proc_delay_ms: float = 0.0
) -> float:
    """Stop-and-wait ceiling: one transport block per process per RTT."""
    if not cfg.enabled:
        raise DomainError("HARQ throughput requires HARQ enabled")
    if rtt_ms <= 0:
        raise DomainError("RTT must be positive")
    return cfg.n_processes * tbs_bits / ((rtt_ms + proc_delay_ms) / 1000.0)


def rlc_arq_throughput(
    rtt_ms: float, window_pdus: int, pdu_bits: float, tti_ms: float
) -> float:
    """Windowed ARQ rate: pipeline-limited or link-limited, whichever binds."""
    if window_pdus < 1:
        raise DomainError("window must be at least one PDU")
    if tti_ms <= 0:
        raise DomainError("TTI must be positive")
    pipeline = window_pdus * pdu_bits / ((rtt_ms + window_pdus * tti_ms) / 1000.0)
    link = pdu_bits / (tti_ms / 1000.0)
    return min(pipeline, link)


class TimerEvent(Enum):
    MSG3_SENT = "msg3_sent"
    UL_DATA_DONE = "ul_data_done"
    RLC_OUT_OF_ORDER = "rlc_out_of_order"


def apply_timer_rules(
    cfg: TimerConfig, rtt_ms: float, event: TimerEvent
) -> tuple[float, float]:
    """(start offset from the event, duration) for the NTN-adapted timers.

    Contention-resolution and HARQ-RTT starts are delayed by the RTT;
    t-reordering keeps its start but gets a duration extension (default:
    the RTT rounded up to 10 ms).
    """
    if rtt_ms < 0:
        raise DomainError("RTT must be non-negative")
    if event is TimerEvent.MSG3_SENT:
        return rtt_ms, cfg.contention_resolution_ms
    if event is TimerEvent.UL_DATA_DONE:
        return rtt_ms, cfg.harq_rtt_ms
    extension = cfg.t_reordering_extension_ms
    if extension is None:
        extension = math.ceil(rtt_ms / 10.0) * 10.0
    return 0.0, cfg.t_reordering_ms + extension
