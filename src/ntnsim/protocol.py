"""Device and base-station procedures with the NTN adaptations.

Covers GNSS-aided delay pre-compensation, the bipolar timing-advance
command, RTT-offset RAR/Msg3 scheduling and timers, autonomous TA and
Doppler tracking, and the HARQ / RLC-ARQ throughput models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import DomainError, NotReachableError
from .events import EventKind, Simulator, ms_to_us, us_to_ms
from .geometry import GroundPosition, OrbitSpec, geometry_sample, propagate

TA_STEP_US = 0.52
TA_BIPOLAR_RANGE_US = 32.0
REPORTED_DELAY_QUANTUM_MS = 0.1

MAX_CONTENTION_RESOLUTION_MS = 10240.0
MAX_T_REORDERING_MS = 1600.0


@dataclass(frozen=True)
class Ephemeris:
    """Broadcast orbital data; staleness is its age at use time."""

    orbits: tuple[OrbitSpec, ...]
    epoch_s: float = 0.0
    staleness_s: float = 0.0

    def __post_init__(self):
        if self.staleness_s < 0:
            raise DomainError("staleness must be non-negative")


@dataclass(frozen=True)
class SystemInformation:
    ephemeris: Ephemeris
    max_rtt_ms: float
    cell_center: GroundPosition
    carrier_frequency_hz: float

    def __post_init__(self):
        if self.max_rtt_ms <= 0:
            raise DomainError("max RTT must be positive")


class RrcState(Enum):
    IDLE = "idle"
    CONNECTED = "connected"


@dataclass
class DeviceContext:
    gnss_position: GroundPosition
    gnss_error_radial_m: float = 0.0
    rrc_state: RrcState = RrcState.IDLE
    timing_advance_us: float = 0.0
    frequency_offset_hz: float = 0.0
    active_timers: dict = field(default_factory=dict)


def _check_non_negative(*named: tuple[str, float]) -> None:
    for name, value in named:
        if value < 0:
            raise DomainError(f"{name} must be non-negative")


@dataclass(frozen=True)
class TimingAdvanceCommand:
    steps: int
    step_size_us: float = TA_STEP_US

    @property
    def advance_us(self) -> float:
        return self.steps * self.step_size_us


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


@dataclass(frozen=True)
class RaMessage:
    kind: MessageKind
    tx_time_ms: float
    payload: dict


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
    messages: list[RaMessage]
    times_ms: dict


def estimate_service_delay(
    device: DeviceContext,
    eph: Ephemeris,
    t_s: float,
    min_elevation_deg: float = 0.0,
) -> float:
    """One-way service-link delay (ms) as the device would compute it.

    Uses the device's (possibly erroneous) GNSS fix and the ephemeris
    evaluated at ``t - staleness``, which bounds the estimation error by
    (gnss_error + staleness * |range rate|) / c.
    """
    best = None
    for orbit in eph.orbits:
        t_eval = max(orbit.epoch_s, t_s - eph.staleness_s)
        sample = geometry_sample(propagate(orbit, t_eval), device.gnss_position, 1e9)
        if best is None or sample.elevation_deg > best.elevation_deg:
            best = sample
    if best is None or best.elevation_deg < min_elevation_deg:
        raise NotReachableError("no satellite above the minimum elevation")
    return best.one_way_delay_ms


def precompensate_preamble(delay_est_ms: float) -> float:
    """Transmit advance (ms) for the random access preamble.

    The device compensates the round trip over the service link; the
    feeder-link delay is a common offset absorbed at the gateway.
    """
    if delay_est_ms < 0:
        raise DomainError("delay estimate must be non-negative")
    return 2.0 * delay_est_ms


def build_ta_command(
    residual_us: float,
    step_us: float = TA_STEP_US,
    bipolar_range_us: float = TA_BIPOLAR_RANGE_US,
) -> TimingAdvanceCommand:
    """Quantize a signed residual misalignment into a bipolar TA command."""
    if abs(residual_us) > bipolar_range_us:
        raise DomainError(
            f"residual {residual_us:.2f} us outside the +/-{bipolar_range_us} us range"
        )
    return TimingAdvanceCommand(steps=round(residual_us / step_us), step_size_us=step_us)


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

    one_way = ms_to_us(channel.service_delay_ms + channel.feeder_delay_ms)
    if delay_est_ms is None:
        delay_est_ms = estimate_service_delay(device, si.ephemeris, start_ms / 1000.0)
    advance_ms = precompensate_preamble(delay_est_ms)
    residual_us = 2.0 * (channel.service_delay_ms - delay_est_ms) * 1000.0
    reported_delay_ms = (
        round(delay_est_ms / REPORTED_DELAY_QUANTUM_MS) * REPORTED_DELAY_QUANTUM_MS
    )

    t1 = ms_to_us(start_ms)
    window_start_ms, window_end_ms = schedule_rar_window(
        us_to_ms(t1), si.max_rtt_ms, timing.bs_processing_ms, timing.rar_window_length_ms
    )
    window_start, window_end = ms_to_us(window_start_ms), ms_to_us(window_end_ms)

    messages: list[RaMessage] = []
    times: dict = {"msg1_tx": us_to_ms(t1)}

    def finish(success, cause, latency_us, monitoring_us, ta=None):
        return AccessOutcome(
            success=success,
            cause=cause,
            latency_ms=None if latency_us is None else us_to_ms(latency_us),
            monitoring_ms=us_to_ms(monitoring_us),
            ta_command=ta,
            reported_delay_ms=reported_delay_ms if success else None,
            messages=messages,
            times_ms=times,
        )

    messages.append(
        RaMessage(MessageKind.MSG1_PREAMBLE, us_to_ms(t1), {"precompensation_ms": advance_ms})
    )
    sim.schedule(t1, EventKind.TX_START, "device", "msg1_preamble")

    window_len = window_end - window_start
    if not channel.delivers(MessageKind.MSG1_PREAMBLE):
        sim.schedule(window_end, EventKind.TIMER_FIRE, "device", "rar_window_expiry")
        return finish(False, FailureCause.RAR_TIMEOUT, None, window_len)

    msg1_arr = t1 + one_way
    sim.schedule(
        msg1_arr, EventKind.RX_ARRIVAL, "bs", f"msg1_preamble residual_us={residual_us:.3f}"
    )
    times["msg1_arrival"] = us_to_ms(msg1_arr)

    try:
        ta = build_ta_command(residual_us)
    except DomainError:
        sim.schedule(
            msg1_arr + ms_to_us(timing.bs_processing_ms),
            EventKind.MEASUREMENT,
            "bs",
            "ta_out_of_range",
        )
        return finish(False, FailureCause.TA_RANGE, None, window_len)

    msg2_tx = max(msg1_arr + ms_to_us(timing.bs_processing_ms), window_start - one_way)
    msg2_arr = msg2_tx + one_way
    messages.append(
        RaMessage(
            MessageKind.MSG2_RAR,
            us_to_ms(msg2_tx),
            {"ta_steps": ta.steps, "ul_grant_ms": us_to_ms(msg2_tx) + si.max_rtt_ms},
        )
    )
    sim.schedule(msg2_tx, EventKind.TX_START, "bs", "msg2_rar")

    if not channel.delivers(MessageKind.MSG2_RAR) or msg2_arr > window_end:
        sim.schedule(window_end, EventKind.TIMER_FIRE, "device", "rar_window_expiry")
        return finish(False, FailureCause.RAR_TIMEOUT, None, window_len, ta)

    sim.schedule(msg2_arr, EventKind.RX_ARRIVAL, "device", f"msg2_rar ta_steps={ta.steps}")
    times["msg2_arrival"] = us_to_ms(msg2_arr)
    rar_monitoring = msg2_arr - window_start

    total_advance_us = advance_ms * 1000.0 + ta.advance_us
    if total_advance_us < 0:
        raise DomainError("aggregate timing advance became negative")
    device.timing_advance_us = total_advance_us

    # Msg3 grant dimensioned by the cell's maximum supported RTT.
    msg3_tx = msg2_tx + ms_to_us(si.max_rtt_ms + timing.device_processing_ms) - one_way
    msg3_arr = msg3_tx + one_way
    messages.append(
        RaMessage(
            MessageKind.MSG3_RRC_CONNECTION_REQUEST,
            us_to_ms(msg3_tx),
            {"reported_delay_ms": reported_delay_ms},
        )
    )
    sim.schedule(
        msg3_tx, EventKind.TX_START, "device", f"msg3 reported_delay_ms={reported_delay_ms:.1f}"
    )
    times["msg3_tx"] = us_to_ms(msg3_tx)

    cr_start = msg3_tx + ms_to_us(timers.ntn_start_offset_ms)
    cr_end = cr_start + ms_to_us(timers.contention_resolution_ms)
    device.active_timers["contention_resolution"] = (us_to_ms(cr_start), us_to_ms(cr_end))
    times["cr_timer_start"] = us_to_ms(cr_start)

    if not channel.delivers(MessageKind.MSG3_RRC_CONNECTION_REQUEST):
        sim.schedule(cr_end, EventKind.TIMER_FIRE, "device", "contention_resolution_expiry")
        return finish(
            False, FailureCause.CR_TIMEOUT, None, rar_monitoring + (cr_end - cr_start), ta
        )

    sim.schedule(msg3_arr, EventKind.RX_ARRIVAL, "bs", "msg3_rrc_connection_request")

    msg4_tx = msg3_arr + ms_to_us(timing.bs_processing_ms)
    msg4_arr = msg4_tx + one_way
    messages.append(
        RaMessage(MessageKind.MSG4_CONTENTION_RESOLUTION, us_to_ms(msg4_tx), {"contention_id": 0})
    )
    sim.schedule(msg4_tx, EventKind.TX_START, "bs", "msg4_contention_resolution")

    if not channel.delivers(MessageKind.MSG4_CONTENTION_RESOLUTION) or msg4_arr > cr_end:
        sim.schedule(cr_end, EventKind.TIMER_FIRE, "device", "contention_resolution_expiry")
        return finish(
            False, FailureCause.CR_TIMEOUT, None, rar_monitoring + (cr_end - cr_start), ta
        )

    sim.schedule(msg4_arr, EventKind.RX_ARRIVAL, "device", "msg4_contention_resolution")
    times["msg4_arrival"] = us_to_ms(msg4_arr)
    device.rrc_state = RrcState.CONNECTED
    device.active_timers.pop("contention_resolution", None)

    monitoring = rar_monitoring + (msg4_arr - cr_start)
    return finish(True, None, msg4_arr - t1, monitoring, ta)


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
    best = None
    for orbit in eph.orbits:
        t_eval = max(orbit.epoch_s, t_s - eph.staleness_s)
        sample = geometry_sample(propagate(orbit, t_eval), device.gnss_position, fc_hz)
        if best is None or sample.elevation_deg > best.elevation_deg:
            best = sample
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
