"""Device and base-station procedures with the NTN adaptations.

Covers the bent-pipe link (delays, round trip, reception), GNSS-aided
delay pre-compensation, the bipolar timing-advance command, RTT-offset
RAR/Msg3 scheduling and timers, autonomous TA and Doppler tracking, and
the HARQ / RLC-ARQ throughput models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, NotReachableError
from .events import _MEASUREMENT, _RX, _TIMER, _TX, Simulator
from .events import checked_us, ms_to_us, record, us_to_ms
from .geometry import GroundPosition, OrbitSpec, doppler_hz, highest_satellite
from .geometry import one_way_delay_ms, slant_range
from .linkbudget import DL_SNR_FLOOR_DB, UL_SNR_FLOOR_DB

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
    ntn_start_offset_ms: Optional[float] = None
    t_reordering_extension_ms: Optional[float] = None

    def __post_init__(self):
        _check_non_negative(
            ("contention resolution timer", self.contention_resolution_ms),
            ("HARQ RTT timer", self.harq_rtt_ms),
            ("base t-reordering", self.t_reordering_ms),
            ("timer start offset", self.ntn_start_offset_ms or 0.0),
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


def repetition_gain_db(repetitions: int) -> float:
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    return 10.0 * math.log10(repetitions)


def reception_ok(snr_db: float, repetitions: int, threshold_db: float, fade_db=0.0):
    """Hard-threshold reception model (boundary inclusive) with a
    10*log10(N) repetition gain; scalar or array."""
    return (snr_db - fade_db) + repetition_gain_db(repetitions) >= threshold_db


_DL_KINDS = frozenset({MessageKind.MSG2_RAR, MessageKind.MSG4_CONTENTION_RESOLUTION})


@dataclass
class BentPipeChannel:
    """True state of a bent-pipe link, device - satellite - gateway: its
    one-way service and feeder delays, and what gets through."""

    service_delay_ms: float
    feeder_delay_ms: float
    snr_dl_db: float = 100.0
    snr_ul_db: float = 100.0
    snr_threshold_dl_db: float = DL_SNR_FLOOR_DB
    snr_threshold_ul_db: float = UL_SNR_FLOOR_DB
    repetitions: int = 1
    drop_kinds: frozenset = frozenset()

    @classmethod
    def at(cls, altitude_km: float, service_el_deg: float, feeder_el_deg: float, *link, **kw):
        """The link via a satellite at ``altitude_km`` that the device and
        the gateway see at these elevations."""
        hops = (service_el_deg, feeder_el_deg)
        return cls(*(one_way_delay_ms(slant_range(el, altitude_km)) for el in hops), *link, **kw)

    @property
    def rtt_ms(self) -> float:
        """Both hops there and back (arXiv 2010.04906; 3GPP TR 36.763)."""
        return 2.0 * (self.service_delay_ms + self.feeder_delay_ms)

    @staticmethod
    def one_way_us(rtt_ms: float) -> int:
        """One way over a link of round trip ``rtt_ms``, in integer us: as
        halving is exact, ``ms_to_us(service + feeder)``."""
        return ms_to_us(rtt_ms / 2)

    def delivers(self, kind: MessageKind, fade_db=0.0):
        """Whether a ``kind`` message gets through a fade; scalar or array."""
        if kind in self.drop_kinds:
            return False
        if kind in _DL_KINDS:
            return reception_ok(self.snr_dl_db, self.repetitions, self.snr_threshold_dl_db, fade_db)
        return reception_ok(self.snr_ul_db, self.repetitions, self.snr_threshold_ul_db, fade_db)


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


def estimate_service_delay(device: DeviceContext, eph: Ephemeris, t_s: float) -> float:
    """One-way service-link delay (ms) as the device would compute it.

    Uses ``highest_satellite`` above the device's (possibly erroneous)
    GNSS fix, from the ephemeris at ``t - staleness``, which bounds the
    estimation error by (gnss_error + staleness * |range rate|) / c.
    """
    index, _, d, _ = highest_satellite(eph.orbits, t_s - eph.staleness_s, device.gnss_position, 0.0)
    if index < 0:
        raise NotReachableError("no satellite above the horizon")
    return float(one_way_delay_ms(d))


def precompensate_preamble(delay_est_ms: float) -> float:
    """Transmit advance (ms) for the random access preamble.

    The device compensates the round trip over the service link; the
    feeder-link delay is a common offset absorbed at the gateway.  Scalar
    or array.
    """
    if np.any(delay_est_ms < 0):
        raise DomainError("delay estimate must be non-negative")
    return 2.0 * delay_est_ms


def delay_residual(service_delay_ms: float, delay_est_ms: float) -> tuple[float, float]:
    """(residual_us, reported_delay_ms) of a delay estimate: the round-trip
    misalignment left after the preamble advance, and the delay the device
    reports in Msg3, quantized to 0.1 ms.  Scalar or array."""
    residual_us = (2.0 * service_delay_ms - precompensate_preamble(delay_est_ms)) * 1000.0
    reported_delay_ms = (
        np.rint(delay_est_ms / REPORTED_DELAY_QUANTUM_MS) * REPORTED_DELAY_QUANTUM_MS
    )
    return residual_us, reported_delay_ms


def quantize_ta(residual_us):
    """(in_range, steps) of a signed residual misalignment, scalar or array:
    whether it lies in the bipolar TA range, and its TA steps (0 if not)."""
    in_range = np.abs(residual_us) <= TA_BIPOLAR_RANGE_US
    steps = np.rint(np.where(in_range, residual_us, 0.0) / TA_STEP_US).astype(np.int64)
    return in_range, steps


def build_ta_command(residual_us: float) -> TimingAdvanceCommand:
    """Quantize a signed residual misalignment into a bipolar TA command."""
    in_range, steps = quantize_ta(residual_us)
    if not in_range:
        raise DomainError(
            f"residual {residual_us:.2f} us outside the +/-{TA_BIPOLAR_RANGE_US} us range"
        )
    return TimingAdvanceCommand(steps=int(steps))


def schedule_rar_window(
    preamble_tx_ms: float,
    max_rtt_ms: float,
    processing_delay_ms: float = 4.0,
    window_length_ms: float = MAX_CONTENTION_RESOLUTION_MS,
) -> tuple[float, float]:
    """RAR monitoring window, shifted by the cell's maximum supported RTT;
    every argument and result in one unit (ms, or integer us)."""
    if max_rtt_ms < 0:
        raise DomainError("max RTT must be non-negative")
    start = preamble_tx_ms + max_rtt_ms + processing_delay_ms
    return start, start + window_length_ms


# The slots of one attempt's access events: the exchange's seven messages
# in the order it sends and receives them, then the four events that can
# end an attempt.
(MSG1_TX, MSG1_RX, MSG2_TX, MSG2_RX, MSG3_TX, MSG3_RX, MSG4_TX,
 TA_OUT, RAR_EXPIRY, CR_EXPIRY, MSG4_RX) = range(11)

# An attempt's path indexes PATH_CAUSES: success, then the three failures.
PATH_SUCCESS, PATH_RAR_TIMEOUT, PATH_TA_RANGE, PATH_CR_TIMEOUT = range(4)
PATH_CAUSES = (None, FailureCause.RAR_TIMEOUT, FailureCause.TA_RANGE, FailureCause.CR_TIMEOUT)

# An attempt's stage is how many of these checks it passes in turn: Msg1
# received, TA in range, Msg2 inside the RAR window, Msg3 received, Msg4
# before CR expiry.  A stage's row: its path, how many message slots it
# logs (the first ones), and the slot that ends it.
_STAGES = (
    (PATH_RAR_TIMEOUT, 1, RAR_EXPIRY),
    (PATH_TA_RANGE, 2, TA_OUT),
    (PATH_RAR_TIMEOUT, 3, RAR_EXPIRY),
    (PATH_CR_TIMEOUT, 5, CR_EXPIRY),
    (PATH_CR_TIMEOUT, 7, CR_EXPIRY),
    (PATH_SUCCESS, 7, MSG4_RX),
)
_SLOTS = np.arange(MSG4_RX + 1)
_STAGE_PATHS = np.array([path for path, _, _ in _STAGES])
_STAGE_LOGS = np.array([(_SLOTS < n) | (_SLOTS == end) for _, n, end in _STAGES])

# The record of each slot with a fixed detail.  The other three slots carry
# a per-attempt detail (residual, TA steps, reported delay), which gets one
# record per distinct value in a call, so a long scenario's log holds no
# per-attempt copies.
_SLOT_RECORDS = {
    MSG1_TX: record("device", _TX, "msg1_preamble"),
    TA_OUT: record("bs", _MEASUREMENT, "ta_out_of_range"),
    MSG2_TX: record("bs", _TX, "msg2_rar"),
    RAR_EXPIRY: record("device", _TIMER, "rar_window_expiry"),
    MSG3_RX: record("bs", _RX, "msg3_rrc_connection_request"),
    MSG4_TX: record("bs", _TX, "msg4_contention_resolution"),
    CR_EXPIRY: record("device", _TIMER, "contention_resolution_expiry"),
    MSG4_RX: record("device", _RX, "msg4_contention_resolution"),
}


@dataclass(frozen=True, eq=False)
class Attempts:
    """Per-attempt results of ``access_attempts``, one array element per
    attempt, and what all attempts over the link share: the latency of a
    success and the monitoring time of each path, in integer us.
    ``ta_steps`` is valid only where ``ta_built`` (the base station built a
    TA command)."""

    path: np.ndarray
    ta_steps: np.ndarray
    ta_built: np.ndarray
    reported_delay_ms: np.ndarray
    latency_us: int
    monitoring_us: tuple[int, int, int, int]  # indexed by path

    def outcomes(self) -> list[AccessOutcome]:
        return [
            AccessOutcome(
                success=path == PATH_SUCCESS,
                cause=PATH_CAUSES[path],
                latency_ms=us_to_ms(self.latency_us) if path == PATH_SUCCESS else None,
                monitoring_ms=us_to_ms(self.monitoring_us[path]),
                ta_command=TimingAdvanceCommand(steps) if built else None,
                reported_delay_ms=reported if path == PATH_SUCCESS else None,
            )
            for path, steps, built, reported in zip(
                *(column.tolist() for column in (
                    self.path, self.ta_steps, self.ta_built, self.reported_delay_ms,
                ))
            )
        ]


def _response_tx(request_arr: int, bs_proc: int, monitor_start: int, one_way: int) -> int:
    """When the base station answers Msg1 or Msg3: ``bs_proc`` after it arrives,
    held so the answer arrives as the device starts to monitor, not before."""
    return max(request_arr + bs_proc, monitor_start - one_way)


def access_attempts(
    sim: Simulator,
    t1: np.ndarray,
    channel: BentPipeChannel,
    fade_db,
    delay_est_ms: np.ndarray,
    max_rtt_ms: float,
    timers: TimerConfig,
    timing: AccessTiming,
    transfer: tuple[np.ndarray, tuple] = (np.zeros(0, np.int64), ()),
) -> Attempts:
    """The four-message exchange of independent attempts, in closed form.

    ``t1`` holds each attempt's preamble transmit time (integer us),
    ``channel`` the link, ``fade_db`` each attempt's fade on it (scalar or
    array), and ``delay_est_ms`` the device's estimate of the service-link
    delay.  Each duration is rounded to integer us once and every event time
    is ``t1`` plus a sum of those integers, so all attempts share one
    timeline of offsets from Msg1; only which events happen differs.  Every
    attempt's events are logged to ``sim`` in one append: attempt by
    attempt, each in the order the exchange decides them, and after a
    successful one its data ``transfer``, a template of (offsets_us,
    records) started the device processing time after Msg4 arrives.
    """
    d1, d2, d3, d4 = (
        np.broadcast_to(channel.delivers(kind, fade_db), t1.shape) for kind in MessageKind
    )
    residual_us, reported_delay_ms = delay_residual(channel.service_delay_ms, delay_est_ms)
    in_range, ta_steps = quantize_ta(residual_us)

    # The timeline, in Python ints: offsets from Msg1's transmission.
    one_way = channel.one_way_us(channel.rtt_ms)
    max_rtt, bs_proc, dev_proc, window_len = map(ms_to_us, (
        max_rtt_ms, timing.bs_processing_ms, timing.device_processing_ms,
        timing.rar_window_length_ms,
    ))
    window_start, window_end = schedule_rar_window(0, max_rtt, bs_proc, window_len)
    msg2_tx = _response_tx(one_way, bs_proc, window_start, one_way)
    msg2_arr = msg2_tx + one_way
    # Msg3 grant dimensioned by the cell's maximum supported RTT.
    msg3_tx = msg2_tx + max_rtt + dev_proc - one_way
    msg3_arr = msg3_tx + one_way
    cr_offset, cr_len = map(ms_to_us, apply_timer_rules(timers, max_rtt_ms, TimerEvent.MSG3_SENT))
    cr_start = msg3_tx + cr_offset
    cr_end = cr_start + cr_len
    msg4_tx = _response_tx(msg3_arr, bs_proc, cr_start, one_way)
    msg4_arr = msg4_tx + one_way
    offsets = [
        0, one_way, msg2_tx, msg2_arr, msg3_tx, msg3_arr, msg4_tx,
        one_way + bs_proc, window_end, cr_end, msg4_arr,
    ]
    transfer_offsets, transfer_records = transfer
    transfer_start = msg4_arr + dev_proc
    checked_us(max(offsets + [transfer_start + int(transfer_offsets.max(initial=0))]))

    msg2_in_time, msg4_in_time = msg2_arr <= window_end, msg4_arr <= cr_end
    passed = np.stack([d1, in_range, d2 & msg2_in_time, d3, d4 & msg4_in_time], axis=1)
    stage = np.logical_and.accumulate(passed, axis=1).sum(axis=1)
    path, logged = _STAGE_PATHS[stage], _STAGE_LOGS[stage]
    success = path == PATH_SUCCESS
    # Each path's monitoring time, in PATH_CAUSES order.
    rar_monitoring = msg2_arr - window_start
    monitoring = (
        rar_monitoring + msg4_arr - cr_start, window_len, window_len, rar_monitoring + cr_len
    )

    times = t1[:, None] + np.array(offsets, np.int64)
    # Each logged event's record, as an index into `table`.
    table = list(_SLOT_RECORDS.values())
    codes = np.empty(times.shape, np.int64)
    codes[:, list(_SLOT_RECORDS)] = np.arange(len(table))
    for slot, values, entity, kind, detail in (
        (MSG1_RX, residual_us, "bs", _RX, "msg1_preamble residual_us={:.3f}"),
        (MSG2_RX, ta_steps, "device", _RX, "msg2_rar ta_steps={}"),
        (MSG3_TX, reported_delay_ms, "device", _TX, "msg3 reported_delay_ms={:.1f}"),
    ):
        # Distinct bit patterns, so -0.0 keeps its own "-0.000" detail.
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        codes[:, slot] = len(table) + inverse.reshape(-1)
        table += [
            record(entity, kind, detail.format(v)) for v in distinct.view(values.dtype).tolist()
        ]

    # Each attempt's access events, then its transfer template on success,
    # at consecutive log positions starting at `base`.
    n_access = logged.sum(axis=1)
    sizes = n_access + len(transfer_offsets) * success
    base = np.cumsum(sizes) - sizes
    log_times = np.empty(int(sizes.sum()), np.int64)
    log_codes = np.empty(len(log_times), np.int64)
    at = (base[:, None] + np.cumsum(logged, axis=1) - 1)[logged]
    log_times[at] = times[logged]
    log_codes[at] = codes[logged]
    at = (base + n_access)[success][:, None] + np.arange(len(transfer_offsets))
    log_times[at] = t1[success][:, None] + (transfer_start + transfer_offsets)
    log_codes[at] = len(table) + np.arange(len(transfer_offsets))
    sim.append(log_times, log_codes, table + list(transfer_records))
    return Attempts(path, ta_steps, stage >= 2, reported_delay_ms, msg4_arr, monitoring)


def run_random_access(
    device: DeviceContext,
    si: SystemInformation,
    channel: BentPipeChannel,
    timers: TimerConfig = TimerConfig(),
    timing: AccessTiming = AccessTiming(),
    sim: Optional[Simulator] = None,
    start_ms: float = 0.0,
    delay_est_ms: Optional[float] = None,
) -> AccessOutcome:
    """Execute the four-message access exchange over a bent-pipe channel.

    ``channel`` supplies the true one-way service/feeder delays and
    decides message delivery; ``delay_est_ms`` overrides the
    ephemeris-based estimate.  One attempt of ``access_attempts``.
    """
    if device.rrc_state is not RrcState.IDLE:
        raise DomainError("random access requires an idle device")
    if sim is None:
        sim = Simulator()
    if delay_est_ms is None:
        delay_est_ms = estimate_service_delay(device, si.ephemeris, start_ms / 1000.0)
    (outcome,) = access_attempts(
        sim,
        np.array([ms_to_us(start_ms)], np.int64),
        channel,
        0.0,
        np.array([delay_est_ms]),
        si.max_rtt_ms,
        timers,
        timing,
    ).outcomes()
    if outcome.cause in (None, FailureCause.CR_TIMEOUT):  # the RAR arrived
        advance_us = precompensate_preamble(delay_est_ms) * 1000.0 + outcome.ta_command.advance_us
        if advance_us < 0:
            raise DomainError("aggregate timing advance became negative")
        device.timing_advance_us = advance_us
    if outcome.success:
        device.rrc_state = RrcState.CONNECTED
    return outcome


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
    if fc_hz <= 0:
        raise DomainError("carrier frequency must be positive")
    index, _, _, rr = highest_satellite(eph.orbits, t_s - eph.staleness_s, device.gnss_position)
    if index < 0:
        raise NotReachableError("empty ephemeris")
    offset = float(-doppler_hz(rr, fc_hz))
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

    Contention-resolution and HARQ-RTT starts are delayed by the RTT, the
    former by ``ntn_start_offset_ms`` instead where that is set;
    t-reordering keeps its start but gets a duration extension (default:
    the RTT rounded up to 10 ms).
    """
    if rtt_ms < 0:
        raise DomainError("RTT must be non-negative")
    if event is TimerEvent.MSG3_SENT:
        offset = cfg.ntn_start_offset_ms
        return (rtt_ms if offset is None else offset), cfg.contention_resolution_ms
    if event is TimerEvent.UL_DATA_DONE:
        return rtt_ms, cfg.harq_rtt_ms
    extension = cfg.t_reordering_extension_ms
    if extension is None:
        extension = math.ceil(rtt_ms / 10.0) * 10.0
    return 0.0, cfg.t_reordering_ms + extension
