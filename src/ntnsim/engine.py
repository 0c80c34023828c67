"""Deterministic scenario engine binding geometry, link budget and the
access/data procedures.

Reception is a hard SNR threshold with a 10*log10(N) repetition gain; an
optional seeded log-normal shadow-fading term (off by default) is the
only source of randomness.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .config import LinkCfg, ScenarioConfig
from .constants import SPEED_OF_LIGHT_M_S
from .errors import ConfigError, DomainError
from .events import _RX, _TX, Simulator, ms_to_us, record, us_to_ms
# geometry_sample, propagate and run_random_access stay importable from this
# module (unused here): perfbench/tracing.py patches them to count calls.
from .geometry import (  # noqa: F401
    GroundPosition,
    OrbitKind,
    OrbitSpec,
    _sweep_times,
    geometry_sample,
    geometry_samples,
    one_way_delay_ms,
    propagate,
    propagate_many,
    slant_range,
)
from .linkbudget import DL_SNR_FLOOR_DB, UL_SNR_FLOOR_DB, LinkBudgetParams, fspl, snr
from .protocol import (  # noqa: F401
    AccessOutcome,
    MessageKind,
    access_outcome,
    access_timeline,
    delay_residual,
    run_random_access,
)


def repetition_gain_db(repetitions: int) -> float:
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    return 10.0 * math.log10(repetitions)


def reception_ok(snr_db: float, repetitions: int, threshold_db: float) -> bool:
    """Hard-threshold reception model (boundary inclusive)."""
    return snr_db + repetition_gain_db(repetitions) >= threshold_db


_DL_KINDS = frozenset({MessageKind.MSG2_RAR, MessageKind.MSG4_CONTENTION_RESOLUTION})


@dataclass
class BentPipeChannel:
    """True link state seen by the access procedure."""

    service_delay_ms: float
    feeder_delay_ms: float
    snr_dl_db: float = 100.0
    snr_ul_db: float = 100.0
    snr_threshold_dl_db: float = DL_SNR_FLOOR_DB
    snr_threshold_ul_db: float = UL_SNR_FLOOR_DB
    repetitions: int = 1
    drop_kinds: frozenset = frozenset()

    @property
    def rtt_ms(self) -> float:
        return 2.0 * (self.service_delay_ms + self.feeder_delay_ms)

    def delivers(self, kind: MessageKind) -> bool:
        if kind in self.drop_kinds:
            return False
        if kind in _DL_KINDS:
            return reception_ok(self.snr_dl_db, self.repetitions, self.snr_threshold_dl_db)
        return reception_ok(self.snr_ul_db, self.repetitions, self.snr_threshold_ul_db)


def harq_transfer(
    sim: Simulator,
    start_us: int,
    n_blocks: int,
    n_processes: int,
    tti_ms: float,
    rtt_ms: float,
    ack_processing_ms: float = 0.0,
) -> int:
    """Stop-and-wait transfer with at most ``n_processes`` outstanding
    blocks; returns the time the last acknowledgment arrives."""
    if n_blocks < 1 or n_processes < 1:
        raise DomainError("need at least one block and one process")
    events, end = _harq_events(n_blocks, n_processes, tti_ms, rtt_ms, ack_processing_ms)
    sim.replay(start_us, events)
    return start_us + end


def rlc_transfer(
    sim: Simulator,
    start_us: int,
    n_pdus: int,
    window_pdus: int,
    tti_ms: float,
    rtt_ms: float,
) -> int:
    """Windowed transfer with a status poll on the last PDU of each
    window; returns the arrival time of the final status report."""
    if n_pdus < 1 or window_pdus < 1:
        raise DomainError("need at least one PDU and a window of at least one PDU")
    events, end = _rlc_events(n_pdus, window_pdus, tti_ms, rtt_ms)
    sim.replay(start_us, events)
    return start_us + end


# A transfer's event times are its start plus offsets that depend only on
# its arguments (every process is free at the start), so each argument set
# is worked out once, relative to 0, and replayed per call.  The caches are
# keyed on the ms arguments; the timings become integer us inside.


@functools.lru_cache(maxsize=64)
def _harq_events(n_blocks: int, n_processes: int, tti_ms: float, rtt_ms: float, ack_ms: float):
    """((offset_us, record), ...) of a HARQ transfer started at 0, and the
    offset of its last acknowledgment."""
    tti, one_way, ack_proc = ms_to_us(tti_ms), ms_to_us(rtt_ms) // 2, ms_to_us(ack_ms)
    events = []
    proc_free = [0] * n_processes
    tx_free = 0
    last_ack = 0
    for block in range(n_blocks):
        p = min(range(n_processes), key=lambda i: proc_free[i])
        t_tx = max(tx_free, proc_free[p])
        data, ack = f"harq_data block={block} proc={p}", f"harq_ack block={block} proc={p}"
        tx_end = t_tx + tti
        tx_free = tx_end
        data_arr = tx_end + one_way
        ack_tx = data_arr + ack_proc
        ack_arr = ack_tx + one_way
        events += [
            (t_tx, record("device", _TX, data)),
            (data_arr, record("bs", _RX, data)),
            (ack_tx, record("bs", _TX, ack)),
            (ack_arr, record("device", _RX, ack)),
        ]
        proc_free[p] = ack_arr
        last_ack = max(last_ack, ack_arr)
    return tuple(events), last_ack


@functools.lru_cache(maxsize=64)
def _rlc_events(n_pdus: int, window_pdus: int, tti_ms: float, rtt_ms: float):
    """((offset_us, record), ...) of an RLC transfer started at 0, and the
    offset of its final status report."""
    tti, one_way = ms_to_us(tti_ms), ms_to_us(rtt_ms) // 2
    events = []
    t = 0
    sent = 0
    while sent < n_pdus:
        batch = min(window_pdus, n_pdus - sent)
        for j in range(batch):
            tx = t + j * tti
            pdu = f"rlc_pdu sn={sent + j}"
            events += [
                (tx, record("device", _TX, pdu)),
                (tx + tti + one_way, record("bs", _RX, pdu)),
            ]
        last_arr = t + batch * tti + one_way
        status = f"rlc_status upto={sent + batch}"
        status_arr = last_arr + one_way
        events += [
            (last_arr, record("bs", _TX, status)),
            (status_arr, record("device", _RX, status)),
        ]
        sent += batch
        t = status_arr
    return tuple(events), t


@dataclass(frozen=True)
class ServiceInterval:
    start_s: float
    end_s: float
    satellite_index: int


def earth_fixed_beam_schedule(
    orbits: list[OrbitSpec] | OrbitSpec,
    cell_center: GroundPosition,
    min_elevation_deg: float,
    horizon_s: float | None = None,
    step_s: float = 1.0,
) -> list[ServiceInterval]:
    """Intervals during which each satellite serves an earth-fixed cell.

    The serving satellite is the one with the highest cell-center
    elevation above the threshold; a change of serving satellite starts a
    new interval (a service-link switch).
    """
    if not 0 < step_s < math.inf or not (horizon_s is None or 0 < horizon_s < math.inf):
        raise DomainError("horizon and step must be positive and finite")
    if isinstance(orbits, OrbitSpec):
        orbits = [orbits]
    if not orbits:
        return []
    static = all(
        o.kind is OrbitKind.GEOSYNCHRONOUS and o.inclination_deg == 0.0 for o in orbits
    )
    epoch = max(o.epoch_s for o in orbits)
    if static:
        serving = _serving_satellite(orbits, np.array([epoch]), cell_center, min_elevation_deg)
        if serving[0] < 0:
            return []
        return [ServiceInterval(epoch, math.inf, int(serving[0]))]

    if horizon_s is None:
        horizon_s = max(o.period_s() for o in orbits)
    t = _sweep_times(epoch, horizon_s, step_s)
    serving = _serving_satellite(orbits, t, cell_center, min_elevation_deg)
    # Runs of one serving index; each ends where the next starts, the last
    # at the final step.
    starts = np.concatenate(([0], np.flatnonzero(serving[1:] != serving[:-1]) + 1))
    ends = np.append(starts[1:], len(t) - 1)
    return [
        ServiceInterval(float(t[start]), float(t[end]), int(serving[start]))
        for start, end in zip(starts, ends)
        if serving[start] >= 0
    ]


def _serving_satellite(
    orbits: list[OrbitSpec], t: np.ndarray, cell_center: GroundPosition, min_elevation_deg: float
) -> np.ndarray:
    """Index of the satellite with the highest cell-center elevation at or
    above the threshold at each time (ties go to the later index), or -1."""
    serving = np.full(t.shape, -1)
    best = np.full(t.shape, float(min_elevation_deg))
    for idx, orbit in enumerate(orbits):
        elevation, _, _ = geometry_samples(*propagate_many(orbit, t), cell_center)
        take = elevation >= best
        serving[take] = idx
        best[take] = elevation[take]
    return serving


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    access_attempts: int = 0
    access_successes: int = 0
    failure_causes: dict = field(default_factory=dict)
    access_latency_p50_ms: float = 0.0
    access_latency_p95_ms: float = 0.0
    access_latency_max_ms: float = 0.0
    monitoring_time_ms: float = 0.0
    transferred_bits: float = 0.0
    transfer_time_ms: float = 0.0
    goodput_bps: float = 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "access_attempts": self.access_attempts,
            "access_successes": self.access_successes,
            "failure_causes": dict(sorted(self.failure_causes.items())),
            "access_latency_p50_ms": round(self.access_latency_p50_ms, 6),
            "access_latency_p95_ms": round(self.access_latency_p95_ms, 6),
            "access_latency_max_ms": round(self.access_latency_max_ms, 6),
            "monitoring_time_ms": round(self.monitoring_time_ms, 6),
            "transferred_bits": round(self.transferred_bits, 6),
            "transfer_time_ms": round(self.transfer_time_ms, 6),
            "goodput_bps": round(self.goodput_bps, 6),
        }


@dataclass
class ScenarioResult:
    report: MetricsReport
    trace: Simulator  # sorted; write it with trace.write_csv
    # (access_timeline result, reported delay in ms) of each message.
    records: list[tuple]

    @property
    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        return self.trace.trace_rows()

    @property
    def outcomes(self) -> list[AccessOutcome]:
        return [access_outcome(timeline, reported) for timeline, reported in self.records]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def link_snr(link: LinkCfg, distance_km: float, carrier_hz: float, atmospheric_db: float) -> float:
    """SNR (dB) of a configured link over a slant range."""
    return snr(
        LinkBudgetParams(
            eirp_dbw=link.eirp_dbw,
            g_over_t_db_k=link.g_over_t_db_k,
            bandwidth_hz=link.bandwidth_hz,
            fspl_db=fspl(distance_km, carrier_hz / 1e9),
            shadow_fading_db=link.shadow_fading_db,
            scintillation_db=link.scintillation_db,
            atmospheric_db=atmospheric_db,
        )
    )


def _link_snrs(config: ScenarioConfig, elevation_deg: float) -> tuple[float, float]:
    """(downlink, uplink) SNR at the service elevation, worst-case
    atmospheric loss; defaults to a link that always closes."""
    distance = slant_range(elevation_deg, config.constellation[0].altitude_km)
    dl, ul = 100.0, 100.0
    for link in config.links:
        if link.orbit_index != 0:
            continue
        value = link_snr(link, distance, config.carrier_frequency_hz, link.atmospheric_db_max)
        if link.direction == "downlink":
            dl = value
        else:
            ul = value
    return dl, ul


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> ScenarioResult:
    """Run the access + data-transfer scenario; deterministic per seed.

    Message ``i`` starts an independent access attempt at
    ``i * inter_arrival_ms``: its GNSS error and fade are drawn, its access
    exchange is worked out in closed form (``access_timeline``), and a
    successful attempt's data goes out through ``harq_transfer`` or
    ``rlc_transfer``, which replay a cached template.  Attempts may overlap
    in time when the spacing is shorter than one access plus transfer; the
    trace is then the time-merged union of the attempts.
    """
    if config.access is None:
        raise ConfigError(["config.access: required to run a scenario"])
    if config.traffic is None:
        raise ConfigError(["config.traffic: required to run a scenario"])
    if seed is None:
        seed = config.seed
    gauss = random.Random(seed).gauss
    access = config.access
    traffic = config.traffic
    channel = config.channel
    timers = config.timers
    altitude_km = config.constellation[0].altitude_km

    service_delay = one_way_delay_ms(slant_range(access.service_elevation_deg, altitude_km))
    feeder_delay = one_way_delay_ms(slant_range(access.feeder_elevation_deg, altitude_km))
    one_way = ms_to_us(service_delay + feeder_delay)
    rtt_true = 2.0 * (service_delay + feeder_delay)
    units, tti = config.transfer_units(), config.transfer.tti_ms
    if config.harq.enabled:
        transfer = harq_transfer
        transfer_args = (
            units, config.harq.n_processes, tti, rtt_true, config.transfer.ack_processing_ms
        )
    else:
        transfer = rlc_transfer
        transfer_args = (units, config.transfer.rlc_window_pdus, tti, rtt_true)
    snr_dl, snr_ul = _link_snrs(config, access.service_elevation_deg)
    gain = repetition_gain_db(channel.repetitions)
    keep1, keep2, keep3, keep4 = (kind.value not in channel.drop_kinds for kind in MessageKind)
    gnss_sigma, fading_sigma = access.gnss_error_m, channel.fading_sigma_db
    max_rtt = access.max_rtt_ms

    sim = Simulator()
    report = MetricsReport(scenario=config.name, seed=seed)
    causes = report.failure_causes
    records: list[tuple] = []
    latencies: list[float] = []

    for i in range(traffic.n_messages):
        start_ms = i * traffic.inter_arrival_ms
        gnss_err_m = gauss(0.0, gnss_sigma) if gnss_sigma > 0 else 0.0
        fade_db = gauss(0.0, fading_sigma) if fading_sigma > 0 else 0.0
        _, residual_us, reported = delay_residual(
            service_delay, service_delay - gnss_err_m / SPEED_OF_LIGHT_M_S * 1000.0
        )
        # reception_ok with the faded SNRs, as BentPipeChannel.delivers does.
        # Msg1 and Msg3 go uplink, so a successful access implies the uplink
        # data closes too.
        ul_ok = snr_ul - fade_db + gain >= channel.snr_threshold_ul_db
        dl_ok = snr_dl - fade_db + gain >= channel.snr_threshold_dl_db
        timeline = access_timeline(
            sim,
            ms_to_us(start_ms),
            one_way,
            residual_us,
            reported,
            (keep1 and ul_ok, keep2 and dl_ok, keep3 and ul_ok, keep4 and dl_ok),
            max_rtt,
            timers,
            access,
        )
        records.append((timeline, reported))
        cause, latency_us, monitoring_us, _, msg4_arr = timeline
        report.access_attempts += 1
        report.monitoring_time_ms += us_to_ms(monitoring_us)
        if cause is not None:
            causes[cause.value] = causes.get(cause.value, 0) + 1
            continue
        report.access_successes += 1
        latencies.append(us_to_ms(latency_us))
        transfer_start = ms_to_us(us_to_ms(msg4_arr) + access.device_processing_ms)
        end = transfer(sim, transfer_start, *transfer_args)
        report.transferred_bits += traffic.message_size_bits
        report.transfer_time_ms += us_to_ms(end - transfer_start)

    latencies.sort()
    report.access_latency_p50_ms = _percentile(latencies, 0.50)
    report.access_latency_p95_ms = _percentile(latencies, 0.95)
    report.access_latency_max_ms = latencies[-1] if latencies else 0.0
    if report.transfer_time_ms > 0:
        report.goodput_bps = report.transferred_bits / (report.transfer_time_ms / 1000.0)
    sim.run()
    return ScenarioResult(report=report, trace=sim, records=records)

