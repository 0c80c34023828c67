"""Deterministic scenario engine binding geometry, link budget and the
access/data procedures.  Its one seeded stream draws each message's GNSS
error and log-normal fade (both off by default): no other randomness.
The draws are ``random.Random(seed).gauss`` values, formed as arrays from
one read of the generator's words.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import LinkCfg, ScenarioConfig
from .constants import SPEED_OF_LIGHT_M_S
from .errors import ConfigError, DomainError
from .events import _RX, _TX, Simulator, checked_us, ms_to_us, ms_to_us_array
from .events import record, us_to_ms
# earth_fixed_beam_schedule, geometry_sample, propagate and run_random_access
# stay importable from here (unused): perfbench/tracing.py patches them.
from .geometry import earth_fixed_beam_schedule, geometry_sample, propagate, slant_range  # noqa: F401
from .linkbudget import LinkBudgetParams, LinkDirection, fspl, snr
from .protocol import PATH_CAUSES, PATH_SUCCESS, AccessOutcome, Attempts, BentPipeChannel
from .protocol import access_attempts, run_random_access  # noqa: F401


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
    offsets, records, end = _harq_events(n_blocks, n_processes, tti_ms, rtt_ms, ack_processing_ms)
    sim.append(start_us + offsets, range(len(records)), records)
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
    offsets, records, end = _rlc_events(n_pdus, window_pdus, tti_ms, rtt_ms)
    sim.append(start_us + offsets, range(len(records)), records)
    return start_us + end


# A transfer's event times are its start plus offsets that depend only on
# its arguments, so a transfer is worked out relative to 0 and logged at its
# start, by the functions above, or after each successful attempt, by
# run_scenario.  With T = ms_to_us(tti_ms), h = BentPipeChannel.one_way_us
# (rtt_ms) and A = ms_to_us(ack_ms), unit u (a HARQ block or an RLC PDU) is
# sent at s(u) = u*T + (u // G)*W, and each of its events falls a fixed sum
# of T, h and A after s(u):
# - HARQ: G = P processes, W = max(0, 2h + A - (P - 1)T); block b runs on
#   process b mod P, and its data tx, data rx, ACK tx and ACK rx fall at
#   s, s + T + h, s + T + h + A and s + T + 2h + A.
# - RLC: G = the window, W = 2h; PDU tx and rx fall at s and s + T + h, and
#   a window's status report goes at its last PDU's arrival and arrives h
#   later.
# Each transfer ends at its last event: the last ACK or status arrival.


def _unit_offsets(n_units: int, group: int, tti: int, wait: int, after_send: list):
    """(offsets, end): the int64 matrix of unit u's events, sent at s(u) =
    u*tti + (u // group)*wait plus ``after_send``, and the last of them,
    s(n_units - 1) + after_send[-1], which is range-checked in Python ints
    before any numpy arithmetic.  ``group`` is at most ``n_units``."""
    end = checked_us((n_units - 1) * tti + (n_units - 1) // group * wait + after_send[-1])
    u = np.arange(n_units, dtype=np.int64)
    return (u * tti + u // group * wait)[:, None] + np.array(after_send), end


def _harq_events(n_blocks: int, n_processes: int, tti_ms: float, rtt_ms: float, ack_ms: float):
    """(offsets_us, records, end_us) of a HARQ transfer started at 0."""
    if n_blocks < 1 or n_processes < 1:
        raise DomainError("need at least one block and one process")
    tti, hop, ack = ms_to_us(tti_ms), BentPipeChannel.one_way_us(rtt_ms), ms_to_us(ack_ms)
    after_send = [0, tti + hop, tti + hop + ack, tti + 2 * hop + ack]
    # Processes beyond the block count never run; with no round trip at all,
    # each ACK arrives as its block goes and process 0 takes every block.
    n_processes = min(n_processes, n_blocks) if after_send[-1] else 1
    wait = max(0, 2 * hop + ack - (n_processes - 1) * tti)
    offsets, end = _unit_offsets(n_blocks, n_processes, tti, wait, after_send)
    records = tuple(
        record(entity, kind, f"harq_{what} block={b} proc={b % n_processes}")
        for b in range(n_blocks)
        for entity, kind, what in (
            ("device", _TX, "data"), ("bs", _RX, "data"), ("bs", _TX, "ack"), ("device", _RX, "ack")
        )
    )
    return offsets.ravel(), records, end


def _rlc_events(n_pdus: int, window_pdus: int, tti_ms: float, rtt_ms: float):
    """(offsets_us, records, end_us) of an RLC transfer started at 0."""
    if n_pdus < 1 or window_pdus < 1:
        raise DomainError("need at least one PDU and a window of at least one PDU")
    tti, hop = ms_to_us(tti_ms), BentPipeChannel.one_way_us(rtt_ms)
    window = min(window_pdus, n_pdus)
    offsets, end = _unit_offsets(
        n_pdus, window, tti, 2 * hop, [0, tti + hop, tti + hop, tti + 2 * hop]
    )
    # A PDU's status pair is logged only if it closes its window.
    upto = np.arange(1, n_pdus + 1)
    closes = (upto % window == 0) | (upto == n_pdus)
    logged = np.ones(offsets.shape, bool)
    logged[:, 2:] = closes[:, None]
    records = []
    for sn, last in enumerate(closes.tolist()):
        pdu = f"rlc_pdu sn={sn}"
        records += [record("device", _TX, pdu), record("bs", _RX, pdu)]
        if last:
            status = f"rlc_status upto={sn + 1}"
            records += [record("bs", _TX, status), record("device", _RX, status)]
    return offsets[logged], tuple(records), end


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
        """The fields in order, floats rounded to 6 places, causes sorted."""
        out = asdict(self)
        out["failure_causes"] = dict(sorted(self.failure_causes.items()))
        return {k: round(v, 6) if isinstance(v, float) else v for k, v in out.items()}


@dataclass
class ScenarioResult:
    report: MetricsReport
    trace: Simulator  # read in (time, seq) order; write it with trace.write_csv
    attempts: Attempts  # per message

    @property
    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        return self.trace.trace_rows()

    @property
    def outcomes(self) -> list[AccessOutcome]:
        return self.attempts.outcomes()


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
        if link.direction is LinkDirection.DOWNLINK:
            dl = value
        else:
            ul = value
    return dl, ul


def _message_draws(seed: int, n: int, sigmas: tuple[float, ...]) -> np.ndarray:
    """(n, len(sigmas)) float64: message i's draw for each sigma, exactly
    ``random.Random(seed).gauss(0.0, sigma)`` called message by message and
    sigma by sigma, a sigma of 0 drawing nothing and giving +0.0.

    The generator's 32-bit words are read at once, and each value is formed
    as ``random()`` and ``gauss`` form it.  ``math`` gives the log, cos and
    sin, because numpy's differ from libm in the last bit for some values;
    the other operations are correctly rounded in both.
    """
    drawn = [sigma > 0 for sigma in sigmas]
    per_message = sum(drawn)
    count = n * per_message
    pairs = -(-count // 2)
    # getrandbits puts the first word generated least significant, on any host.
    bits = random.Random(seed).getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
    words = np.frombuffer(bits, "<u4")
    # random(): 53 bits from two words, exact in float64.
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
    # gauss(): cos and then sin of one angle, each times one radius.
    angle = (u[0::2] * (2.0 * math.pi)).tolist()
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs))
    z = np.empty(2 * pairs)
    z[0::2] = np.fromiter(map(math.cos, angle), float, pairs) * radius
    z[1::2] = np.fromiter(map(math.sin, angle), float, pairs) * radius
    draws = np.zeros((n, len(sigmas)))
    draws[:, drawn] = 0.0 + z[:count].reshape(n, per_message) * np.array(sigmas)[drawn]
    return draws


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> ScenarioResult:
    """Run the access + data-transfer scenario; deterministic per seed.

    Message ``i`` starts an independent access attempt at
    ``i * inter_arrival_ms``, with its own GNSS error and fade, drawn in
    message order.  ``access_attempts`` works every exchange out at once
    and logs each successful attempt's data transfer after it, from the
    template ``harq_transfer`` or ``rlc_transfer`` also logs.  Attempts
    may overlap in time when the spacing is shorter than one access plus
    transfer; the trace is then the time-merged union of the attempts.
    """
    if config.access is None:
        raise ConfigError(["config.access: required to run a scenario"])
    if config.traffic is None:
        raise ConfigError(["config.traffic: required to run a scenario"])
    if seed is None:
        seed = config.seed
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    access = config.access
    traffic = config.traffic
    channel = config.channel
    # Msg1 and Msg3 go uplink, so a successful access implies the uplink
    # data closes too.
    link = BentPipeChannel.at(
        config.constellation[0].altitude_km,
        access.service_elevation_deg,
        access.feeder_elevation_deg,
        *_link_snrs(config, access.service_elevation_deg),
        snr_threshold_dl_db=channel.snr_threshold_dl_db,
        snr_threshold_ul_db=channel.snr_threshold_ul_db,
        repetitions=channel.repetitions,
        drop_kinds=frozenset(channel.drop_kinds),
    )
    units, tti = config.transfer_units(), config.transfer.tti_ms
    if config.harq.enabled:
        offsets, records, transfer_us = _harq_events(
            units, config.harq.n_processes, tti, link.rtt_ms, config.transfer.ack_processing_ms
        )
    else:
        offsets, records, transfer_us = _rlc_events(
            units, config.transfer.rlc_window_pdus, tti, link.rtt_ms
        )

    n = traffic.n_messages
    draws = _message_draws(seed, n, (access.gnss_error_m, channel.fading_sigma_db))
    gnss_err_m, fade_db = draws[:, 0], draws[:, 1]
    sim = Simulator()
    attempts = access_attempts(
        sim,
        ms_to_us_array(np.arange(n) * traffic.inter_arrival_ms),
        link,
        fade_db,
        link.service_delay_ms - gnss_err_m / SPEED_OF_LIGHT_M_S * 1000.0,
        access.max_rtt_ms,
        config.timers,
        access,
        transfer=(offsets, records),
    )
    sim.run()

    report = MetricsReport(scenario=config.name, seed=seed)
    report.access_attempts = n
    paths = np.bincount(attempts.path, minlength=len(PATH_CAUSES)).tolist()
    successes = report.access_successes = paths[PATH_SUCCESS]
    report.failure_causes = {
        cause.value: count for cause, count in zip(PATH_CAUSES, paths) if cause and count
    }
    # Exact sums in integer us: every attempt on one path takes the same time.
    monitoring_us = sum(count * us for count, us in zip(paths, attempts.monitoring_us))
    report.monitoring_time_ms = us_to_ms(monitoring_us)
    if successes:
        latency_ms = us_to_ms(attempts.latency_us)
        report.access_latency_p50_ms = report.access_latency_p95_ms = latency_ms
        report.access_latency_max_ms = latency_ms
    report.transferred_bits = successes * traffic.message_size_bits
    report.transfer_time_ms = us_to_ms(successes * transfer_us)
    if report.transfer_time_ms > 0:
        report.goodput_bps = report.transferred_bits / (report.transfer_time_ms / 1000.0)
    return ScenarioResult(report=report, trace=sim, attempts=attempts)
