"""Command-line front end.

Subcommands: linkbudget, geometry, doppler-trace, simulate, rank-cells.
Exit codes: 0 success, 2 config validation failure, 3 runtime failure.
CSV output uses fixed formatting so re-running any command is byte-stable.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .constants import SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S
from .engine import link_snr, run_scenario
from .errors import ConfigError, DomainError, NoCellError, NotReachableError
from .geometry import (
    GroundPosition,
    OrbitKind,
    beam_doppler_profile,
    differential_delay,
    doppler_hz,
    geometry_samples,
    overhead_pass_orbit,
    propagate,
    propagate_many,
    satellite_state_over,
    slant_range,
    visibility_duration,
)
from .linkbudget import LinkDirection, fspl
from .mobility import CellCandidate, cell_suitability, rank_cells
from .protocol import PATH_CAUSES, BentPipeChannel, DeviceContext, Ephemeris, estimate_service_delay

log = logging.getLogger("ntnsim")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cell(value) -> str:
    """A float at 6 places, with no ``-0.000000``; anything else as ``str``."""
    return f"{round(value, 6) + 0.0:.6f}" if isinstance(value, float) else str(value)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> str:
    """Write the CSV of formatted cells to ``path``; returns its text."""
    text = "\n".join(map(",".join, [header, *rows])) + "\n"
    path.write_text(text)
    return text


def _emit(args, name: str, header: list[str], rows: list) -> int:
    """Write ``name``.csv to ``--out`` and print it; a command ends on this."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    cells = [list(map(_cell, row)) for row in rows]
    text = _write_csv(path, header, cells)
    if args.format == "csv":
        sys.stdout.write(text)
    else:
        widths = [max(map(len, column)) for column in zip(header, *cells)]
        for line in [header, *cells]:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return EXIT_OK


def linkbudget_rows(config: ScenarioConfig) -> tuple[list[str], list[list]]:
    """Header and rows of ``ntnsim linkbudget``: each link's FSPL and SNR
    at the config's min (worst) and max (best) elevation."""
    if not config.links:
        raise ConfigError(["config.links: required for the linkbudget command"])
    rows = []
    fc = config.carrier_frequency_hz
    for link in config.links:
        orbit = config.constellation[link.orbit_index]
        d_best = slant_range(config.max_elevation_deg, orbit.altitude_km)
        d_worst = slant_range(config.min_elevation_deg, orbit.altitude_km)
        rows.append(
            [
                link.name,
                link.direction.value,
                fspl(d_worst, fc / 1e9),
                fspl(d_best, fc / 1e9),
                link_snr(link, d_worst, fc, link.atmospheric_db_max),
                link_snr(link, d_best, fc, link.atmospheric_db_min),
            ]
        )
    header = ["link", "direction", "fspl_worst_db", "fspl_best_db", "snr_worst_db", "snr_best_db"]
    return header, rows


def _over_sidereal_day(orbit, ground):
    """Time of day (s), every 60 s over one sidereal day from the epoch,
    and the (elevation, distance, range rate) of ``orbit`` seen from
    ``ground`` at those times."""
    t = np.arange(0.0, SIDEREAL_DAY_S, 60.0)
    return t, geometry_samples(*propagate_many(orbit, orbit.epoch_s + t), ground)


def _beam_satellite(orbit, beam):
    """The satellite that serves a beam: a geosynchronous one at its epoch
    position, any other overhead the beam centre."""
    if orbit.kind is OrbitKind.GEOSYNCHRONOUS:
        return propagate(orbit, orbit.epoch_s)
    return satellite_state_over(beam.center, orbit.altitude_km)


def geometry_rows(config: ScenarioConfig) -> tuple[list[str], list[list]]:
    """Header and rows of ``ntnsim geometry``: per orbit, the RTT envelope,
    the Doppler and visibility of one look at it (a sidereal day from the
    observer for GEO, else a pass overhead the equator at t = 3000 s) and
    the differential delay over the widest beam."""
    rows = []
    fc = config.carrier_frequency_hz
    min_el = config.min_elevation_deg
    max_el = config.max_elevation_deg
    beam = max(config.beams, key=lambda b: b.diameter_km).to_beam() if config.beams else None
    samples, visibility = 0, []
    for idx, orbit in enumerate(config.constellation):
        alt = orbit.altitude_km
        metrics = {
            "rtt_min_ms": BentPipeChannel.at(alt, max_el, max_el).rtt_ms,
            "rtt_max_ms": BentPipeChannel.at(alt, min_el, min_el).rtt_ms,
        }
        if orbit.kind is OrbitKind.GEOSYNCHRONOUS:
            seen, ground = orbit, config.observer
            _, (elevation, _, rr) = _over_sidereal_day(orbit, ground)
        else:
            ground = GroundPosition(0.0, 0.0)
            seen = overhead_pass_orbit(
                orbit.kind, alt, orbit.inclination_deg, ground, overhead_at_s=3000.0
            )
            t = np.arange(2000.0, 4000.0, 1.0)
            elevation, _, rr = geometry_samples(*propagate_many(seen, t), ground)
        above = elevation >= min_el
        always_up = orbit.kind is OrbitKind.GEOSYNCHRONOUS and above.all()
        ppm = float(np.abs(rr[above]).max(initial=0.0)) / SPEED_OF_LIGHT_KM_S * 1e6
        metrics.update(
            max_doppler_ppm=ppm, max_doppler_hz=ppm * 1e-6 * fc, max_delay_drift_us_s=ppm,
            visibility_s=math.inf if always_up else visibility_duration(seen, ground, min_el),
        )
        # The look's samples, then visibility_duration's 1 s grid over a period.
        samples += elevation.size + (0 if always_up else math.ceil(seen.period_s()) + 1)
        visibility.append(metrics["visibility_s"])
        if beam is not None:
            sat = _beam_satellite(orbit, beam)
            try:
                metrics["differential_delay_ms"] = differential_delay(sat, beam)
            except DomainError as exc:
                log.warning("differential delay skipped for orbit %d: %s", idx, exc)
        rows += [[idx, orbit.kind.value, metric, value] for metric, value in metrics.items()]
    log.info("geometry: orbits %d, samples %d, visibility_s %s", len(visibility), samples, visibility)
    return ["orbit", "kind", "metric", "value"], rows


def doppler_trace_rows(config: ScenarioConfig, mode: str) -> tuple[list[str], list]:
    """Header and rows of ``ntnsim doppler-trace --mode``: orbit 0's Doppler
    over a sidereal day (``inclined_geo``), or across beam 0 from the
    satellite that serves it (``beam_profile``)."""
    fc = config.carrier_frequency_hz
    orbit = config.constellation[0]
    if mode == "inclined_geo":
        if orbit.kind is not OrbitKind.GEOSYNCHRONOUS:
            raise ConfigError(["config.constellation[0]: inclined_geo mode needs a geosynchronous orbit"])
        t, (elevation, _, rr) = _over_sidereal_day(orbit, config.observer)
        below = t[elevation < 0]
        if below.size:
            raise DomainError(f"orbit 0 is below the observer's horizon at time_of_day_s {below[0]:g}")
        return ["time_of_day_s", "doppler_hz"], list(zip(t.tolist(), doppler_hz(rr, fc).tolist()))
    if not config.beams:
        raise ConfigError(["config.beams: required for beam_profile mode"])
    beam = config.beams[0].to_beam()
    profile = beam_doppler_profile(_beam_satellite(orbit, beam), beam, fc, n=101)
    return ["offset_km", "doppler_hz"], profile


def cmd_linkbudget(config: ScenarioConfig, args) -> int:
    header, rows = linkbudget_rows(config)
    log.info("linkbudget: links %d, worst SNR %.3f dB", len(rows), min(row[4] for row in rows))
    return _emit(args, "linkbudget", header, rows)


def cmd_geometry(config: ScenarioConfig, args) -> int:
    return _emit(args, "geometry", *geometry_rows(config))


def cmd_doppler_trace(config: ScenarioConfig, args) -> int:
    header, rows = doppler_trace_rows(config, args.mode)
    log.info(
        "doppler-trace: mode %s, rows %d, max |doppler| %.3f Hz",
        args.mode, len(rows), max(abs(hz) for _, hz in rows),
    )
    return _emit(args, f"doppler_trace_{args.mode}", header, rows)


def cmd_simulate(config: ScenarioConfig, args) -> int:
    # A scenario runs over one orbit and that orbit's two links, so a config
    # that it would read only in part is refused before it runs.
    on_orbit_0 = {link.direction for link in config.links if link.orbit_index == 0}
    holes = [
        f"config.links: orbit 0 has no {direction.value}, which simulate needs"
        for direction in LinkDirection
        if direction not in on_orbit_0
    ]
    if len(config.constellation) > 1:
        n = len(config.constellation)
        holes.append(f"config.constellation: simulate runs one orbit, not {n}")
    if holes:
        raise ConfigError(holes)
    base_seed = config.seed if args.seed is None else args.seed
    if base_seed + args.jobs - 1 >= 2**64:
        print(f"--jobs {args.jobs}: seeds from {base_seed} run past 2**64 - 1", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = range(base_seed, base_seed + args.jobs)
    reports = [_simulate_seed(config, seed, out_dir) for seed in seeds]
    header = ["seed", "attempts", "successes", "latency_p50_ms", "goodput_bps"]
    rows = [
        [r.seed, r.access_attempts, r.access_successes, r.access_latency_p50_ms, r.goodput_bps]
        for r in reports
    ]
    return _emit(args, "simulate_summary", header, rows)


def _simulate_seed(config: ScenarioConfig, seed: int, out_dir: Path):
    """Run one seed and write its report and trace to ``out_dir``; returns
    its report.  The seed's trace is freed on return, before the next runs."""
    result = run_scenario(config, seed=seed)
    (out_dir / f"report_seed{seed}.json").write_text(
        json.dumps(result.report.to_dict(), sort_keys=True, indent=2) + "\n"
    )
    with (out_dir / f"trace_seed{seed}.csv").open("w") as fh:
        result.trace.write_csv(fh)
    _log_outcomes(seed, result)
    return result.report


def _log_outcomes(seed: int, result) -> None:
    """INFO: the seed's report counts; DEBUG: each path that occurred, how
    often, and the first message that took it."""
    report = result.report
    log.info(
        "seed %d: %d attempts, %d successes, failure causes %s",
        seed, report.access_attempts, report.access_successes, report.failure_causes,
    )
    if not log.isEnabledFor(logging.DEBUG):
        return
    for path, name in enumerate(cause or "success" for cause in PATH_CAUSES):
        hits = np.flatnonzero(result.attempts.path == path)
        if len(hits):
            log.debug("seed %d: %s: %d messages, the first is message %d", seed, name, len(hits), hits[0])


def cmd_rank_cells(config: ScenarioConfig, args) -> int:
    if not config.cells:
        raise ConfigError(["config.cells: required for the rank-cells command"])
    device = config.observer
    orbits = tuple(config.constellation)
    # The device's own round trip over the highest satellite of any orbit,
    # the feeder link as long as the service link: the same for every cell.
    epoch = max(orbit.epoch_s for orbit in orbits)
    delay = estimate_service_delay(DeviceContext(device), Ephemeris(orbits), epoch)
    est_rtt = BentPipeChannel(delay, delay).rtt_ms
    candidates = [
        CellCandidate(
            cell_id=cell.cell_id,
            cell_center=cell.center(),
            max_rtt_ms=cell.max_rtt_ms,
            estimated_rtt_ms=est_rtt,
        )
        for cell in config.cells
    ]
    suitable = [c for c in candidates if cell_suitability(c)]
    log.info(
        "rank-cells: candidate cells %d, suitable %d, estimated RTT %.3f ms",
        len(candidates), len(suitable), est_rtt,
    )
    if not suitable:
        raise NoCellError("no suitable cells")
    ranked = rank_cells(device, suitable)
    rows = [
        [rank + 1, c.cell_id, c.center_distance_km, c.estimated_rtt_ms, c.max_rtt_ms]
        for rank, c in enumerate(ranked)
    ]
    header = ["rank", "cell_id", "center_distance_km", "estimated_rtt_ms", "max_rtt_ms"]
    return _emit(args, "rank_cells", header, rows)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntnsim",
        description="Narrowband IoT over bent-pipe GEO/LEO satellite links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("linkbudget", "geometry", "doppler-trace", "simulate", "rank-cells"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=_u64, default=None, help="seed override (u64)")
        p.add_argument("--format", choices=("csv", "text"), default="text")
        if name == "simulate":
            p.add_argument(
                "--jobs", type=_positive_int, default=1, help="number of consecutive seeds"
            )
        if name == "doppler-trace":
            p.add_argument(
                "--mode", choices=("inclined_geo", "beam_profile"), default="inclined_geo"
            )
    return parser


_COMMANDS = {
    "linkbudget": cmd_linkbudget,
    "geometry": cmd_geometry,
    "doppler-trace": cmd_doppler_trace,
    "simulate": cmd_simulate,
    "rank-cells": cmd_rank_cells,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("NTNSIM_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"NTNSIM_LOG: unknown level {level!r}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level)
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # a bug: one line, the traceback only at DEBUG
        log.debug("unexpected failure", exc_info=True)
        print(f"runtime failure: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _run(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, NotReachableError, NoCellError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
