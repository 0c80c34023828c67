"""Per-layer spans for the traced run.

Wrappers from this file are patched in where ntnsim's callers look a
name up (a module global, a class attribute or the CLI's command table),
so ``src/`` is unchanged.  Each call records a span (name, thread,
start, end, self time, thread CPU time, a count) in memory; a layer's
self time is the span's duration minus the time of spans nested in it on
the same thread.  ``summarize`` turns one pass's spans into the
per-layer metrics named in ``METRICS``.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

from ntnsim import cli, config, engine, events, geometry


class Span(NamedTuple):
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    cpu_s: float
    info: object


def _transfer_blocks(args, result):
    return args[2]  # n_blocks (HARQ) or n_pdus (RLC)


def _access_success(args, result):
    return result.success


def _row_count(args, result):
    return len(result)


# (owner, attribute, span name, info(args, result) or None, record thread CPU)
PATCH_POINTS = [
    (config, "load_config", "config.load", None, False),
    (cli, "load_config", "config.load", None, False),
    (engine, "earth_fixed_beam_schedule", "geometry.sweep", None, False),
    (geometry, "visibility_duration", "geometry.sweep", None, False),
    (geometry, "differential_delay", "geometry.sweep", None, False),
    (geometry, "beam_doppler_profile", "geometry.sweep", None, False),
    (geometry, "geometry_sample", "geometry.sample", None, False),
    (engine, "geometry_sample", "geometry.sample", None, False),
    (geometry, "propagate", "geometry.propagate", None, False),
    (engine, "propagate", "geometry.propagate", None, False),
    (engine, "slant_range", "geometry.slant_range", None, False),
    (engine, "run_scenario", "engine.scenario", None, True),
    (cli, "run_scenario", "engine.scenario", None, True),
    (engine, "run_random_access", "protocol.access", _access_success, False),
    (engine, "harq_transfer", "engine.transfer", _transfer_blocks, False),
    (engine, "rlc_transfer", "engine.transfer", _transfer_blocks, False),
    (engine, "fspl", "linkbudget", None, False),
    (engine, "snr", "linkbudget", None, False),
    (events.Simulator, "schedule", "events.schedule", None, False),
    (events.Simulator, "run", "events.run", None, False),
    (events.Simulator, "trace_rows", "events.trace_rows", _row_count, False),
    (cli, "_write_csv", "cli.write_csv", None, True),
    (cli._COMMANDS, "simulate", "cli.simulate", None, False),
]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, info=None, cpu=False):
        local = self._local
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            c0 = time.thread_time() if cpu else 0.0
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu_s = time.thread_time() - c0 if cpu else 0.0
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                detail = info(args, result) if info is not None and result is not None else None
                tracer.spans.append(
                    Span(name, threading.get_ident(), t0, t1, t1 - t0 - child, cpu_s, detail)
                )

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrapper in; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, info, cpu in PATCH_POINTS:
                original = _get(owner, attr)
                saved.append((owner, attr, original))
                _set(owner, attr, self.wrap(name, original, info, cpu))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)


# name, unit, better, span names whose absence makes the metric not apply
METRICS = [
    ("config.load_calls", "count", "lower", ("config.load",)),
    ("config.load_s", "s", "lower", ("config.load",)),
    ("geometry.samples", "count", "lower", ("geometry.sweep",)),
    ("geometry.propagate_calls", "count", "lower", ("geometry.sweep",)),
    ("geometry.self_s", "s", "lower", ("geometry.sweep", "geometry.slant_range")),
    ("protocol.access_calls", "count", "higher", ("protocol.access",)),
    ("protocol.access_self_s", "s", "lower", ("protocol.access",)),
    ("protocol.access_success_ratio", "ratio", "higher", ("protocol.access",)),
    ("engine.transfer_calls", "count", "higher", ("engine.transfer",)),
    ("engine.transfer_blocks", "count", "higher", ("engine.transfer",)),
    ("engine.transfer_self_s", "s", "lower", ("engine.transfer",)),
    ("engine.scenario_self_s", "s", "lower", ("engine.scenario",)),
    ("events.schedule_calls", "count", "lower", ("events.schedule",)),
    ("events.schedule_s", "s", "lower", ("events.schedule",)),
    ("events.run_s", "s", "lower", ("events.run",)),
    ("events.trace_rows", "count", "lower", ("events.trace_rows",)),
    ("events.trace_rows_s", "s", "lower", ("events.trace_rows",)),
    ("cli.write_s", "s", "lower", ("cli.simulate",)),
    ("cli.bytes_written", "B", "lower", ("cli.simulate",)),
    ("cli.jobs_parallel_eff", "ratio", "higher", ("cli.simulate",)),
    ("linkbudget.calls", "count", "lower", ("linkbudget",)),
    ("linkbudget.self_s", "s", "lower", ("linkbudget",)),
    ("trace.overhead_frac", "ratio", "lower", ()),
]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _cli_metrics(by_name) -> tuple[float, float]:
    """(cli.write_s, cli.jobs_parallel_eff) over the pass's simulate calls.

    write_s is the part of each simulate call that no run_scenario span
    (on any thread) covers.  A seed's busy time is its thread's CPU time
    in its run_scenario plus in the next trace CSV write on that thread;
    the efficiency divides the seeds' busy time by the call's wall time
    times its seed count, so a GIL-bound pool of two reads about 0.5.
    """
    write_s, eff = 0.0, []
    writes = by_name["cli.write_csv"]
    for call in by_name["cli.simulate"]:
        runs = [s for s in by_name["engine.scenario"] if call.start <= s.start and s.end <= call.end]
        write_s += (call.end - call.start) - _union_length((s.start, s.end) for s in runs)
        busy = 0.0
        for run in runs:
            after = [w for w in writes if w.thread == run.thread and run.end <= w.start <= call.end]
            busy += run.cpu_s + (min(after, key=lambda w: w.start).cpu_s if after else 0.0)
        if runs:
            eff.append(busy / ((call.end - call.start) * len(runs)))
    return write_s, (statistics.fmean(eff) if eff else 0.0)


def summarize(spans: list[Span], setup_spans: list[Span], bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass.  Config loads count the
    set-up loads plus the loads made during the pass."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    loads = by_name["config.load"] + [s for s in setup_spans if s.name == "config.load"]
    access = by_name["protocol.access"]
    write_s, parallel_eff = _cli_metrics(by_name)

    def self_time(*names):
        return sum(s.self_s for n in names for s in by_name[n])

    return {
        "config.load_calls": len(loads),
        "config.load_s": sum(s.end - s.start for s in loads),
        "geometry.samples": len(by_name["geometry.sample"]),
        "geometry.propagate_calls": len(by_name["geometry.propagate"]),
        "geometry.self_s": self_time(
            "geometry.sweep", "geometry.sample", "geometry.propagate", "geometry.slant_range"
        ),
        "protocol.access_calls": len(access),
        "protocol.access_self_s": self_time("protocol.access"),
        "protocol.access_success_ratio": (
            sum(1 for s in access if s.info) / len(access) if access else 0.0
        ),
        "engine.transfer_calls": len(by_name["engine.transfer"]),
        "engine.transfer_blocks": sum(s.info or 0 for s in by_name["engine.transfer"]),
        "engine.transfer_self_s": self_time("engine.transfer"),
        "engine.scenario_self_s": self_time("engine.scenario"),
        "events.schedule_calls": len(by_name["events.schedule"]),
        "events.schedule_s": self_time("events.schedule"),
        "events.run_s": sum(s.end - s.start for s in by_name["events.run"]),
        "events.trace_rows": sum(s.info or 0 for s in by_name["events.trace_rows"]),
        "events.trace_rows_s": sum(s.end - s.start for s in by_name["events.trace_rows"]),
        "cli.write_s": write_s,
        "cli.bytes_written": bytes_written,
        "cli.jobs_parallel_eff": parallel_eff,
        "linkbudget.calls": len(by_name["linkbudget"]),
        "linkbudget.self_s": self_time("linkbudget"),
    }


def absent_reasons(spans: list[Span]) -> dict:
    """Why a per-layer metric reads 0: the layer's span never occurred."""
    seen = {s.name for s in spans}
    return {
        name: f"no {'/'.join(needs)} span in this workload"
        for name, _, _, needs in METRICS
        if needs and not seen.intersection(needs)
    }


def write_spans(path, spans: list[Span]) -> None:
    """Spans of one pass as CSV, start/end relative to the first span."""
    origin = min((s.start for s in spans), default=0.0)
    lines = ["name,thread,start_s,end_s,self_s,cpu_s,info"]
    lines += [
        f"{s.name},{s.thread},{s.start - origin:.9f},{s.end - origin:.9f},"
        f"{s.self_s:.9f},{s.cpu_s:.9f},{'' if s.info is None else s.info}"
        for s in spans
    ]
    path.write_text("\n".join(lines) + "\n")
