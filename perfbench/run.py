#!/usr/bin/env python3
"""Run one ntnsim benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload leo_access_harq --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``leo_access_harq``, ``geo_rlc_sweep``
and ``constellation_geometry``.  The seed selects one of
``workloads.N_VARIANTS`` generated input variants; the program gets only
the generated config files, written under ``.bench_build/perfbench/``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics:

* ``items_per_ref``: work completed per unit of reference time, the
  median over the timed passes of (items in a pass) / (pass time in
  reference units).  A call's time in reference units is its wall time
  divided by the mean duration of ``reference_work()``, a fixed kernel
  that does not touch ntnsim, run just before and just after the call;
  this cancels the machine's own speed changes (see ``reference_work``).
  An item is a simulated message (one access attempt plus its uplink
  transfer; in the sweep, messages x seeds) on the scenario workloads,
  and a (satellite, time, ground point) sample on
  ``constellation_geometry``, counted from the inputs.  The wall-clock
  rate of the same passes is printed above the result as ``msgs_per_s``
  or ``geom_samples_per_s``.
* ``setup_s``: the median, over several fresh processes, of the time to
  ``import ntnsim.cli`` and load the workload's configs through
  ``ntnsim.config``; the first process only warms the bytecode cache.
* ``peak_rss_mb``: ``ru_maxrss`` of this process after its passes.

``error_rate`` (failed calls over attempted calls) is printed by name;
it is 0 when the program is correct, so the result carries it as
``failed`` / ``attempted`` rather than as a metric.  A call fails when it
raises, exits non-zero or its output differs from the reference in
``refs/``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.METRICS``: the (low) median over the
traced passes of each per-pass value, and ``trace.overhead_frac``, the
median traced pass time over the median untraced pass time, minus 1,
both in reference units.

Steadiness: one untimed warm-up pass runs first, so lazy set-up and the
first, faster call do not enter the median.  Before every pass the
benchmark drops the previous output and runs ``gc.collect()``, so each
pass starts from the same heap; the collector stays enabled during the
program's calls, as it is for users, and is off only inside
``reference_work()``, so the reference does not depend on the heap the
program leaves.  The ``--jobs 2`` thread pool is ntnsim's own
and is left as it is: ``geo_rlc_sweep`` calls ``ntnsim.cli.main`` in
this one process, which then runs at most two worker threads.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

# Keep the loop going past --seconds until this many passes are timed,
# unless that would take three times --seconds.
MIN_PASSES = 3
SETUP_PROBES = 10
# Size of reference_work(), roughly 80 ms on a 2-vCPU Xeon VM.
REFERENCE_N = 20000

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import ntnsim.cli
import ntnsim.config
for path in sys.argv[1:]:
    ntnsim.config.load_config(path)
print(repr(time.perf_counter() - t0))
"""


class Calls:
    """Attempted and failed program calls; the first few failures are shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {what}", file=sys.stderr)


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, variant: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "seed": seed,
        "variant": variant,
        "loadavg": list(os.getloadavg()),
    }


class SetupProbe:
    """Times ``import ntnsim.cli`` plus loading the workload's configs in a
    fresh interpreter.  The first probe only warms the bytecode cache."""

    def __init__(self, paths: list[Path], calls: Calls):
        self.argv = [sys.executable, "-c", SETUP_PROBE, *map(str, paths)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.calls = calls
        self.times: list[float] = []
        self.runs = 0
        self.probe()
        self.times.clear()
        self.runs = 0

    def probe(self) -> None:
        self.runs += 1
        self.calls.attempted += 1
        try:
            proc = subprocess.run(
                self.argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
            )
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            self.times.append(float(proc.stdout.split()[-1]))
        except (OSError, subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
            self.calls.fail(f"setup probe: {exc}")


def reference_work() -> float:
    """Run fixed interpreter work (tuples, strings, a heap, float math)
    and fixed small-array numpy work, about half each, that touch no
    ntnsim code, with the collector off; return the duration.

    The machine this benchmark was defined on changes speed by up to 60%
    between stretches of seconds to minutes, so wall-clock throughput
    spreads far more from run to run than any bound can allow.  Each call
    is therefore also measured in units of this kernel's duration, taken
    just before and just after the call.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap, acc = [], 0.0
        for i in range(REFERENCE_N):
            heapq.heappush(heap, (i * 7919 % 10007, str(i)))
            if len(heap) > 64:
                heapq.heappop(heap)
            acc += len(f"{i * 0.001:.6f},{i}") + math.sqrt(i) * math.sin(i)
        v, m = numpy.arange(3.0), numpy.eye(3)
        for i in range(REFERENCE_N // 16):
            u = m @ numpy.array([math.cos(i), math.sin(i), 0.0])
            acc += float(numpy.linalg.norm(u - v)) + float(numpy.dot(numpy.cross(u, v), v))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(workload, refs: dict, calls: Calls) -> tuple[float, float] | None:
    """One pass: each call timed on its own, then its output checked.

    Returns the calls' summed wall time and their summed time in
    reference units (each call's time over the mean of the reference
    kernel's time before and after it), or None if any call failed.
    """
    workload.before_pass()
    before = reference_work()
    gc.collect()
    seconds = units = 0.0
    ok = True
    for name, call in workload.calls():
        calls.attempted += 1
        output = None
        t0 = time.perf_counter()
        try:
            output = call()
            elapsed = time.perf_counter() - t0
        except (Exception, SystemExit):  # any crash of the program is a failed call
            elapsed, errors = None, [traceback.format_exc(limit=3)]
        after = reference_work()
        if elapsed is not None:
            seconds += elapsed
            units += elapsed / ((before + after) / 2.0)
            try:
                errors = workload.compare(name, workload.digest(name, output), refs[name])
            except Exception:  # an output the digest cannot read is a failed call
                errors = [traceback.format_exc(limit=3)]
        output = None
        before = after
        if errors:
            calls.fail(f"{workload.name}.{name}: {errors[0]}")
            ok = False
    return (seconds, units) if ok else None


def _enough(t_start: float, seconds: float, passes: int) -> bool:
    elapsed = time.perf_counter() - t_start
    return (elapsed >= seconds and passes >= MIN_PASSES) or elapsed >= 3 * seconds


def end_to_end(workload, refs, seconds, calls) -> tuple[dict, list[str]]:
    """Timed passes for ``seconds``; the set-up probes are spread over the
    same interval so that they see the same machine load as the passes."""
    probe = SetupProbe(workload.config_paths, calls)
    workload.setup()
    run_pass(workload, refs, calls)  # warm-up
    items = workload.items_per_pass()
    wall_rates, ref_rates, passes = [], [], 0
    t_start = time.perf_counter()
    while not _enough(t_start, seconds, passes):
        timed = run_pass(workload, refs, calls)
        passes += 1
        if timed is not None:
            wall_rates.append(items / timed[0])
            ref_rates.append(items / timed[1])
        if time.perf_counter() - t_start >= probe.runs * seconds / SETUP_PROBES:
            probe.probe()
    while probe.runs < SETUP_PROBES:
        probe.probe()
    setup = probe.times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "items_per_ref": {"value": statistics.median(ref_rates) if ref_rates else 0.0, "unit": "1/ref"},
        "setup_s": {"value": statistics.median(setup) if setup else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    unit = workload.item_name
    alias = "geom_samples_per_s" if unit == "samples" else "msgs_per_s"
    wall = statistics.median(wall_rates) if wall_rates else 0.0
    lines = [
        f"{alias} {wall:.6g} {unit}/s (wall clock; median of {len(wall_rates)} passes of {items} {unit})",
        f"items_per_ref {metrics['items_per_ref']['value']:.6g} {unit}/ref"
        f" (per reference-kernel time; median of the same passes)",
        f"setup_s {metrics['setup_s']['value']:.6g} s (median of {len(setup)} fresh processes)",
        f"peak_rss_mb {peak_rss_mb:.6g} MB",
    ]
    return metrics, lines


def per_layer(workload, refs, seconds, calls, spans_path: Path) -> tuple[dict, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        workload.setup()
    setup_spans = tracer.take()
    run_pass(workload, refs, calls)  # warm-up
    plain, traced, per_pass = [], [], []
    last_spans: list = []
    t_start = time.perf_counter()
    while not _enough(t_start, seconds, min(len(plain), len(traced))):
        timed = run_pass(workload, refs, calls)
        if timed is not None:
            plain.append(timed[1])
        with tracer.installed():
            timed = run_pass(workload, refs, calls)
        spans = tracer.take()
        if timed is not None:
            traced.append(timed[1])
            per_pass.append(tracing.summarize(spans, setup_spans, workload.bytes_written()))
            last_spans = spans
    values = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]} if per_pass else {}
    values["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0 if plain and traced else 0.0
    )
    tracing.write_spans(spans_path, setup_spans + last_spans)
    absent = tracing.absent_reasons(setup_spans + last_spans)
    metrics, lines = {}, []
    for name, unit, _, _ in tracing.METRICS:
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        note = f"  (absent: {absent[name]})" if name in absent else ""
        lines.append(f"{name} {value:.6g} {unit}{note}")
    lines.append(f"traced passes {len(traced)}, untraced passes {len(plain)}; spans of the last traced pass in {spans_path.relative_to(ROOT)}")
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ntnsim" / "__init__.py").is_file():
        print(f"perfbench: no ntnsim package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    variant = args.seed % workloads.N_VARIANTS
    env = environment(args.seed, variant)
    refs = workloads.load_refs(args.workload)["variants"][str(variant)]
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    calls = Calls()
    try:
        workload = workloads.WORKLOADS[args.workload](variant, workdir)
        if args.trace:
            spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, lines = per_layer(workload, refs, args.seconds, calls, spans_path)
        else:
            metrics, lines = end_to_end(workload, refs, args.seconds, calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {workload.why}")
    for line in lines:
        print(line)
    print(f"error_rate {calls.failed / max(calls.attempted, 1):.6g} ratio ({calls.failed} failed of {calls.attempted} calls)")
    result = {
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
