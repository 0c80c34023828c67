#!/usr/bin/env python3
"""Re-measure the ROADMAP aim-1 baseline figures through the benchmark's inputs.

Run from the repository root:

    python3 perfbench/baseline.py [repeats]

Times, on variant 0 of the workloads, after one warm-up call each:
``run_scenario`` on LEO with 5000 messages, the 24-satellite
``earth_fixed_beam_schedule`` at a 1 s step, ``visibility_duration`` of a
LEO600 overhead pass at a 1 s step, and ``differential_delay`` of the
1000 km LEO beam on a 64x64 grid.  Prints one JSON object with the median
and min of each, in milliseconds, and the run environment.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from ntnsim import engine, geometry  # noqa: E402


def timed_ms(fn, repeats: int) -> dict:
    fn()
    times = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return {"median_ms": statistics.median(times), "min_ms": min(times), "repeats": repeats}


def main(repeats: int) -> int:
    workdir = run.WORKDIR / "baseline"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        leo = workloads.LeoAccessHarq(0, workdir)
        geo = workloads.ConstellationGeometry(0, workdir)
        leo.setup()
        geo.setup()
        figures = {
            "run_scenario_leo_5000": timed_ms(lambda: engine.run_scenario(leo.configs[0]), repeats),
            "beam_schedule_24sat_step1s": timed_ms(
                lambda: engine.earth_fixed_beam_schedule(geo.leo, geo.cell, geo.min_el, step_s=1.0),
                max(1, repeats // 3),
            ),
            "visibility_duration_leo600_step1s": timed_ms(
                lambda: geometry.visibility_duration(geo.pass_orbit, geo.observer, geo.min_el), repeats
            ),
            "differential_delay_1000km_64x64": timed_ms(
                lambda: geometry.differential_delay(geo.leo_sat, geo.leo_beam, 64), repeats
            ),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": run.environment(seed=0, variant=0), "figures": figures}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 9))
