"""The ntnsim names that the benchmark harness patches or calls.

``perfbench/tracing.py`` wraps each of its ``PATCH_POINTS`` where ntnsim's
callers look the name up, and ``perfbench/workloads.py`` calls
``engine.earth_fixed_beam_schedule``.  A name renamed or moved in ``src/``
then fails here, and not only in a traced benchmark run.  The harness file
is loaded as it is; nothing in it is patched in.
"""

import importlib.util
from pathlib import Path

from ntnsim import engine, geometry

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves():
    tracing = _load_tracing()
    for owner, attr, *_ in tracing.PATCH_POINTS:
        assert callable(tracing._get(owner, attr)), attr


def test_engine_re_exports_the_geometry_beam_schedule():
    assert engine.earth_fixed_beam_schedule is geometry.earth_fixed_beam_schedule
