"""The ntnsim names that the benchmark harness patches or calls.

``perfbench/tracing.py`` wraps each of its ``PATCH_POINTS`` where ntnsim's
callers look the name up, and ``perfbench/workloads.py`` calls
``engine.earth_fixed_beam_schedule`` and four config methods that return
domain types.  A name renamed or moved in ``src/`` then fails here, and
not only in a benchmark run.  The harness file is loaded as it is;
nothing in it is patched in.
"""

import importlib.util
from pathlib import Path

from conftest import CONFIG_DIR
from ntnsim import engine, geometry
from ntnsim.config import load_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


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


def test_config_methods_the_workloads_call_return_domain_types():
    cfg = load_config(CONFIG_DIR / "leo600_sband.json")
    calls = {
        "to_orbit_spec": (cfg.constellation[0], geometry.OrbitSpec),
        "to_ground": (cfg.observer, geometry.GroundPosition),
        "to_beam": (cfg.beams[0], geometry.BeamSpec),
        "center": (cfg.cells[0], geometry.GroundPosition),
    }
    source = WORKLOADS.read_text()
    for method, (owner, domain_type) in calls.items():
        assert f".{method}()" in source, method
        assert isinstance(getattr(owner, method)(), domain_type), method
