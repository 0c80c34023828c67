"""The benchmark's workloads: seeded inputs, the timed calls, and their checks.

Each workload turns a variant number into config files in a work
directory, loads them through ``ntnsim.config`` in set-up, and exposes
one pass as a list of named calls into the public functions of
``ntnsim.engine``, ``ntnsim.geometry`` and ``ntnsim.cli``.  Every call's
output is reduced to a JSON digest that is compared with a reference
generated by ``make_refs.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from ntnsim import cli, config, engine, geometry

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
REFS = Path(__file__).resolve().parent / "refs"

# The workload seed selects one of this many input variants, so that the
# stored references cover every seed.
N_VARIANTS = 16

# Relative tolerance for geometry outputs (the ROADMAP tolerance for a
# future array kernel).  The absolute floor is this share of the largest
# magnitude in the same output, so values that cross zero (the Doppler at
# a beam centre) are compared on the scale of their neighbours.
GEOMETRY_RTOL = 1e-9

TRACE_HEADER = ["time_ms", "seq", "entity", "kind", "detail"]


def _base_config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _write_config(workdir: Path, data: dict) -> Path:
    path = workdir / f"{data['name']}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _csv_line(row) -> str:
    """One trace row formatted as ``ntnsim.cli`` writes it."""
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row)


def trace_sha256(rows) -> str:
    """sha256 of the trace CSV ``ntnsim simulate`` would write for ``rows``,
    hashed row by row so the check adds no large allocation."""
    h = hashlib.sha256()
    h.update((",".join(TRACE_HEADER) + "\n").encode())
    for row in rows:
        h.update((_csv_line(row) + "\n").encode())
    return h.hexdigest()


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _compare_report(got: dict, ref: dict, where: str) -> list[str]:
    """Every key of the reference report must match exactly; extra keys in
    the output are ignored."""
    missing = object()
    return [
        f"{where}.{key}: got {got.get(key)!r}, want {want!r}"
        for key, want in ref.items()
        if got.get(key, missing) != want
    ]


def _flatten(value, path=""):
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def compare_close(got, ref, where: str) -> list[str]:
    """Same structure, integers equal, floats within GEOMETRY_RTOL."""
    got_items = list(_flatten(got))
    ref_items = list(_flatten(ref))
    if [p for p, _ in got_items] != [p for p, _ in ref_items]:
        return [f"{where}: shape differs ({len(got_items)} values, want {len(ref_items)})"]
    scale = max((abs(v) for _, v in ref_items if isinstance(v, float) and math.isfinite(v)), default=0.0)
    errors = []
    for (path, g), (_, r) in zip(got_items, ref_items):
        if isinstance(r, float):
            ok = isinstance(g, (int, float)) and (
                g == r or math.isclose(g, r, rel_tol=GEOMETRY_RTOL, abs_tol=GEOMETRY_RTOL * scale)
            )
        else:
            ok = g == r
        if not ok:
            errors.append(f"{where}{path}: got {g!r}, want {r!r}")
    return errors


class Workload:
    """Inputs for one variant, set-up, the calls of one pass and their checks."""

    name = ""
    why = ""
    item_name = ""

    def __init__(self, variant: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{variant}")
        self.config_paths = self.make_inputs()

    def make_inputs(self) -> list[Path]:
        raise NotImplementedError

    def setup(self) -> None:
        """Load the generated configs through ``ntnsim.config``."""
        self.configs = [config.load_config(p) for p in self.config_paths]

    def before_pass(self) -> None:
        """Untimed preparation before each pass."""

    def calls(self) -> list[tuple[str, object]]:
        """(name, zero-argument callable) for each timed call of a pass."""
        raise NotImplementedError

    def items_per_pass(self) -> int:
        raise NotImplementedError

    def digest(self, name: str, output):
        raise NotImplementedError

    def compare(self, name: str, got, ref) -> list[str]:
        raise NotImplementedError

    def bytes_written(self) -> int:
        return 0


class LeoAccessHarq(Workload):
    name = "leo_access_harq"
    why = ("access-dominated LEO600 run_scenario (5000 msgs, HARQ 2x4 blocks) in process: "
           "stresses protocol, events and engine; samples no geometry, writes no files")
    item_name = "msgs"

    def make_inputs(self):
        data = _base_config("leo600_sband.json")
        data["name"] = self.name
        data["seed"] = self.rng.randrange(1, 2**31)
        data["traffic"]["n_messages"] = 5000
        data["harq"] = {"enabled": True, "n_processes": 2}
        return [_write_config(self.workdir, data)]

    def calls(self):
        cfg = self.configs[0]
        return [("run_scenario", lambda: engine.run_scenario(cfg))]

    def items_per_pass(self):
        return self.configs[0].traffic.n_messages

    def digest(self, name, output):
        return {"report": output.report.to_dict(), "trace_sha256": trace_sha256(output.trace_rows)}

    def compare(self, name, got, ref):
        errors = _compare_report(got["report"], ref["report"], f"{name}.report")
        if got["trace_sha256"] != ref["trace_sha256"]:
            errors.append(f"{name}.trace_sha256 differs")
        return errors


class GeoRlcSweep(Workload):
    name = "geo_rlc_sweep"
    why = ("'ntnsim simulate --jobs 2' in process on GEO RLC-ARQ (500 x 64 kbit msgs, 6 dB fading): "
           "write-heavy events, CLI output, config load and the thread pool")
    item_name = "msgs"
    JOBS = 2

    def make_inputs(self):
        data = _base_config("geo_sband.json")
        data["name"] = self.name
        data["seed"] = self.rng.randrange(1, 2**31)
        data["harq"]["enabled"] = False
        data["transfer"]["rlc_window_pdus"] = 16
        data["traffic"]["message_size_bits"] = 64000.0
        data["traffic"]["n_messages"] = 500
        data["channel"]["fading_sigma_db"] = 6.0
        self.out_dir = self.workdir / "simulate_out"
        return [_write_config(self.workdir, data)]

    def seeds(self) -> list[int]:
        return [self.configs[0].seed + i for i in range(self.JOBS)]

    def before_pass(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _simulate(self) -> int:
        argv = ["simulate", "--config", str(self.config_paths[0]),
                "--out", str(self.out_dir), "--jobs", str(self.JOBS)]
        # The summary table goes to stdout; keep the benchmark's own output clean.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def calls(self):
        return [("simulate", self._simulate)]

    def items_per_pass(self):
        return self.configs[0].traffic.n_messages * self.JOBS

    def digest(self, name, output):
        if output != cli.EXIT_OK:
            return {"exit_code": output}
        out = {"exit_code": output, "reports": {}, "trace_sha256": {}}
        for seed in self.seeds():
            out["reports"][str(seed)] = json.loads((self.out_dir / f"report_seed{seed}.json").read_text())
            out["trace_sha256"][str(seed)] = _file_sha256(self.out_dir / f"trace_seed{seed}.csv")
        return out

    def compare(self, name, got, ref):
        if got["exit_code"] != ref["exit_code"]:
            return [f"{name}: exit code {got['exit_code']}, want {ref['exit_code']}"]
        errors = []
        for seed, report in ref["reports"].items():
            errors += _compare_report(got["reports"][seed], report, f"{name}.report_seed{seed}")
            if got["trace_sha256"][seed] != ref["trace_sha256"][seed]:
                errors.append(f"{name}.trace_seed{seed}.csv sha256 differs")
        return errors

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out_dir.iterdir())


def _disc_points(grid_n: int, radius: float) -> int:
    """Grid points ``differential_delay`` samples inside a beam footprint."""
    xs = np.linspace(-radius, radius, grid_n)
    x, y = np.meshgrid(xs, xs)
    return int(np.count_nonzero(x * x + y * y <= radius * radius))


class ConstellationGeometry(Workload):
    name = "constellation_geometry"
    why = ("geometry sweeps only (24-satellite beam schedule, visibility, differential delay, "
           "Doppler profile): where an array geometry kernel must gain and the others must not move")
    item_name = "samples"
    PLANES, PER_PLANE = 6, 4
    INCLINATION_DEG = 53.0
    SCHEDULE_STEP_S = 4.0
    VISIBILITY_STEP_S = 1.0
    DELAY_GRID_N = 64
    DOPPLER_N = 101

    def make_inputs(self):
        leo = _base_config("leo600_sband.json")
        geo = _base_config("geo_sband.json")
        rng = self.rng
        raan0, phase0 = rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)
        walker = [
            {"kind": "leo_circular", "altitude_km": leo["constellation"][0]["altitude_km"],
             "inclination_deg": self.INCLINATION_DEG,
             "raan_deg": (raan0 + 360.0 * p / self.PLANES) % 360.0,
             "phase_deg": (phase0 + 360.0 * s / self.PER_PLANE + 15.0 * p) % 360.0,
             "epoch_s": 0.0}
            for p in range(self.PLANES)
            for s in range(self.PER_PLANE)
        ]
        # The visibility pass stays over the bundled observer at (0, 0), as
        # in `ntnsim geometry`: over some other equatorial points the sample
        # taken exactly overhead makes geometry_sample raise (asin of a value
        # just above 1).  The LEO beam, whose Doppler profile also samples
        # the point under the satellite, keeps the bundled centre likewise.
        geo_beam = geo["beams"][0]
        data = {
            "name": self.name,
            "constellation": walker + geo["constellation"],
            "carrier_frequency_hz": leo["carrier_frequency_hz"],
            "min_elevation_deg": leo["min_elevation_deg"],
            "observer": leo["observer"],
            "cells": [{"cell_id": "schedule_cell", "center_latitude_deg": 0.0,
                       "center_longitude_deg": rng.uniform(-180.0, 180.0),
                       "max_rtt_ms": leo["access"]["max_rtt_ms"]}],
            "beams": [
                leo["beams"][0],
                {"center_latitude_deg": rng.uniform(40.0, geo_beam["center_latitude_deg"]),
                 "center_longitude_deg": rng.uniform(-15.0, 15.0),
                 "diameter_km": geo_beam["diameter_km"]},
            ],
        }
        return [_write_config(self.workdir, data)]

    def setup(self):
        super().setup()
        cfg = self.configs[0]
        orbits = [o.to_orbit_spec() for o in cfg.constellation]
        self.leo = [o for o in orbits if o.kind is geometry.OrbitKind.LEO_CIRCULAR]
        geo = next(o for o in orbits if o.kind is geometry.OrbitKind.GEOSYNCHRONOUS)
        self.observer = cfg.observer.to_ground()
        self.cell = cfg.cells[0].center()
        self.min_el = cfg.min_elevation_deg
        self.fc = cfg.carrier_frequency_hz
        first = self.leo[0]
        self.pass_orbit = geometry.overhead_pass_orbit(
            first.kind, first.altitude_km, first.inclination_deg, self.observer, overhead_at_s=3000.0
        )
        self.leo_beam, self.geo_beam = (b.to_beam() for b in cfg.beams)
        self.leo_sat = geometry.satellite_state_over(self.leo_beam.center, first.altitude_km)
        self.geo_sat = geometry.propagate(geo, geo.epoch_s)

    def calls(self):
        return [
            ("beam_schedule", lambda: engine.earth_fixed_beam_schedule(
                self.leo, self.cell, self.min_el, step_s=self.SCHEDULE_STEP_S)),
            ("visibility", lambda: geometry.visibility_duration(
                self.pass_orbit, self.observer, self.min_el, self.VISIBILITY_STEP_S)),
            ("differential_delay_leo", lambda: geometry.differential_delay(
                self.leo_sat, self.leo_beam, self.DELAY_GRID_N)),
            ("differential_delay_geo", lambda: geometry.differential_delay(
                self.geo_sat, self.geo_beam, self.DELAY_GRID_N)),
            ("doppler_profile", lambda: geometry.beam_doppler_profile(
                self.leo_sat, self.leo_beam, self.fc, n=self.DOPPLER_N)),
        ]

    def items_per_pass(self):
        """(satellite, time, ground point) samples the pass's inputs ask for,
        however the program evaluates them."""
        horizon = max(o.period_s() for o in self.leo)
        schedule = len(self.leo) * (math.ceil(horizon / self.SCHEDULE_STEP_S) + 1)
        visibility = math.ceil(self.pass_orbit.period_s() / self.VISIBILITY_STEP_S) + 1
        delays = sum(
            _disc_points(self.DELAY_GRID_N, b.diameter_km / 2.0) for b in (self.leo_beam, self.geo_beam)
        )
        return schedule + visibility + delays + self.DOPPLER_N

    def digest(self, name, output):
        if name == "beam_schedule":
            return [[iv.start_s, iv.end_s, iv.satellite_index] for iv in output]
        if name == "doppler_profile":
            return [list(pair) for pair in output]
        return float(output)

    def compare(self, name, got, ref):
        return compare_close(got, ref, name)


WORKLOADS = {w.name: w for w in (LeoAccessHarq, GeoRlcSweep, ConstellationGeometry)}


def load_refs(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())
