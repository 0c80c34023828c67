"""Golden outputs: the sha256 of every file each CLI subcommand writes for
every bundled config that supports it, at seeds 1 and 42, of the files
``simulate`` writes at seed 1 for each failure-path config in
``golden/configs/``, and of the stdout of each study script in ``scripts/``.

The failure-path configs are test data, not bundled scenarios: the LEO
config with a few km of GNSS error, 8 dB fading and one message kind
dropped, so that together with the bundled runs every access stage is
logged under a golden.

A refactor that keeps behaviour must pass these unchanged.  After a
deliberate output change, regenerate and commit the hashes with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import runpy
import tempfile
from pathlib import Path

import pytest

from conftest import CONFIG_DIR
from ntnsim.cli import main

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "cli_sha256.json"
SCRIPTS_GOLDEN_PATH = GOLDEN_PATH.with_name("scripts_sha256.json")
FAILURE_CONFIG_DIR = GOLDEN_PATH.with_name("configs")
FAILURE_CONFIGS = sorted(p.stem for p in FAILURE_CONFIG_DIR.glob("*.json"))
FAILURE_SEED = 1
SEEDS = (1, 42)
COMMANDS = {
    "linkbudget": ["linkbudget"],
    "geometry": ["geometry"],
    "doppler-trace:inclined_geo": ["doppler-trace", "--mode", "inclined_geo"],
    "doppler-trace:beam_profile": ["doppler-trace", "--mode", "beam_profile"],
    "simulate": ["simulate"],
    "rank-cells": ["rank-cells"],
}


def _run(config: str, command: str, seed: int, out_dir: Path) -> tuple[int, dict]:
    """Exit code and {file name: sha256} of one CLI run into ``out_dir``."""
    argv = COMMANDS[command] + [
        "--config", str(_config_path(config)),
        "--out", str(out_dir),
        "--seed", str(seed),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }
    return code, hashes


def _config_path(config: str) -> Path:
    bundled = CONFIG_DIR / f"{config}.json"
    return bundled if bundled.exists() else FAILURE_CONFIG_DIR / f"{config}.json"


def _key(config: str, command: str, seed: int) -> str:
    return f"{config}/{command}/seed{seed}"


def _load_golden() -> dict:
    # Missing only while regenerating; the coverage test then fails.
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("key", sorted(_load_golden()))
def test_cli_outputs_match_golden(key, tmp_path):
    config, command, seed = key.split("/")
    code, hashes = _run(config, command, int(seed.removeprefix("seed")), tmp_path)
    assert code == 0
    assert hashes == _load_golden()[key]


def test_golden_covers_every_bundled_config():
    configs = {key.split("/")[0] for key in _load_golden()}
    bundled = {p.stem for p in CONFIG_DIR.glob("*.json")}
    assert not bundled & set(FAILURE_CONFIGS)
    assert configs == bundled | set(FAILURE_CONFIGS)


# An attempt's stage by its end record and how many message records come
# before it in the attempt: Msg1 lost, TA out of range, Msg2 lost or late,
# Msg3 lost, Msg4 lost or late, success.
_STAGE_BY_END = {
    (("device", "timer_fire", "rar_window_expiry"), 1): 0,
    (("bs", "measurement", "ta_out_of_range"), 2): 1,
    (("device", "timer_fire", "rar_window_expiry"), 3): 2,
    (("device", "timer_fire", "contention_resolution_expiry"), 5): 3,
    (("device", "timer_fire", "contention_resolution_expiry"), 7): 4,
    (("device", "rx_arrival", "msg4_contention_resolution"), 7): 5,
}
_ENDS = {end for end, _ in _STAGE_BY_END}


def _access_stages(trace: Path) -> list[int]:
    """Each attempt's stage, read from a trace CSV in log (seq) order, where
    an attempt's records lie together from its Msg1 transmission on."""
    with trace.open() as fh:
        rows = sorted(csv.DictReader(fh), key=lambda row: int(row["seq"]))
    stages, messages = [], None
    for row in rows:
        record = (row["entity"], row["kind"], row["detail"])
        if record == ("device", "tx_start", "msg1_preamble"):
            assert messages is None, "an attempt began before the last one ended"
            messages = 0
        if record in _ENDS:
            stages.append(_STAGE_BY_END[record, messages])
            messages = None
        elif messages is not None:
            messages += 1
    assert messages is None, "the last attempt has no end record"
    return stages


def test_every_access_stage_occurs_under_a_golden(tmp_path):
    """The failure-path goldens with the bundled LEO one log all six stages."""
    stages = set()
    for config in ["leo600_sband", *FAILURE_CONFIGS]:
        out_dir = tmp_path / config
        out_dir.mkdir()
        _, hashes = _run(config, "simulate", FAILURE_SEED, out_dir)
        assert hashes == _load_golden()[_key(config, "simulate", FAILURE_SEED)]
        report = json.loads((out_dir / f"report_seed{FAILURE_SEED}.json").read_text())
        found = _access_stages(out_dir / f"trace_seed{FAILURE_SEED}.csv")
        assert len(found) == report["access_attempts"]
        stages.update(found)
    assert stages == set(range(len(_STAGE_BY_END)))


def _script_stdout_sha256(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPT_DIR / name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPT_DIR.glob("*.py")))
def test_study_script_stdout_matches_golden(name):
    assert _script_stdout_sha256(name) == json.loads(SCRIPTS_GOLDEN_PATH.read_text())[name]


def regenerate() -> dict:
    golden = {}
    for config in sorted(p.stem for p in CONFIG_DIR.glob("*.json")):
        for command in COMMANDS:
            for seed in SEEDS:
                with tempfile.TemporaryDirectory() as tmp:
                    code, hashes = _run(config, command, seed, Path(tmp))
                if code == 0:
                    golden[_key(config, command, seed)] = hashes
    for config in FAILURE_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            code, hashes = _run(config, "simulate", FAILURE_SEED, Path(tmp))
        assert code == 0, config
        golden[_key(config, "simulate", FAILURE_SEED)] = hashes
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(regenerate(), indent=2, sort_keys=True) + "\n")
    scripts = {p.name: _script_stdout_sha256(p.name) for p in sorted(SCRIPT_DIR.glob("*.py"))}
    SCRIPTS_GOLDEN_PATH.write_text(json.dumps(scripts, indent=2, sort_keys=True) + "\n")
