"""Golden outputs: the sha256 of every file each CLI subcommand writes for
every bundled config that supports it, at seeds 1 and 42, and of the
stdout of each study script in ``scripts/``.

A refactor that keeps behaviour must pass these unchanged.  After a
deliberate output change, regenerate and commit the hashes with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
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
        "--config", str(CONFIG_DIR / f"{config}.json"),
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
    assert configs == {p.stem for p in CONFIG_DIR.glob("*.json")}


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
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(regenerate(), indent=2, sort_keys=True) + "\n")
    scripts = {p.name: _script_stdout_sha256(p.name) for p in sorted(SCRIPT_DIR.glob("*.py"))}
    SCRIPTS_GOLDEN_PATH.write_text(json.dumps(scripts, indent=2, sort_keys=True) + "\n")
