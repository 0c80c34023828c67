#!/usr/bin/env python3
"""Regenerate the reference outputs in ``perfbench/refs/``.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/make_refs.py [workload ...]

For each workload and each of ``workloads.N_VARIANTS`` input variants it
runs every call of one pass once and stores the digest of its output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    workdir = run.WORKDIR / "make_refs"
    for name in names or sorted(workloads.WORKLOADS):
        variants = {}
        for variant in range(workloads.N_VARIANTS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = workloads.WORKLOADS[name](variant, workdir)
            workload.setup()
            workload.before_pass()
            digests = {
                call_name: workload.digest(call_name, call()) for call_name, call in workload.calls()
            }
            for call_name, digest in digests.items():
                if isinstance(digest, dict) and digest.get("exit_code", 0) != 0:
                    raise SystemExit(f"{name} variant {variant}: {call_name} exited {digest['exit_code']}")
            variants[str(variant)] = digests
            print(f"{name} variant {variant}: {len(digests)} calls", flush=True)
        out = {"git_rev": run.git_rev(), "variants": variants}
        (workloads.REFS / f"{name}.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
