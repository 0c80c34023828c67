"""The mutation table: faults in ``src/`` that named tests must catch.

Each row of ``MUTANTS`` is a file under ``src/``, an exact old text in it,
a replacement, and the pytest node ids that must fail once the old text
is replaced.  The runner first runs every named node id against an
unmutated copy of ``src/``, which must pass.  Then, for each row, it
copies ``src/`` to a temporary directory, requires the old text to occur
exactly once in the file (a row whose text is gone or repeated is stale),
applies the replacement, and runs the row's node ids against the copy
with pytest in a subprocess; the row is caught when pytest reports a
failed test (exit 1).  One subprocess runs at a time.

    python tests/mutants.py        # every row
    python tests/mutants.py 0 6    # rows 0 and 6

It exits 0 when the unmutated copy passes and every row is caught, and 1
when the copy fails or a row survives, is stale or breaks the run.  This
file is outside pytest's collection; ``tests/test_mutants.py`` checks in
tier-1 only that each row's old text occurs exactly once in ``src/`` and
that each named test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


MUTANTS = (
    # The access kernel writes a detail over the end entry of a stage that
    # logs exactly `slot` messages (the RAR expiry of stages 0 and 2).
    Mutant(
        "ntnsim/protocol.py",
        "logs = _STAGE_MESSAGES[stage] > slot",
        "logs = _STAGE_MESSAGES[stage] >= slot",
        (
            "tests/test_golden.py::test_every_access_stage_occurs_under_a_golden",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_faded_drop_msg2/simulate/seed1]",
            "tests/test_access_oracle.py::test_failure_paths_match_the_reference[leo600_sband.json-drop_msg1]",
        ),
    ),
    # A stage's end slot below a detail slot: a lost Msg1 logs Msg2's
    # transmission where its RAR expiry belongs.
    Mutant(
        "ntnsim/protocol.py",
        "(PATH_RAR_TIMEOUT, 1, RAR_EXPIRY),",
        "(PATH_RAR_TIMEOUT, 1, MSG2_TX),",
        (
            "tests/test_protocol.py::test_each_stage_logs_its_messages_then_an_end_slot_above_every_detail_slot",
            "tests/test_golden.py::test_every_access_stage_occurs_under_a_golden",
        ),
    ),
    # The serving sweep's bound forgets how far an orbit turns between two
    # anchors, and rules out times at which it is in view.
    Mutant(
        "ntnsim/geometry.py",
        "(angle[:, :-1] + angle[:, 1:] - (rate * step)[:, None]) / 2.0",
        "(angle[:, :-1] + angle[:, 1:]) / 2.0",
        (
            "tests/test_geometry_kernel.py::test_visibility_matches_scalar_loop",
            "tests/test_geometry_kernel.py::test_the_bound_rules_out_only_pairs_below_the_threshold",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_sband/geometry/seed1]",
        ),
    ),
    # The differential delay keeps only the footprint points nearest the
    # least p.u, so it misses the farthest point.
    Mutant(
        "ntnsim/geometry.py",
        "keep = (pu <= lo + slack) | (pu >= hi - slack)",
        "keep = pu <= lo + slack",
        (
            "tests/test_geometry_kernel.py::test_differential_delay_is_the_dense_evaluation_bit_for_bit",
            "tests/test_geometry_kernel.py::test_the_pu_bound_rules_out_only_points_between_the_kept_extremes",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_sband/geometry/seed1]",
        ),
    ),
    # The trace writer's units group drops its lone "0": time 0 prints
    # ".000000" and seq 0 prints nothing.
    Mutant(
        "ntnsim/events.py",
        'units[0] = ord("0") << 24',
        "units[0] = 0",
        (
            "tests/test_trace_writer.py::test_one_row[0]",
            "tests/test_cli.py::test_trace_writer_matches_generic_csv_writer",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_sband/simulate/seed1]",
        ),
    ),
    # The trace writer's higher groups keep their leading zeros: ms 12
    # prints "00000012".
    Mutant(
        "ntnsim/events.py",
        "groups[(0,) * (k + 2) + (..., k)] = 0",
        "pass",
        (
            "tests/test_trace_writer.py::test_digit_widths_change_inside_a_block",
            "tests/test_trace_writer.py::test_one_row[1000]",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_sband/simulate/seed1]",
        ),
    ),
    # The earth-fixed velocity loses half of the Earth's rotation term.
    Mutant(
        "ntnsim/geometry.py",
        "vel[..., 0] += OMEGA_EARTH_RAD_S * pos[..., 1]",
        "pass",
        (
            "tests/test_geometry.py::test_equatorial_geo_is_stationary_in_earth_fixed_frame",
            "tests/test_geometry_kernel.py::test_kernel_matches_scalar_oracle",
            "tests/test_golden.py::test_cli_outputs_match_golden[inclined_geo/doppler-trace:inclined_geo/seed1]",
        ),
    ),
    # The slot table prints the residual to two places instead of three.
    Mutant(
        "ntnsim/protocol.py",
        '"msg1_preamble residual_us=", 3)',
        '"msg1_preamble residual_us=", 2)',
        (
            "tests/test_protocol.py::test_exactly_the_three_detail_slots_carry_places",
            "tests/test_protocol.py::test_each_printed_detail_reads_back_as_its_integer",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_sband/simulate/seed1]",
        ),
    ),
    # The float cross product flips the sign of its first component's
    # second product: a beam's second tangent axis leaves the tangent plane
    # (and a zenith satellite's Earth-rotation velocity turns) away from
    # longitude 0.
    Mutant(
        "ntnsim/geometry.py",
        "return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0",
        "return a1 * b2 + a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0",
        (
            "tests/test_geometry_kernel.py::test_float_vector_helpers_are_the_numpy_formulation_bit_for_bit",
            "tests/test_geometry_kernel.py::test_differential_delay_matches_scalar_loop",
            "tests/test_golden.py::test_cli_outputs_match_golden[geo_sband/geometry/seed1]",
        ),
    ),
    # The serving sweep's ranking: an elevation exactly at the threshold
    # does not serve.
    Mutant(
        "ntnsim/geometry.py",
        "up = el >= min_elevation_deg",
        "up = el > min_elevation_deg",
        (
            "tests/test_geometry_kernel.py::test_highest_satellite_is_the_full_sample_loop_bit_for_bit[exact-equal]",
            "tests/test_geometry_kernel.py::test_visibility_ranks_the_kernel_elevations",
        ),
    ),
    # The serving sweep's ranking gives a tie to the earlier orbit: its
    # pairs come in time then orbit order, so a reversed last-wins
    # assignment keeps each time's first orbit at the top elevation.
    Mutant(
        "ntnsim/geometry.py",
        "np.maximum.at(index, at[top], which[top])",
        "index[at[top][::-1]] = which[top][::-1]",
        (
            "tests/test_geometry_kernel.py::test_beam_schedule_ties_go_to_the_later_satellite",
            "tests/test_geometry_kernel.py::test_highest_satellite_is_the_loop_when_blocks_split_the_times[10.0]",
        ),
    ),
    # An attempt's stage counts the checks it passes anywhere, not the run
    # of checks it passes in turn: a lost Msg1 no longer ends the exchange.
    Mutant(
        "ntnsim/protocol.py",
        "ok &= check",
        "ok |= check",
        (
            "tests/test_access_oracle.py::test_run_random_access_matches_reference",
            "tests/test_golden.py::test_every_access_stage_occurs_under_a_golden",
            "tests/test_golden.py::test_cli_outputs_match_golden[leo600_faded_drop_msg2/simulate/seed1]",
        ),
    ),
    # A device whose Msg4 is lost forgets the TA command its RAR carried.
    Mutant(
        "ntnsim/protocol.py",
        "if outcome.cause in (None, CR_TIMEOUT):",
        "if outcome.cause in (None,):",
        (
            "tests/test_protocol.py::test_a_cr_timeout_keeps_the_timing_advance_that_the_rar_gave",
            "tests/test_access_oracle.py::test_run_random_access_matches_reference",
        ),
    ),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    return (src / mutant.file).read_text().count(mutant.old)


def _pytest(src: Path, node_ids) -> tuple[int, str]:
    """pytest's exit code and summary line for ``node_ids`` run against the
    package tree ``src``, which goes first on the subprocess's path."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-p", "no:cacheprovider",
         *node_ids],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def _copy(tmp: str) -> Path:
    """A copy of ``src/`` in ``tmp``, beside a link to ``configs/``, which
    ``ntnsim.claims`` reads from the package's checkout."""
    (Path(tmp) / "configs").symlink_to(ROOT / "configs")
    return Path(shutil.copytree(SRC, Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__")))


def main(argv: list[str]) -> int:
    rows = [(int(i), MUTANTS[int(i)]) for i in argv] or list(enumerate(MUTANTS))
    with tempfile.TemporaryDirectory() as tmp:
        code, summary = _pytest(_copy(tmp), sorted({t for _, row in rows for t in row.tests}))
    print(f"unmutated: {'pass' if code == 0 else f'FAIL (exit {code})'}: {summary}", flush=True)
    ok = code == 0
    for n, row in rows:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy(tmp)
            count = occurrences(row, src)
            if count != 1:
                print(f"row {n}: STALE: the old text occurs {count} times in {row.file}")
                ok = False
                continue
            path = src / row.file
            path.write_text(path.read_text().replace(row.old, row.new))
            code, summary = _pytest(src, row.tests)
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"BROKE THE RUN (exit {code})")
        print(f"row {n}: {verdict}: {row.file}: {row.old!r} -> {row.new!r}: {summary}", flush=True)
        ok &= code == 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
