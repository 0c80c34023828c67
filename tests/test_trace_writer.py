"""``Simulator.write_csv`` against the row-based trace writer it replaced.

The oracle keeps the old design: a log of ``(time_us, seq, entity, kind,
detail)`` tuples, sorted once, converted to float-ms rows and formatted
row by row.  The writer must give the same bytes, and ``trace_rows`` the
same rows, for any mix of single events and appended templates.
"""

import gc
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from ntnsim.config import load_config_dict
from ntnsim.engine import run_scenario
from ntnsim.errors import DomainError
from ntnsim.events import _BLOCK_ROWS, MEASUREMENT, RX_ARRIVAL, TIMER_FIRE, TX_START, Simulator
from ntnsim.events import record

HEADER = "time_ms,seq,entity,kind,detail\n"
MAX_TIME_US = 10**12


def oracle_csv(rows) -> str:
    """The trace CSV as the row-based writer formatted it."""
    return HEADER + "".join(
        f"{t:.6f},{seq},{entity},{kind},{detail}\n" for t, seq, entity, kind, detail in rows
    )


class OracleLog:
    """The event log before records: one 5-tuple per entry."""

    def __init__(self):
        self.log = []

    def schedule(self, time_us, kind, entity, detail=""):
        self.log.append((time_us, len(self.log), entity, kind, detail))

    def append(self, start_us, events):
        for offset, entity, kind, detail in events:
            self.log.append((start_us + offset, len(self.log), entity, kind, detail))

    def trace_rows(self):
        return [
            (t / 1000, seq, entity, kind, detail)
            for t, seq, entity, kind, detail in sorted(self.log)
        ]


entities = st.sampled_from(["device", "bs"])
kinds = st.sampled_from([TX_START, RX_ARRIVAL, TIMER_FIRE, MEASUREMENT])
details = st.sampled_from(["", "msg2_rar", "harq_ack block=3 proc=1", "x=1,y", "rlc_pdu sn=0"])
# A few fixed times make equal-time entries common; the rest span 0..1e12 us.
times = st.one_of(
    st.sampled_from([0, 1, 999, 1000, 1001, 123_456_789, MAX_TIME_US]),
    st.integers(min_value=0, max_value=MAX_TIME_US),
)
template_entries = st.tuples(
    st.integers(min_value=0, max_value=2_000_000), entities, kinds, details
)
schedule_ops = st.tuples(st.just("schedule"), times, kinds, entities, details)
# Appends of one short template at nearby starts overlap, as attempts do
# when traffic is spaced closer than one access plus transfer.
append_ops = st.tuples(
    st.just("append"),
    st.integers(min_value=0, max_value=MAX_TIME_US - 2_000_000),
    st.lists(template_entries, max_size=6),
)


# A sort in the middle of the log, which a later append makes stale; and a
# read with no ``run`` before it, which must sort whatever was logged first.
run_ops = st.just(("run",))
read_ops = st.just(("read",))


@given(
    ops=st.lists(st.one_of(schedule_ops, append_ops, run_ops, read_ops), max_size=25),
    overlap_starts=st.lists(st.integers(min_value=0, max_value=3_000), max_size=4),
)
@settings(max_examples=200, deadline=None)
@example(
    ops=[
        ("schedule", MAX_TIME_US, TIMER_FIRE, "bs", ""),
        ("append", 0, [(0, "device", TX_START, "x=1,y")]),
        ("schedule", 0, RX_ARRIVAL, "device", "msg2_rar"),
    ],
    overlap_starts=[0, 0, 1],
)
@example(
    ops=[
        ("append", 5, [(0, "bs", TX_START, ""), (0, "device", RX_ARRIVAL, "")]),
        ("schedule", 1, TIMER_FIRE, "bs", ""),
        ("run",),
        ("schedule", 5, MEASUREMENT, "device", "x=1,y"),
        ("append", 0, [(1, "device", TX_START, "rlc_pdu sn=0")]),
    ],
    overlap_starts=[4],
)
@example(
    ops=[
        ("schedule", 7, TX_START, "device", ""),
        ("run",),
        ("append", 3, [(0, "bs", RX_ARRIVAL, "msg2_rar")]),
        ("read",),
    ],
    overlap_starts=[],
)
def test_write_csv_and_trace_rows_match_the_row_oracle(ops, overlap_starts):
    def append(start, template):
        """Log ``(offset_us, record)`` entries at ``start + offset_us``."""
        offsets = np.array([offset for offset, _ in template], dtype=np.int64)
        sim.append(start + offsets, range(len(template)), [rec for _, rec in template])

    def check():
        """The rows and the written trace are the oracle's."""
        rows = oracle.trace_rows()
        assert sim.trace_rows() == rows
        out = io.StringIO()
        sim.write_csv(out)
        assert out.getvalue() == oracle_csv(rows)

    sim, oracle = Simulator(), OracleLog()
    for op in ops:
        if op[0] == "run":
            sim.run()
            assert sim.trace_rows() == oracle.trace_rows()
        elif op[0] == "read":
            check()
        elif op[0] == "schedule":
            _, t, kind, entity, detail = op
            sim.schedule(t, kind, entity, detail)
            oracle.schedule(t, kind, entity, detail)
        else:
            _, start, events = op
            append(start, [(offset, record(*rest)) for offset, *rest in events])
            oracle.append(start, events)
    # One template appended at close starts: its entries share records.
    template = [(0, "device", "tx_start", "msg1_preamble"), (1500, "bs", "rx_arrival", "x=1,y")]
    shared = [(offset, record(*rest)) for offset, *rest in template]
    for start in overlap_starts:
        append(start, shared)
        oracle.append(start, template)
    sim.run()
    check()


def test_run_twice_is_run_once():
    sim = Simulator()
    sim.append(np.random.default_rng(3).integers(0, 5_000, 300), np.arange(300) % 3, RECS)
    sim.schedule(0, TIMER_FIRE, "bs")
    sim.run()
    once, seqs = sim.trace_rows(), sim._seqs.copy()
    sim.run()
    assert sim.trace_rows() == once
    np.testing.assert_array_equal(sim._seqs, seqs)
    assert sorted(seq for _, seq, *_ in once) == list(range(301))


REC = record("device", "timer_fire")


@pytest.mark.parametrize(
    "log",
    [
        lambda sim: sim.schedule(-1, TIMER_FIRE, "device"),
        lambda sim: sim.append(np.array([0, -1]), [0, 0], [REC]),
    ],
    ids=["schedule", "append"],
)
def test_a_negative_time_is_rejected(log):
    """The trace time format is exact only for t >= 0."""
    sim = Simulator()
    with pytest.raises(DomainError, match="non-negative"):
        log(sim)
    sim.run()
    assert sim.trace_rows() == []


def _check_logged(times, records):
    """Log ``records[k]`` at ``times[k]`` in one append, and check the
    written trace and the rows against the oracle."""
    sim, oracle = Simulator(), OracleLog()
    sim.append(np.array(times, dtype=np.int64), range(len(records)), records)
    oracle.append(0, [(t, *rec[:3]) for t, rec in zip(times, records)])
    sim.run()
    rows = oracle.trace_rows()
    assert sim.trace_rows() == rows
    out = io.StringIO()
    sim.write_csv(out)
    # Line by line: pytest's diff of two long texts would take minutes.
    lines, want = out.getvalue().splitlines(True), oracle_csv(rows).splitlines(True)
    for k, (line, wanted) in enumerate(zip(lines, want)):
        assert line == wanted, f"line {k}"
    assert len(lines) == len(want)
    return rows


RECS = [record("device", "tx_start", "msg1_preamble"), record("bs", "rx_arrival", "x=1,y"),
        record("bs", "timer_fire")]


def test_a_log_of_several_blocks_splits_between_equal_times():
    n = 2 * _BLOCK_ROWS + 5
    # Groups of three equal times, logged out of time order.
    times = (np.random.default_rng(7).permutation(n) // 3 * 1_001).tolist()
    rows = _check_logged(times, [RECS[k % 3] for k in range(n)])
    assert rows[_BLOCK_ROWS - 1][0] == rows[_BLOCK_ROWS][0]


def test_digit_widths_change_inside_a_block():
    # Whole ms on both sides of each width change (9 -> 10, 99 -> 100, ...)
    # from 0 to MAX_TIME_US, with fractions 0, 1 and 999 us.
    edges = sorted(
        t for t in {(10**k + d) * 1000 + f for k in range(10) for d in (-1, 0) for f in (0, 1, 999)}
        if t <= MAX_TIME_US
    )
    assert (edges[0], edges[-1]) == (0, MAX_TIME_US)
    # Over 1000 entries, logged round after round, so seqs of every width
    # share each time.
    times = [edges[k % len(edges)] for k in range(1_200)]
    rows = _check_logged(times, [RECS[k % 3] for k in range(len(times))])
    assert {len(str(seq)) for _, seq, *_ in rows} == {1, 2, 3, 4}


@pytest.mark.parametrize("time_us", [0, 1, 999, 1000, 123_456_789, MAX_TIME_US])
def test_one_row(time_us):
    """Time 0 is "0.000000" and the first seq is 0."""
    _check_logged([time_us], [RECS[1]])


def test_an_empty_log_writes_the_header_only():
    plain, records_only = Simulator(), Simulator()
    records_only.append([], [], RECS)  # records without entries log nothing
    for sim in (plain, records_only):
        sim.run()
        out = io.StringIO()
        sim.write_csv(out)
        assert out.getvalue() == HEADER and sim.trace_rows() == []


@pytest.mark.parametrize(
    "fields", [("dev\0ice", "tx_start", ""), ("bs", "\0", ""), ("bs", "tx_start", "sn=1\0")]
)
def test_a_nul_in_a_record_is_rejected(fields):
    """``write_csv`` drops the NUL bytes it pads rows with, so a record may hold none."""
    with pytest.raises(DomainError, match="NUL"):
        record(*fields)


def test_schedule_rejects_a_nul_detail():
    sim = Simulator()
    with pytest.raises(DomainError, match="NUL"):
        sim.schedule(0, TX_START, "device", "sn=1\0")
    sim.run()
    assert sim.trace_rows() == []


def test_a_non_ascii_detail_is_written_byte_for_byte(tmp_path):
    """UTF-8 holds no 0x00 byte outside NUL itself, so any other text passes
    the writer's NUL compaction unchanged."""
    detail = "rlc_pdu sn=1 \u00e9\u00e8 \u6771\u4eac \U0001f6f0"
    rows = _check_logged([1_500, 0], [record("device", "tx_start", detail), RECS[0]])
    sim = Simulator()
    sim.schedule(1_500, TX_START, "device", detail)
    sim.schedule(0, TX_START, "device", "msg1_preamble")
    sim.run()
    path = tmp_path / "trace.csv"
    with path.open("w", encoding="utf-8") as fh:
        sim.write_csv(fh)
    assert path.read_bytes() == oracle_csv(rows).encode("utf-8")


def _traced_peak(call):
    """``call()`` and the most memory, in bytes, that it held at once above
    what it started with, by tracemalloc, which numpy reports its array
    data to."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def leo_harq_config():
    """The LEO600 access and HARQ scenario of 5000 messages, 2 processes:
    120 000 trace entries."""
    data = json.loads((CONFIG_DIR / "leo600_sband.json").read_text())
    data["traffic"]["n_messages"] = 5000
    data["harq"] = {"enabled": True, "n_processes": 2}
    return load_config_dict(data)


def test_a_scenario_holds_at_most_five_entry_length_arrays(leo_harq_config):
    """The log keeps no seq column and no sorted copy of a column, and the
    access kernel frees its entry index early."""
    run_scenario(leo_harq_config)  # first-call set-up is not the log's memory
    result, peak = _traced_peak(lambda: run_scenario(leo_harq_config))
    entries = len(result.trace._seqs)
    assert entries == 120_000
    assert peak <= 5 * 8 * entries


class _Discard:
    def write(self, text):
        pass


def test_write_csv_peaks_under_1_5_mb(leo_harq_config):
    """``write_csv`` builds a block of rows at a time, so its memory does
    not grow with the log."""
    trace = run_scenario(leo_harq_config).trace
    _, peak = _traced_peak(lambda: trace.write_csv(_Discard()))
    assert peak <= 1.5e6
