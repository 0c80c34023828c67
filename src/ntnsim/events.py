"""Deterministic append-only event trace.

Time is carried as integer microseconds so long GEO scenarios never
accumulate float drift in timer arithmetic.  The protocol and transfer
models compute every event time in closed form and only log it here, in
one way: ``append(times_us, codes, table)`` logs ``table[codes[k]]`` at
``times_us[k]`` (a transfer template at its start time, or a whole
scenario's events); ``schedule`` logs one event.  The log is kept as int64
columns (times, codes) in log order, code being an index into the
simulator's one list of records, so an entry's seq is its log position
and no column holds it.  ``run`` sorts the log once, stably by time, into
(time, seq) order, so events at equal times keep the order they were
logged in.  It keeps only the sort's permutation, which is the trace's
seq column; the columns are gathered through it a block of rows at a
time when the trace is read.  A read sorts first if anything was logged
since the last sort, so every read is in (time, seq) order.

A record (see ``record``) is built once per printed event and shared by
every entry that logs it, and it carries its CSV line tail: the access
kernel logs each attempt from its stage's template of (offset, code)
pairs and builds one record per printed detail (residual, TA steps,
reported delay), not one per attempt.
``write_csv`` builds the trace bytes block by block in one reused matrix
of "<u8" words: each row is its record's tail, the whole ms and the seq
in ASCII, four digits per ``// 10**4`` and table ``take``, and the ms
fraction; one compaction per block drops the NULs that pad them.  The
log stays in integer us until it is written, so the CSV prints each
time's exact us.
``trace_rows`` builds float rows only when asked; its ``time_us / 1000``
prints as ``f"{t:.6f}"`` to the CSV's text only below 2**33 ms (past it,
9000000038228 us is 9000000038.228000 in the CSV and 9000000038.228001
from the float).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError

US_PER_MS = 1000


def checked_us(t_us):
    """``t_us`` (integer us: scalar, sequence or array) if every time lies
    below 2**62 in magnitude, which leaves int64 room to add offsets."""
    if not np.all(np.abs(t_us) < 2.0**62):
        raise DomainError("event time outside the int64 us range")
    return t_us


def ms_to_us(t_ms: float) -> int:
    return round(checked_us(t_ms * US_PER_MS))


def us_to_ms(t_us: int) -> float:
    return t_us / US_PER_MS


def ms_to_us_array(t_ms: np.ndarray) -> np.ndarray:
    """``ms_to_us`` of each element (``np.rint`` rounds half to even, as
    ``round`` does), as int64."""
    return checked_us(np.rint(t_ms * US_PER_MS)).astype(np.int64)


# The four event kinds, the strings that records carry.
TX_START, RX_ARRIVAL, TIMER_FIRE, MEASUREMENT = "tx_start", "rx_arrival", "timer_fire", "measurement"


def record(entity: str, kind: str, detail: str = "") -> tuple[str, str, str, str]:
    """``(entity, kind, detail, csv_tail)`` of one event; ``kind`` is one
    of the four kind strings (``TX_START`` ...) and ``csv_tail`` the
    event's trace line after its time and seq.  No field may hold a NUL,
    which ``write_csv`` pads with."""
    if "\0" in entity + kind + detail:
        raise DomainError("trace fields must not contain NUL")
    return entity, kind, detail, f",{entity},{kind},{detail}\n"


# The ms fraction and the comma after it of each time_us % 1000, as
# f"{t / 1000:.6f}" prints it, for 0 <= t < 2**33 ms (about 99 days): there
# the float t / 1000 lies within half a printed digit of its decimal value.
# The log holds no negative time.  One little-endian 8-byte word each.
_FRAC = np.array([f".{k:03d}000,".encode() for k in range(US_PER_MS)]).view("<u8")
# Rows per block of write_csv and trace_rows, which bounds their memory: a
# block's temporaries take about 250 B a row on the 120 000-row LEO trace
# (the row words and their mask, 72 B each; the compacted bytes, 61 B; the
# block's times, seqs, codes, ms and fraction, 40 B), about 1 MB at 4096
# rows, and blocks of 2048 to 16384 rows write no faster than this size.
_BLOCK_ROWS = 1 << 12
@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group g in ASCII, first digit in the low byte of a "<u4":
    groups[g] with leading zeros as NULs (0 as four NULs), groups[10**4 + g]
    in full; units differs in that a units group of 0 prints its "0".  Built
    on first use: a run that writes no trace never holds them."""
    groups = np.empty((2, 10, 10, 10, 10, 4), np.uint8)  # (table, 4 digits, byte)
    for k in range(4):
        groups[..., k] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
        groups[(0,) * (k + 2) + (..., k)] = 0  # leading zeros in table 0
    groups = groups.view("<u4").reshape(-1)
    units = groups.copy()
    units[0] = ord("0") << 24
    return groups, units


def _decimal(x: np.ndarray, out: np.ndarray) -> None:
    """Write each int of ``x`` (0 <= x < 10**(8 * out.shape[1])) into its row
    of ``out``, ``(len(x), words)`` "<u8", as right-aligned ASCII decimal,
    two 4-digit groups a word, NUL where a leading zero would be."""
    groups, table = _group_tables()
    out = out.view("<u4")
    for j in reversed(range(1, out.shape[1])):
        high = x // 10**4
        # x's low group plus 10**4 if digits are left of it, else x itself.
        out[:, j] = table.take(np.minimum(x, x - high * 10**4 + 10**4))
        table, x = groups, high
    out[:, 0] = table.take(x)


class Simulator:
    """Event log with a CSV-able trace."""

    def __init__(self):
        # (times_us, codes) chunks in log order, which no sort changes, so an
        # entry's seq is its index; a code indexes self._records.
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._records: list[tuple[str, str, str, str]] = []
        # The log's trace order, the seq column of its rows; None until
        # ``run`` sorts the log, and again after each append.
        self._seqs: np.ndarray | None = None

    def append(self, times_us, codes, table) -> None:
        """Log ``table[codes[k]]`` (a record) at ``times_us[k]``, in order.
        The log may keep int64 arrays it is given, so change none after."""
        times_us = np.asarray(times_us, dtype=np.int64)
        if times_us.size and times_us.min() < 0:
            raise DomainError("event times must be non-negative")
        codes = np.asarray(codes, np.int64)
        # The first table's codes need no offset, so a log of one append
        # holds the caller's arrays with no copy.
        self._chunks.append((times_us, codes + len(self._records) if self._records else codes))
        self._records += table
        self._seqs = None

    def schedule(self, time_us: int, kind: str, entity: str, detail: str = "") -> None:
        self.append([int(time_us)], [0], [record(entity, kind, detail)])

    def _merged(self) -> tuple[np.ndarray, np.ndarray]:
        """(times_us, codes) of the whole log in log order, merged into one chunk."""
        if not self._chunks:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(part) for part in zip(*self._chunks))]
        return self._chunks[0]

    def run(self) -> None:
        """Sort the log by (time, seq); (time, seq) pairs are unique.  The
        stable sort of the log-order times is that order, as each seq is a
        log position; the columns are gathered block by block when read."""
        if self._seqs is None:
            self._seqs = np.argsort(self._merged()[0], kind="stable")

    def _blocks(self):
        """(times_us, seqs, codes) of the trace's rows, ``_BLOCK_ROWS`` at a time."""
        self.run()
        (times, codes), seqs = self._merged(), self._seqs
        for start in range(0, len(seqs), _BLOCK_ROWS):
            block = seqs[start:start + _BLOCK_ROWS]
            yield times.take(block), block, codes.take(block)

    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        """(time_ms, seq, entity, kind, detail) rows of the event trace."""
        return [
            (time_us / US_PER_MS, seq, entity, kind, detail)  # us_to_ms, inlined
            for times, seqs, codes in self._blocks()
            for time_us, seq, (entity, kind, detail, _) in zip(
                times.tolist(), seqs.tolist(), map(self._records.__getitem__, codes.tolist())
            )
        ]

    def write_csv(self, fh) -> None:
        """Write the trace CSV (header, then one line per entry) in UTF-8 to
        ``fh``, a binary file.  A block's rows are "<u8" words: the record's
        tail, with the ms, its fraction and the seq over its first words."""
        fh.write(b"time_ms,seq,entity,kind,detail\n")
        times = self._merged()[0]
        tails = np.array([rec[3].encode() for rec in self._records], dtype=bytes)
        # 8 digits a word: enough words for the largest ms and seq.
        ms_end = -(-len(str(times.max(initial=0) // US_PER_MS)) // 8)
        seq_end = ms_end + 1 - (-len(str(len(times))) // 8)
        # Each record's row: its tail, padded to whole words, after seq_end.
        table = np.zeros((len(tails), seq_end - (-tails.itemsize // 8)), "<u8")
        table[:, seq_end:].view(f"S{8 * (table.shape[1] - seq_end)}")[:, 0] = tails
        buf = np.empty((_BLOCK_ROWS, table.shape[1]), "<u8")
        for times, seqs, codes in self._blocks():
            rows = buf[:len(seqs)]
            # Every code indexes a record, and "clip" lets take write rows unbuffered.
            table.take(codes, 0, out=rows, mode="clip")
            ms, frac = np.divmod(times, US_PER_MS)
            _decimal(ms, rows[:, :ms_end])
            rows[:, ms_end] = _FRAC.take(frac)
            _decimal(seqs, rows[:, ms_end + 1:seq_end])
            flat = rows.view(np.uint8).reshape(-1)
            fh.write(flat[flat != 0])
