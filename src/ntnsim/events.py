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
``write_csv`` builds the trace bytes block by block with array
operations: each row is the whole ms and the seq as ASCII digits, an
8-byte ms fraction from a table, and the tail of the row's record, in a
NUL-padded uint8 matrix whose NULs are then dropped.  The log stays in
integer us until it is written, so the CSV prints each time's exact us.
``trace_rows`` builds float rows only when asked; its ``time_us / 1000``
prints as ``f"{t:.6f}"`` to the CSV's text only below 2**33 ms (past it,
9000000038228 us is 9000000038.228000 in the CSV and 9000000038.228001
from the float).
"""

from __future__ import annotations

from enum import Enum

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


class EventKind(Enum):
    TX_START = "tx_start"
    RX_ARRIVAL = "rx_arrival"
    TIMER_FIRE = "timer_fire"
    MEASUREMENT = "measurement"


# The kind strings that records carry.
_TX, _RX, _TIMER, _MEASUREMENT = (kind.value for kind in EventKind)


def record(entity: str, kind: str, detail: str = "") -> tuple[str, str, str, str]:
    """``(entity, kind, detail, csv_tail)`` of one event; ``kind`` is an
    ``EventKind`` value and ``csv_tail`` the event's trace line after its
    time and seq.  No field may hold a NUL, which ``write_csv`` pads with."""
    if "\0" in entity + kind + detail:
        raise DomainError("trace fields must not contain NUL")
    return entity, kind, detail, f",{entity},{kind},{detail}\n"


# The ms fraction and the comma after it of each time_us % 1000, as
# f"{t / 1000:.6f}" prints it, for 0 <= t < 2**33 ms (about 99 days): there
# the float t / 1000 lies within half a printed digit of its decimal value.
# The log holds no negative time.
_FRAC = np.array([f".{k:03d}000,".encode() for k in range(US_PER_MS)])
_FRAC = _FRAC.view(np.uint8).reshape(US_PER_MS, _FRAC.itemsize)
# Rows per block of write_csv and trace_rows, which bounds their memory: a
# block's temporaries (the padded matrix, its mask, the compacted bytes and
# the text) take about 220 B a row, under 1 MB at 4096 rows, and blocks
# this size write no slower than 4x larger ones.
_BLOCK_ROWS = 1 << 12
# The least value that shows a digit k places left of the units digit:
# 10**k, and 0 for the units digit, which always shows.
_SHOWN_FROM = np.array([0] + [10**k for k in range(1, 19)], np.int64)


def _digits(x: np.ndarray) -> np.ndarray:
    """``(len(x), width)`` uint8: each non-negative int of ``x`` in ASCII
    decimal, right-aligned, NUL where a leading zero would be."""
    width = len(str(int(x.max())))
    shown = x >= _SHOWN_FROM[width - 1::-1, None]
    out = np.empty((width, len(x)), np.uint8)
    for j in reversed(range(width)):
        quotient = x // 10
        out[j] = x - 10 * quotient
        x = quotient
    out += ord("0")
    out *= shown
    return out.T


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

    def schedule(self, time_us: int, kind: EventKind, entity: str, detail: str = "") -> None:
        self.append([int(time_us)], [0], [record(entity, kind._value_, detail)])

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
        """Write the trace CSV (header, then one line per entry) to ``fh``."""
        fh.write("time_ms,seq,entity,kind,detail\n")
        tails = np.array([rec[3].encode() for rec in self._records], dtype=bytes)
        tails = tails.view(np.uint8).reshape(len(tails), tails.itemsize)
        for times, seqs, codes in self._blocks():
            ms, frac = np.divmod(times, US_PER_MS)
            rows = np.concatenate(
                (_digits(ms), _FRAC.take(frac, 0), _digits(seqs), tails.take(codes, 0)), axis=1
            )
            flat = rows.reshape(-1)
            fh.write(flat[flat != 0].tobytes().decode())
