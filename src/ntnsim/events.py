"""Deterministic append-only event trace.

Time is carried as integer microseconds so long GEO scenarios never
accumulate float drift in timer arithmetic.  The protocol and transfer
models compute every event time in closed form and only log it here:
one event (``schedule``) or many at once (``append``: a transfer template
at its start time, or a whole scenario's events).  The log is kept as
columns, appended in chunks of (int64 times, seqs, records), seq being
the log position; ``run`` sorts it once, stably by time, into (time, seq)
order, so events at equal times keep the order they were logged in.

A record (see ``record``) is built once per distinct event and shared by
every entry that logs it, and it carries its CSV line tail, so
``write_csv`` formats only the time and seq of each entry.  The log stays
in integer us until it is written; ``trace_rows`` builds float rows only
when asked.
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
    time and seq."""
    return entity, kind, detail, f",{entity},{kind},{detail}\n"


def records_array(records) -> np.ndarray:
    """A 1-d object array of records (a plain ``np.array`` would read each
    record tuple as a row)."""
    return np.fromiter(records, dtype=object, count=len(records))


# The ms fraction and the comma after it of each time_us % 1000, as
# f"{t / 1000:.6f}" prints it, for 0 <= t < 2**33 ms (about 99 days): there
# the float t / 1000 lies within half a printed digit of its decimal value.
# The log holds no negative time.
_FRAC = np.array([f".{k:03d}000," for k in range(US_PER_MS)], dtype=object)


class Simulator:
    """Event log with a CSV-able trace."""

    def __init__(self):
        # (times_us, seqs, records) chunks in log order; equal times sort
        # by seq within and across chunks.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._size = 0

    def append(self, times_us, records: np.ndarray) -> None:
        """Log ``records[k]`` (an object array) at ``times_us[k]``, in order."""
        times_us = np.asarray(times_us, dtype=np.int64)
        if times_us.size and times_us.min() < 0:
            raise DomainError("event times must be non-negative")
        seqs = np.arange(self._size, self._size + len(times_us))
        self._chunks.append((times_us, seqs, records))
        self._size += len(times_us)

    def schedule(self, time_us: int, kind: EventKind, entity: str, detail: str = "") -> None:
        self.append([int(time_us)], records_array([record(entity, kind._value_, detail)]))

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times_us, seqs, records) of the whole log, merged into one chunk."""
        if not self._chunks:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, object)
        if len(self._chunks) > 1:
            self._chunks = [tuple(np.concatenate(part) for part in zip(*self._chunks))]
        return self._chunks[0]

    def run(self) -> None:
        """Sort the log by (time, seq); (time, seq) pairs are unique."""
        times, seqs, records = self._columns()
        order = np.argsort(times, kind="stable")
        self._chunks = [(times[order], seqs[order], records[order])]

    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        """(time_ms, seq, entity, kind, detail) rows of the event trace."""
        times, seqs, records = self._columns()
        return [
            (time_us / US_PER_MS, seq, entity, kind, detail)  # us_to_ms, inlined
            for time_us, seq, (entity, kind, detail, _) in zip(
                times.tolist(), seqs.tolist(), records.tolist()
            )
        ]

    def write_csv(self, fh) -> None:
        """Write the trace CSV (header, then one line per entry) to ``fh``."""
        fh.write("time_ms,seq,entity,kind,detail\n")
        times, seqs, records = self._columns()
        ms, frac = np.divmod(times, US_PER_MS)
        fh.write("".join([
            f"{whole}{part}{seq}{rec[3]}"
            for whole, part, seq, rec in zip(
                ms.tolist(), _FRAC[frac].tolist(), seqs.tolist(), records.tolist()
            )
        ]))
