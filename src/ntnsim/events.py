"""Deterministic append-only event trace.

Time is carried as integer microseconds so long GEO scenarios never
accumulate float drift in timer arithmetic.  The protocol and transfer
models compute every event time in closed form and only log it here,
one event at a time (``schedule``) or a whole access attempt or transfer
at once (``replay``); ``run`` sorts the log once into (time, seq) order,
seq being the log position, so events at equal times keep the order they
were logged in.

A log entry is ``(time_us, seq, record)``.  The record (see ``record``)
is built once per distinct event and shared by every entry that logs it,
and it carries its CSV line tail, so ``write_csv`` formats only the time
and seq of each entry.  The log stays in integer us until it is written;
``trace_rows`` builds float rows only when asked.
"""

from __future__ import annotations

from enum import Enum

US_PER_MS = 1000


def ms_to_us(t_ms: float) -> int:
    return round(t_ms * US_PER_MS)


def us_to_ms(t_us: int) -> float:
    return t_us / US_PER_MS


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


class Simulator:
    """Event log with a CSV-able trace."""

    def __init__(self):
        self._log: list[tuple[int, int, tuple[str, str, str, str]]] = []

    def schedule(self, time_us: int, kind: EventKind, entity: str, detail: str = "") -> None:
        self._log.append((int(time_us), len(self._log), record(entity, kind._value_, detail)))

    def replay(self, start_us: int, events) -> None:
        """Log ``(offset_us, record)`` template entries at
        ``start_us + offset_us``, in template order."""
        base = len(self._log)
        self._log += [
            (start_us + offset, base + k, rec) for k, (offset, rec) in enumerate(events)
        ]

    def run(self) -> None:
        """Sort the log by (time, seq); (time, seq) pairs are unique."""
        self._log.sort()

    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        """(time_ms, seq, entity, kind, detail) rows of the event trace."""
        return [
            (time_us / US_PER_MS, seq, entity, kind, detail)  # us_to_ms, inlined
            for time_us, seq, (entity, kind, detail, _) in self._log
        ]

    def write_csv(self, fh) -> None:
        """Write the trace CSV (header, then one line per entry) to ``fh``."""
        fh.write("time_ms,seq,entity,kind,detail\n")
        # t / 1000 is us_to_ms inlined; it formats exactly as trace_rows' time.
        fh.write("".join([f"{t / 1000:.6f},{seq}{rec[3]}" for t, seq, rec in self._log]))
