"""Deterministic append-only event trace.

Time is carried as integer microseconds so long GEO scenarios never
accumulate float drift in timer arithmetic.  The protocol and transfer
models compute every event time in closed form and only log it here,
one event at a time (``schedule``) or a whole access attempt or transfer
at once (``replay``); ``run`` sorts the log once into (time, seq) order,
seq being the log position, so events at equal times keep the order they
were logged in.
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


class Simulator:
    """Event log with a CSV-able trace."""

    def __init__(self):
        self._log: list[tuple[int, int, str, str, str]] = []

    def schedule(self, time_us: int, kind: EventKind, entity: str, detail: str = "") -> None:
        self._log.append((int(time_us), len(self._log), entity, kind._value_, detail))

    def replay(self, start_us: int, events) -> None:
        """Log ``(offset_us, entity, kind_value, detail)`` template entries at
        ``start_us + offset_us``, in template order."""
        base = len(self._log)
        self._log += [
            (start_us + offset, base + k, entity, kind, detail)
            for k, (offset, entity, kind, detail) in enumerate(events)
        ]

    def run(self) -> None:
        """Sort the log by (time, seq); (time, seq) pairs are unique."""
        self._log.sort()

    def trace_rows(self) -> list[tuple[float, int, str, str, str]]:
        """(time_ms, seq, entity, kind, detail) rows of the event trace."""
        return [
            (time_us / US_PER_MS, seq, entity, kind, detail)  # us_to_ms, inlined
            for time_us, seq, entity, kind, detail in self._log
        ]
