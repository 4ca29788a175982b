"""Simulated wall clock shared by all nodes of a cluster.

The engine is single-threaded; "time" is a number that components advance
explicitly. The adaptive executor charges task latencies here (taking the
max over concurrent tasks rather than the sum), the slow-start algorithm
reads it to decide when to open new connections, and background workers use
it for their intervals. Nothing acts when the clock moves: what happened
over a stretch of time is read from the statement records stamped with it
(Active Session History among them).
"""

from __future__ import annotations


class SimClock:
    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        return self._now

    def advance_ms(self, millis: float) -> float:
        return self.advance(millis / 1000.0)

    def advance_to(self, when: float) -> float:
        """Move the clock forward to an absolute virtual time.

        A no-op when ``when`` is already in the past: event-driven
        schedulers (the traffic harness) pop wake-ups whose scheduled
        time may have been overtaken by service time charged while other
        actors executed, and those fire "now" rather than rewinding.
        """
        if when > self._now:
            self._now = float(when)
        return self._now
