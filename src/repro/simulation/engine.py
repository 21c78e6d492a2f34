"""A minimal, deterministic discrete-event simulation engine.

Design points:

* a binary-heap event calendar of ``(time, sequence, event)`` tuples, so
  simultaneous events fire in schedule order — runs are exactly
  reproducible for a given seed.  Sequence numbers are unique, so the
  heap orders entries by comparing a float and an int in C and never
  reaches the :class:`Event` itself (which is not orderable);
* events carry a callback and optional payload; callbacks may schedule
  further events and may cancel pending ones;
* the engine never moves time backwards and refuses to schedule into the
  past, turning subtle model bugs into immediate errors.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, Callable, Dict, Optional

from repro import obs
from repro.exceptions import SimulationError

EventCallback = Callable[["SimulationEngine", Any], None]


class Event:
    """A scheduled event.  The calendar orders it by ``(time, sequence)``;
    events themselves do not compare."""

    __slots__ = ("time", "sequence", "callback", "payload", "label", "cancelled")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        payload: Any = None,
        label: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.payload = payload
        self.label = label
        self.cancelled = False

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class SimulationEngine:
    """An event calendar with a clock.

    Example::

        engine = SimulationEngine()
        engine.schedule(1.5, lambda eng, _: print("fired at", eng.now))
        engine.run_until(10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._calendar: list = []
        self._sequence = itertools.count()
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulation time (hours, by library convention)."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return sum(1 for _, _, e in self._calendar if not e.cancelled)

    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        payload: Any = None,
        label: str = "",
    ) -> Event:
        """Schedule a callback ``delay`` time units from now.

        Returns the :class:`Event`, which the caller may later cancel.
        """
        if not math.isfinite(delay) or delay < 0.0:
            raise SimulationError(
                f"event delay must be finite and non-negative, got {delay} "
                f"(label={label!r})"
            )
        time_at = self._now + delay
        sequence = next(self._sequence)
        event = Event(time_at, sequence, callback, payload, label)
        heapq.heappush(self._calendar, (time_at, sequence, event))
        return event

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> None:
        """Fire events in order until the calendar empties or time is up.

        The clock is left at ``end_time`` even if the calendar empties
        earlier, so time-average statistics cover the full horizon.

        Args:
            end_time: Simulation horizon.
            max_events: Optional safety cap; exceeding it raises, which
                catches accidental event storms (e.g. a zero-delay
                self-rescheduling loop).
        """
        if end_time < self._now:
            raise SimulationError(
                f"cannot run until {end_time}; clock is already at {self._now}"
            )
        # Observability bookkeeping stays outside the event loop: one
        # enabled() check up front, one gauge/counter update at the end.
        instrumented = obs.enabled()
        if instrumented:
            fired_before = self._events_fired
            wall_before = time.perf_counter()
        # The loop runs once per event: the calendar, heappop and the
        # event cap live in locals, and the heap top is read in place.
        calendar = self._calendar
        pop = heapq.heappop
        limit = math.inf if max_events is None else max_events
        while calendar:
            if calendar[0][0] > end_time:
                break
            when, _, event = pop(calendar)
            if event.cancelled:
                continue
            if when < self._now:  # pragma: no cover - defensive
                raise SimulationError("event calendar went backwards")
            self._now = when
            self._events_fired += 1
            if self._events_fired > limit:
                raise SimulationError(
                    f"exceeded {max_events} events before reaching "
                    f"t={end_time}; runaway event loop?"
                )
            event.callback(self, event.payload)
        self._now = end_time
        if instrumented:
            fired = self._events_fired - fired_before
            elapsed = time.perf_counter() - wall_before
            obs.counter("sim_events_total").inc(fired)
            if elapsed > 0.0 and fired:
                obs.gauge("sim_events_per_second").set(fired / elapsed)

    def run_all(self, max_events: int = 10_000_000) -> None:
        """Drain the calendar completely (for terminating workloads)."""
        while self._calendar:
            # Advance to the next pending event; callbacks may schedule
            # more, so re-check the calendar each pass.
            self.run_until(self._calendar[0][0], max_events=max_events)


class StateTimeAccumulator:
    """Tracks time spent per named state (up/down accounting).

    Feed it state changes; read time totals at the end.  Used both by the
    CTMC simulator and the testbed's availability bookkeeping.
    """

    def __init__(self, initial_state: str, start_time: float = 0.0) -> None:
        self._state = initial_state
        self._since = start_time
        self._totals: Dict[str, float] = {}

    @property
    def state(self) -> str:
        return self._state

    def change(self, new_state: str, at_time: float) -> None:
        if at_time < self._since:
            raise SimulationError(
                f"state change at {at_time} precedes last change at "
                f"{self._since}"
            )
        self._totals[self._state] = (
            self._totals.get(self._state, 0.0) + at_time - self._since
        )
        self._state = new_state
        self._since = at_time

    def finalize(self, end_time: float) -> Dict[str, float]:
        """Close the open interval and return total time per state."""
        if end_time < self._since:
            raise SimulationError("end time precedes last state change")
        totals = dict(self._totals)
        totals[self._state] = (
            totals.get(self._state, 0.0) + end_time - self._since
        )
        return totals
