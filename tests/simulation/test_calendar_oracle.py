"""Differential oracle for the event calendar.

``ReferenceEngine`` keeps the calendar as it was first written: a heap
of ``@dataclass(order=True)`` events compared by ``(time, sequence)``.
The testbed runs on both engines must agree exactly, and a property
test pins the fired order of the production engine to ``(time,
sequence)`` under ties, zero delays, cancellations and callbacks that
schedule more.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SimulationError
from repro.simulation.engine import EventCallback, SimulationEngine
from repro.testbed import campaign, longevity
from repro.testbed.cluster import ClusterConfig
from repro.testbed.longevity import BackgroundFailureRates, run_longevity_test


@dataclass(order=True)
class ReferenceEvent:
    """A scheduled event; ordering is by (time, sequence number)."""

    time: float
    sequence: int
    callback: EventCallback = field(compare=False)
    payload: Any = field(compare=False, default=None)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceEngine(SimulationEngine):
    """The calendar of orderable dataclass events, kept as the oracle."""

    def schedule(self, delay, callback, payload=None, label=""):
        if not math.isfinite(delay) or delay < 0.0:
            raise SimulationError(
                f"event delay must be finite and non-negative, got {delay} "
                f"(label={label!r})"
            )
        event = ReferenceEvent(
            time=self._now + delay,
            sequence=next(self._sequence),
            callback=callback,
            payload=payload,
            label=label,
        )
        heapq.heappush(self._calendar, event)
        return event

    def run_until(self, end_time: float, max_events: Optional[int] = None):
        if end_time < self._now:
            raise SimulationError(
                f"cannot run until {end_time}; clock is already at {self._now}"
            )
        while self._calendar:
            event = self._calendar[0]
            if event.time > end_time:
                break
            heapq.heappop(self._calendar)
            if event.cancelled:
                continue
            if event.time < self._now:
                raise SimulationError("event calendar went backwards")
            self._now = event.time
            self._events_fired += 1
            if max_events is not None and self._events_fired > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events before reaching "
                    f"t={end_time}; runaway event loop?"
                )
            event.callback(self, event.payload)
        self._now = end_time

    def run_all(self, max_events: int = 10_000_000) -> None:
        while self._calendar:
            self.run_until(self._calendar[0].time, max_events=max_events)


def _recording(engine_class, engines):
    class Recorded(engine_class):
        def __init__(self) -> None:
            super().__init__()
            engines.append(self)

    return Recorded


def _log_outputs(log):
    return {
        "failures_by_category": dict(log.failures_by_category),
        "outages": list(log.outages),
        "recoveries": list(log.recoveries),
    }


#: Per-entity rates (per hour) high enough that three days see session
#: failovers, total outages (both AS instances down) and HADB pair loss.
ORACLE_RATES = BackgroundFailureRates(
    as_software=0.2, as_os=0.05, as_hardware=0.05,
    hadb_software=0.2, hadb_os=0.1, hadb_hardware=0.2,
)


def _longevity_outputs(monkeypatch, engine_class, seed):
    engines = []
    monkeypatch.setattr(
        longevity, "SimulationEngine", _recording(engine_class, engines)
    )
    result = run_longevity_test(3.0, background=ORACLE_RATES, seed=seed)
    return {
        "availability": result.availability,
        "workload": asdict(result.workload),
        "as_failures": result.as_failures,
        "hadb_failures": result.hadb_failures,
        "events_fired": engines[0].events_fired,
        **_log_outputs(result.log),
    }


class TestTestbedMatchesReferenceCalendar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_longevity_run_identical(self, monkeypatch, seed):
        reference = _longevity_outputs(monkeypatch, ReferenceEngine, seed)
        candidate = _longevity_outputs(monkeypatch, SimulationEngine, seed)
        assert candidate == reference
        # The run reaches every failure path the workload observes.
        causes = {outage.cause for outage in reference["outages"]}
        assert reference["workload"]["sessions_failed_over"] > 0
        assert "as_all_down" in causes
        assert any(cause.startswith("hadb_pair_") for cause in causes)

    def test_campaign_identical(self, monkeypatch):
        def outputs(engine_class):
            engines = []
            monkeypatch.setattr(
                campaign, "SimulationEngine",
                _recording(engine_class, engines),
            )
            result = campaign.run_fault_injection_campaign(
                40, config=ClusterConfig(fir=0.3), seed=5
            )
            return {
                "n_injections": result.n_injections,
                "n_successful": result.n_successful,
                "recovery_times": result.recovery_times,
                "injected_kinds": result.injected_kinds,
                "events_fired": engines[0].events_fired,
                **_log_outputs(result.log),
            }

        reference = outputs(ReferenceEngine)
        assert outputs(SimulationEngine) == reference
        assert reference["n_successful"] < reference["n_injections"]


#: Delays drawn from a small set make ties (and zero delays) common.
delays = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
#: What an event does when it fires: the delays of the events it
#: schedules, and which pending event (if any) it cancels.
actions = st.tuples(
    st.lists(delays, max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
)


@settings(max_examples=200, deadline=None)
@given(
    initial=st.lists(delays, min_size=1, max_size=8),
    plan=st.lists(actions, max_size=40),
    cancel_first=st.lists(st.booleans(), max_size=8),
    pause=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)
def test_fired_order_is_time_then_sequence(initial, plan, cancel_first, pause):
    engine = SimulationEngine()
    scheduled = []
    pending = []
    fired = []

    def add(delay):
        event = engine.schedule(delay, on_fire, payload=len(scheduled))
        scheduled.append(event)
        pending.append(event)

    def on_fire(eng, index):
        event = scheduled[index]
        assert eng.now == event.time
        pending.remove(event)
        fired.append(event)
        if index < len(plan):
            children, cancel = plan[index]
            for delay in children:
                if len(scheduled) < 60:
                    add(delay)
            if cancel is not None and pending:
                victim = pending.pop(cancel % len(pending))
                victim.cancel()

    for delay in initial:
        add(delay)
    for event, cancel in zip(list(scheduled), cancel_first):
        if cancel:
            pending.remove(event)
            event.cancel()

    # Stop part-way once, so the order also holds across run_until calls.
    engine.run_until(pause)
    engine.run_all()

    expected = sorted(
        (e for e in scheduled if not e.cancelled),
        key=lambda e: (e.time, e.sequence),
    )
    assert fired == expected
    assert engine.events_fired == len(fired)
    assert engine.pending_events == 0
