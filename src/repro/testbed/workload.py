"""Synthetic session workload matching the paper's envelope.

The paper drove the lab with two J2EE benchmarks at a 60-70% load factor,
processing roughly seven million requests per 7-day run with average
session sizes of 50 KB (marketplace) and 30 KB (Nile bookstore).

The runner is session-oriented: sessions arrive Poisson, live for a
duration, and issue requests at a steady per-session rate.  It observes
cluster failure events to account the paper's headline user-visible
quantities — session failovers (response-time blips) and lost
transactions (session state destroyed by a pair loss or a total outage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import TestbedError
from repro.simulation.engine import SimulationEngine
from repro.testbed.cluster import TestCluster
from repro.units import SECONDS_PER_HOUR


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical envelope of the driven load.

    Defaults approximate the paper's runs scaled by ``scale`` (1.0 means
    paper-scale: ~7M requests/week ≈ 11.6 requests/s).  Tests use small
    scales to keep event counts manageable.

    Attributes:
        session_arrival_rate: New sessions per hour.
        session_duration_hours: Mean session lifetime.
        requests_per_session: Mean requests a session issues.
        session_size_kb: Session state size (bookkeeping only).
    """

    session_arrival_rate: float = 600.0
    session_duration_hours: float = 0.25
    requests_per_session: float = 70.0
    session_size_kb: float = 50.0

    def __post_init__(self) -> None:
        if self.session_arrival_rate <= 0.0:
            raise TestbedError("session arrival rate must be positive")
        if self.session_duration_hours <= 0.0:
            raise TestbedError("session duration must be positive")
        if self.requests_per_session <= 0.0:
            raise TestbedError("requests per session must be positive")

    @property
    def requests_per_hour(self) -> float:
        return self.session_arrival_rate * self.requests_per_session

    @classmethod
    def paper_scale(cls, scale: float = 1.0) -> "WorkloadProfile":
        """The paper's ~7M requests/week envelope, scaled."""
        if scale <= 0.0:
            raise TestbedError(f"scale must be positive, got {scale}")
        requests_per_hour = 7_000_000 / (7 * 24) * scale
        requests_per_session = 70.0
        return cls(
            session_arrival_rate=requests_per_hour / requests_per_session,
            session_duration_hours=0.25,
            requests_per_session=requests_per_session,
            session_size_kb=50.0,
        )


@dataclass
class WorkloadStats:
    """Counters accumulated during a run."""

    sessions_started: int = 0
    sessions_completed: int = 0
    sessions_rejected: int = 0       # arrived while the system was down
    sessions_failed_over: int = 0    # moved to a surviving instance
    transactions_lost: int = 0       # session state destroyed mid-flight
    requests_completed: float = 0.0

    def summary(self) -> str:
        return (
            f"sessions: {self.sessions_started} started, "
            f"{self.sessions_completed} completed, "
            f"{self.sessions_rejected} rejected, "
            f"{self.sessions_failed_over} failed over, "
            f"{self.transactions_lost} transactions lost; "
            f"requests completed: {self.requests_completed:,.0f}"
        )


class WorkloadRunner:
    """Drives sessions through a :class:`TestCluster`.

    Register it as a cluster observer and start it::

        runner = WorkloadRunner(engine, cluster, profile, rng)
        cluster.add_observer(runner)
        runner.start()
        engine.run_until(168.0)
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: TestCluster,
        profile: WorkloadProfile,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.engine = engine
        self.cluster = cluster
        self.profile = profile
        self.rng = rng or np.random.default_rng()
        self.stats = WorkloadStats()
        #: per-instance epoch, bumped whenever the instance's sessions are
        #: failed over or lost; a completion event carries the epoch it
        #: was scheduled in, so one from an earlier epoch is stale
        self._epoch: Dict[str, int] = {
            name: 0 for name in cluster.instances
        }
        #: the instances in name order, for the round-robin; names are
        #: fixed at construction, so the order never changes
        self._by_name = [
            cluster.instances[name] for name in sorted(cluster.instances)
        ]
        self._next_instance = 0

    def start(self) -> None:
        self._schedule_arrival()

    # Event handlers -----------------------------------------------------

    def _schedule_arrival(self) -> None:
        gap = self.rng.exponential(1.0 / self.profile.session_arrival_rate)
        self.engine.schedule(gap, self._session_arrives, label="session")

    def _session_arrives(self, engine: SimulationEngine, _payload) -> None:
        self._schedule_arrival()
        serving = [i for i in self._by_name if i.serving]
        if not self.cluster.system_up or not serving:
            self.stats.sessions_rejected += 1
            return
        self.stats.sessions_started += 1
        # Sticky round-robin over the serving instances in name order,
        # like the paper's load balancer.
        chosen = serving[self._next_instance % len(serving)]
        self._next_instance += 1
        name = chosen.name
        chosen.sessions += 1
        duration = self.rng.exponential(self.profile.session_duration_hours)
        engine.schedule(
            duration,
            self._session_completes,
            payload=(name, self._epoch[name]),
            label="session_end",
        )

    def _session_completes(self, engine: SimulationEngine, payload) -> None:
        name, epoch = payload
        if epoch != self._epoch[name]:
            # The session was failed over or lost; its original completion
            # event is stale.
            return
        self.cluster.instances[name].sessions -= 1
        self.stats.sessions_completed += 1
        self.stats.requests_completed += self.profile.requests_per_session

    def _end_epoch(self, names) -> int:
        """Drop the live sessions of ``names``; returns how many there were.

        Observers hear of a failure before the instance is taken down,
        so each instance's ``sessions`` still counts its live sessions.
        """
        ended = 0
        for name in names:
            instance = self.cluster.instances[name]
            self._epoch[name] += 1
            ended += instance.sessions
            instance.sessions = 0
        return ended

    # Cluster observer hooks ------------------------------------------------

    def on_instance_failed(self, name: str, now: float) -> None:
        """Sessions on the failed instance fail over or are lost."""
        n_sessions = self._end_epoch([name])
        if n_sessions == 0:
            return
        survivors = [
            i.name
            for i in self.cluster.serving_instances()
            if i.name != name
        ]
        if survivors and self.cluster.system_up:
            # State is in HADB; sessions resume on surviving instances.
            self.stats.sessions_failed_over += n_sessions
            for k in range(n_sessions):
                target = survivors[k % len(survivors)]
                self.cluster.instances[target].sessions += 1
                remaining = self.rng.exponential(
                    self.profile.session_duration_hours
                )
                self.engine.schedule(
                    remaining,
                    self._session_completes,
                    payload=(target, self._epoch[target]),
                    label="session_end",
                )
        else:
            self.stats.transactions_lost += n_sessions

    def on_pair_down(self, pair_index: int, now: float) -> None:
        """A pair loss destroys that fragment of every live session.

        Session data is partitioned across all pairs, so losing any pair
        loses a fragment of (approximately) every session.
        """
        self._lose_all_sessions()

    def on_system_down(self, now: float) -> None:
        """Total outage: every in-flight session is lost."""
        self._lose_all_sessions()

    def _lose_all_sessions(self) -> None:
        self.stats.transactions_lost += self._end_epoch(self.cluster.instances)
