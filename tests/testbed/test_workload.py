"""Unit tests for the synthetic workload."""

import numpy as np
import pytest

from repro.exceptions import TestbedError
from repro.simulation.engine import SimulationEngine
from repro.testbed.cluster import ClusterConfig, TestCluster
from repro.testbed.entities import NodeState
from repro.testbed.faults import FaultSpec
from repro.testbed.workload import WorkloadProfile, WorkloadRunner


def make_rig(seed=0, profile=None, **config_kwargs):
    engine = SimulationEngine()
    cluster = TestCluster(
        engine, ClusterConfig(**config_kwargs), rng=np.random.default_rng(seed)
    )
    runner = WorkloadRunner(
        engine, cluster, profile or WorkloadProfile(), np.random.default_rng(seed)
    )
    cluster.add_observer(runner)
    runner.start()
    return engine, cluster, runner


def sessions_by_name(cluster):
    return {name: i.sessions for name, i in cluster.instances.items()}


def open_sessions(cluster):
    return sum(sessions_by_name(cluster).values())


class TestWorkloadProfile:
    def test_defaults_valid(self):
        profile = WorkloadProfile()
        assert profile.requests_per_hour == pytest.approx(600.0 * 70.0)

    def test_paper_scale(self):
        profile = WorkloadProfile.paper_scale()
        # ~7M requests per 7-day week.
        assert profile.requests_per_hour * 7 * 24 == pytest.approx(7e6)

    def test_scale_factor(self):
        half = WorkloadProfile.paper_scale(0.5)
        assert half.requests_per_hour * 7 * 24 == pytest.approx(3.5e6)

    def test_invalid(self):
        with pytest.raises(TestbedError):
            WorkloadProfile(session_arrival_rate=0.0)
        with pytest.raises(TestbedError):
            WorkloadProfile.paper_scale(0.0)


class TestSteadyOperation:
    def test_sessions_flow_without_failures(self):
        engine, _cluster, runner = make_rig()
        engine.run_until(10.0)
        stats = runner.stats
        assert stats.sessions_started > 1000
        assert stats.sessions_completed > 0
        assert stats.sessions_rejected == 0
        assert stats.transactions_lost == 0

    def test_round_robin_balances(self):
        engine, cluster, runner = make_rig()
        engine.run_until(5.0)
        live = sessions_by_name(cluster)
        total = sum(live.values())
        if total > 100:
            ratio = live["as1"] / max(1, live["as2"])
            assert 0.7 < ratio < 1.4


class TestFailureInteraction:
    def test_failover_moves_sessions(self):
        engine, cluster, runner = make_rig()
        engine.run_until(2.0)
        before = open_sessions(cluster)
        assert before > 0
        cluster.inject(FaultSpec("as_kill_processes", target="as1"))
        stats = runner.stats
        assert stats.sessions_failed_over > 0
        assert stats.transactions_lost == 0
        assert cluster.instances["as1"].sessions == 0

    def test_total_outage_loses_transactions(self):
        engine, cluster, runner = make_rig()
        engine.run_until(2.0)
        cluster.inject(FaultSpec("as_kill_processes", target="as1"))
        cluster.inject(FaultSpec("as_kill_processes", target="as2"))
        assert runner.stats.transactions_lost > 0

    def test_sessions_rejected_while_down(self):
        engine, cluster, runner = make_rig()
        engine.run_until(1.0)
        cluster.inject(FaultSpec("as_kill_processes", target="as1"))
        cluster.inject(FaultSpec("as_kill_processes", target="as2"))
        engine.run_until(engine.now + 0.01)  # while both are down
        assert runner.stats.sessions_rejected > 0

    def test_pair_loss_destroys_session_state(self):
        engine, cluster, runner = make_rig()
        engine.run_until(2.0)
        live_before = open_sessions(cluster)
        assert live_before > 0
        cluster.inject(FaultSpec("hadb_kill_all_processes", target="hadb-0a"))
        cluster.inject(FaultSpec("hadb_kill_all_processes", target="hadb-0b"))
        assert runner.stats.transactions_lost >= live_before


class LedgerEngine(SimulationEngine):
    """Notes, for each session completion that fires, when it was
    scheduled, when it fired and which instances lost a live session."""

    def __init__(self) -> None:
        super().__init__()
        self.runner = None
        self.completions = []

    def schedule(self, delay, callback, payload=None, label=""):
        if label == "session_end":
            scheduled_at = self.now

            def completes(engine, event_payload, _callback=callback):
                before = sessions_by_name(self.runner.cluster)
                _callback(engine, event_payload)
                after = sessions_by_name(self.runner.cluster)
                ended = sorted(
                    name for name, n in after.items() if n < before[name]
                )
                self.completions.append((scheduled_at, engine.now, ended))

            callback = completes
        return super().schedule(delay, callback, payload, label)


class TestStaleCompletions:
    def test_pre_failure_completion_does_not_end_rejoined_sessions(self):
        engine = LedgerEngine()
        cluster = TestCluster(
            engine, ClusterConfig(), rng=np.random.default_rng(3)
        )
        runner = WorkloadRunner(
            engine, cluster, WorkloadProfile(), np.random.default_rng(3)
        )
        engine.runner = runner
        cluster.add_observer(runner)
        runner.start()
        engine.run_until(2.0)
        assert cluster.instances["as1"].sessions > 0
        failed_at = engine.now
        cluster.inject(FaultSpec("as_kill_processes", target="as1"))
        while not cluster.instances["as1"].serving:
            engine.run_until(engine.now + 1.0 / 3600.0)
        rejoined_at = engine.now
        engine.run_until(rejoined_at + 1.0)
        assert cluster.instances["as1"].sessions > 0

        # Completions scheduled before the failure that fire after as1
        # rejoined: as2's own sessions end, as1's are stale and end
        # nothing — every session on as1 now was pinned after the rejoin.
        late = [
            ended for scheduled_at, fired_at, ended in engine.completions
            if scheduled_at < failed_at and fired_at > rejoined_at
        ]
        assert [ended for ended in late if ended != ["as2"]]
        assert [ended for ended in late if "as1" in ended] == []

    def test_session_accounting_balances_after_failovers(self):
        engine, cluster, runner = make_rig()
        engine.run_until(2.0)
        cluster.inject(FaultSpec("as_kill_processes", target="as1"))
        engine.run_until(3.0)
        cluster.inject(FaultSpec("as_power_unplug", target="as2"))
        engine.run_until(5.0)
        stats = runner.stats
        assert stats.sessions_failed_over > 0
        assert stats.sessions_started == (
            stats.sessions_completed
            + stats.transactions_lost
            + open_sessions(cluster)
        )


class TestRoundRobinOrder:
    def test_arrivals_follow_sorted_serving_names(self):
        engine, cluster, runner = make_rig(
            profile=WorkloadProfile(session_duration_hours=1000.0),
            n_as_instances=12,
        )
        for name in ("as2", "as7", "as11"):
            cluster.instances[name].take_down(NodeState.RESTARTING)
        serving = sorted(
            name for name, i in cluster.instances.items() if i.serving
        )
        assert serving[:4] == ["as1", "as10", "as12", "as3"]

        chosen = []
        for _ in range(2 * len(serving) + 3):
            before = sessions_by_name(cluster)
            runner._session_arrives(engine, None)
            after = sessions_by_name(cluster)
            chosen += [n for n in after if after[n] > before[n]]
        assert chosen == [
            serving[k % len(serving)] for k in range(len(chosen))
        ]
        assert len(chosen) == 2 * len(serving) + 3
