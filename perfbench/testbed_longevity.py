"""The ``testbed-longevity`` workload: seeded 30-day longevity runs.

Each run is ``run_longevity_test`` on the default lab and workload
profile with non-zero :data:`BACKGROUND` failure rates, so failure,
failover and recovery handlers run beside the per-session events.  Runs
repeat until ``--seconds`` is used; the first two share a seed so their
outputs can be compared.

To time the run from outside, the engine the test builds is replaced by
:class:`SlicedEngine`, which advances ``run_until`` one simulated hour
at a time and times each slice.  Slicing changes nothing the model sees:
the same events fire in the same ``(time, sequence)`` order, and a
check compares a sliced run with a plain one.  ``p50_ms``/``p99_ms`` are
the wall time of one simulated hour, ``throughput_per_s`` simulated
hours per wall second.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from perfbench.common import (
    Outcome,
    host_factor,
    median,
    percentile,
    self_peak_rss_mb,
    tail_percentile,
)
from perfbench.library_study import import_setup_s

RUN_DAYS = 30.0
#: Per-entity failure rates (per hour): a few failures of each tier in a
#: 30-day run on the 2-instance, 2-pair lab.
BACKGROUND = {
    "as_software": 1 / 500, "as_os": 1 / 2000, "as_hardware": 1 / 5000,
    "hadb_software": 1 / 1000, "hadb_os": 1 / 4000, "hadb_hardware": 1 / 8000,
}
SETUP_IMPORTS = (
    "from repro.testbed.longevity import run_longevity_test,"
    " BackgroundFailureRates"
)
#: Simulated hours between two host-speed probes.
HOURS_PER_PROBE = 12
#: Length of the slice check's plain-versus-sliced comparison run.
CHECK_DAYS = 1.0


def _engine_classes(traced: bool):
    from repro.simulation.engine import SimulationEngine

    class SlicedEngine(SimulationEngine):
        """Runs to the horizon in one-simulated-hour slices."""

        def __init__(self) -> None:
            super().__init__()
            self.slice_s: List[float] = []
            #: Slice times at nominal host speed (see ``host_factor``).
            self.slice_nominal_s: List[float] = []
            self.run_s = 0.0

        def run_until(self, end_time: float, max_events: Optional[int] = None):
            started = time.perf_counter()
            probing = time.perf_counter()
            before = host_factor()
            probe_s = time.perf_counter() - probing
            block: List[float] = []
            edge = self.now
            while edge < end_time:
                edge = min(edge + 1.0, end_time)
                t0 = time.perf_counter()
                super().run_until(edge, max_events)
                block.append(time.perf_counter() - t0)
                if len(block) == HOURS_PER_PROBE or edge >= end_time:
                    probing = time.perf_counter()
                    after = host_factor()
                    probe_s += time.perf_counter() - probing
                    factor = 0.5 * (before + after)
                    self.slice_s += block
                    self.slice_nominal_s += [s / factor for s in block]
                    block, before = [], after
            self.run_s += time.perf_counter() - started - probe_s

    class TracedEngine(SlicedEngine):
        """Also times every callback and tracks the calendar's size."""

        def __init__(self) -> None:
            super().__init__()
            self.callback_s = 0.0
            self.scheduled = 0
            self.peak_pending = 0

        def schedule(self, delay, callback, payload=None, label=""):
            def timed(engine, event_payload, _callback=callback):
                t0 = time.perf_counter()
                _callback(engine, event_payload)
                self.callback_s += time.perf_counter() - t0

            event = super().schedule(delay, timed, payload, label)
            self.scheduled += 1
            pending = self.scheduled - self.events_fired
            if pending > self.peak_pending:
                self.peak_pending = pending
            return event

    return TracedEngine if traced else SlicedEngine


class Harness:
    """Swaps the engine and workload runner ``run_longevity_test`` builds
    for recording subclasses, for the life of a ``with`` block."""

    def __init__(self, traced: bool = False, sliced: bool = True) -> None:
        self.traced = traced
        self.sliced = sliced
        self.runners: List[Any] = []

    def __enter__(self) -> "Harness":
        from repro.testbed import longevity

        self._saved = (longevity.SimulationEngine, longevity.WorkloadRunner)
        runners = self.runners

        class RecordedRunner(longevity.WorkloadRunner):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                runners.append(self)

        self.engine_class = _engine_classes(self.traced)
        if self.sliced:
            longevity.SimulationEngine = self.engine_class
        longevity.WorkloadRunner = RecordedRunner
        return self

    def __exit__(self, *exc) -> None:
        from repro.testbed import longevity

        longevity.SimulationEngine, longevity.WorkloadRunner = self._saved

    def run(self, seed: int, days: float = RUN_DAYS) -> Dict[str, Any]:
        from repro.testbed.longevity import (
            BackgroundFailureRates,
            run_longevity_test,
        )

        started = time.perf_counter()
        result = run_longevity_test(
            days, background=BackgroundFailureRates(**BACKGROUND), seed=seed
        )
        wall = time.perf_counter() - started
        runner = self.runners[-1]
        engine = runner.engine
        record: Dict[str, Any] = {
            "seed": seed,
            "wall_s": wall,
            "outputs": {
                "availability": result.availability,
                "as_failures": result.as_failures,
                "hadb_failures": result.hadb_failures,
                "workload": asdict(result.workload),
                "failures_by_category": dict(result.log.failures_by_category),
                "events_fired": engine.events_fired,
            },
            "open_sessions": sum(
                instance.sessions
                for instance in runner.cluster.instances.values()
            ),
            "sim_hours": result.duration_hours,
        }
        if self.sliced:
            record["slice_s"] = list(engine.slice_s)
            record["slice_nominal_s"] = list(engine.slice_nominal_s)
            record["run_s"] = engine.run_s
        if self.traced:
            record["callback_s"] = engine.callback_s
            record["peak_pending"] = engine.peak_pending
        return record


def run_many(seed: int, seconds: float, traced: bool = False) -> List[Dict]:
    """30-day runs until ``seconds`` are used; at least two, the first
    two on the same seed."""
    runs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    with Harness(traced=traced) as harness:
        while True:
            runs.append(harness.run(seed + max(0, len(runs) - 1)))
            typical = median([r["wall_s"] for r in runs])
            if len(runs) >= 2 and (
                time.perf_counter() - started + typical > seconds
            ):
                return runs


def check_runs(seed: int, runs: List[Dict], outcome: Outcome) -> None:
    problems = []
    for run in runs:
        stats = run["outputs"]["workload"]
        accounted = (
            stats["sessions_completed"] + stats["transactions_lost"]
            + run["open_sessions"]
        )
        if stats["sessions_started"] != accounted:
            problems.append(
                f"seed {run['seed']}: {stats['sessions_started']} started, "
                f"{accounted} completed, lost or open"
            )
    outcome.check(
        "every started session is completed, lost or open at the horizon",
        problems,
    )
    outcome.check(
        "two runs with the same seed give identical outputs",
        [] if runs[0]["outputs"] == runs[1]["outputs"]
        else ["outputs differ between same-seed runs"],
    )
    with Harness(sliced=False) as plain:
        reference = plain.run(seed, CHECK_DAYS)
    with Harness() as sliced:
        candidate = sliced.run(seed, CHECK_DAYS)
    outcome.check(
        "hourly slicing leaves the run unchanged",
        [] if reference["outputs"] == candidate["outputs"]
        else ["sliced and plain runs differ"],
    )


def run(seed: int, seconds: int, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        from perfbench import layers

        # One untraced run as the overhead reference, then a traced run
        # on the same seed, which must reproduce its outputs.
        with Harness() as harness:
            reference = harness.run(seed)
        with Harness(traced=True) as harness:
            traced = harness.run(seed)
        runs = [reference, traced]
        outcome.metrics = layers.all_layer_metrics(
            engine_run=traced,
            overhead_frac=traced["run_s"] / reference["run_s"] - 1.0,
        )
    else:
        runs = run_many(seed, seconds)
    slices_ms = [1000.0 * s for r in runs for s in r["slice_s"]]
    outcome.attempted = len(runs)
    outcome.failed = 0
    if not trace:
        setup_s, setup_measured_s = import_setup_s(SETUP_IMPORTS)
        outcome.details["setup_s_measured"] = setup_measured_s
        nominal_ms = [1000.0 * s for r in runs for s in r["slice_nominal_s"]]
        p50 = median(nominal_ms)
        rate = 1000.0 * sum(r["sim_hours"] for r in runs) / sum(nominal_ms)
        rss = self_peak_rss_mb()
        outcome.metrics = {
            "setup_s": setup_s,
            "p50_ms": p50,
            "throughput_per_s": rate,
            "peak_rss_mb": rss,
        }
        outcome.figures = {
            "setup_s": (setup_s, "s"),
            "sim_hours_per_s": (rate, "sim-h/s"),
            "hour_p50_ms": (p50, "ms"),
            "hour_p99_ms": (percentile(
                nominal_ms, tail_percentile(len(nominal_ms))), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    outcome.details.update(
        runs=len(runs),
        simulated_hours=sum(r["sim_hours"] for r in runs),
        sim_hours_per_s_measured=median(
            [r["sim_hours"] / r["run_s"] for r in runs]),
        hour_p50_ms_measured=median(slices_ms),
        events_fired=runs[0]["outputs"]["events_fired"],
        sessions_started=runs[0]["outputs"]["workload"]["sessions_started"],
        failures=runs[0]["outputs"]["as_failures"]
        + runs[0]["outputs"]["hadb_failures"],
    )
    check_runs(seed, runs, outcome)
    return outcome
