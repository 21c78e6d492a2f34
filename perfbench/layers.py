"""Per-layer metrics of a traced run.

Every traced run reports the same set of per-layer metrics, named after
this repository's modules.  A layer a workload does not load reports
zero counts and times: nothing was measured because nothing ran, which
is the "predicted no change" half of each layer's pairing in
``BENCHMARK.json``.

In-process layers (library, simulator, testbed) are timed by
:class:`~perfbench.tracer.Tracer` wrappers and the testbed harness;
layers in another process (router, shard, solver worker) by the
service's own trace files, read in :mod:`perfbench.service_trace`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from perfbench.tracer import Tracer

#: Every per-layer metric, in report order: ``(name, unit)``.
LAYER_METRICS = (
    ("loadgen.sent", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.connections", "count"),
    ("loadgen.threads", "count"),
    ("client.call_ms.p50", "ms"),
    ("client.connections_opened", "count"),
    ("client.retries", "count"),
    ("router.self_ms.p50", "ms"),
    ("router.self_ms.p99", "ms"),
    ("router.hop_ms.p50", "ms"),
    ("router.attempts_per_request", "ratio"),
    ("server.handler_self_ms.p50", "ms"),
    ("server.handle_ms.p50", "ms"),
    ("server.handle_ms.p99", "ms"),
    ("fingerprint.request_ms.p50", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.lookup_ms.p50", "ms"),
    ("cache.evictions", "count"),
    ("cache.shared", "count"),
    ("batcher.queue_wait_ms.p50", "ms"),
    ("batcher.queue_wait_ms.p99", "ms"),
    ("batcher.queue_wait_ms.p50.top_rung", "ms"),
    ("batcher.batch_size.mean", "count"),
    ("batcher.coalesced_frac", "ratio"),
    ("batcher.shed", "count"),
    ("prefork.roundtrip_ms.p50", "ms"),
    ("prefork.pipe_ms.p50", "ms"),
    ("prefork.worker_solve_ms.p50", "ms"),
    ("prefork.respawns", "count"),
    ("jsas.build_hierarchy_ms.p50", "ms"),
    ("hierarchy.solve_ms.p50", "ms"),
    ("hierarchy.submodel_ms.p50.appserver", "ms"),
    ("hierarchy.submodel_ms.p50.hadb", "ms"),
    ("ctmc.steady_state_ms.p50", "ms"),
    ("ctmc.steady_state_calls_per_solve", "ratio"),
    ("compile.count", "count"),
    ("compile.ms.p50", "ms"),
    ("batch.solve_ms.p50", "ms"),
    ("batch.ms_per_sample", "ms"),
    ("uncertainty.sample_ms", "ms"),
    ("uncertainty.solve_ms", "ms"),
    ("uncertainty.summarize_ms", "ms"),
    ("sweep.point_ms.p50", "ms"),
    ("engine.events_fired", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.self_frac", "ratio"),
    ("engine.peak_pending", "count"),
    ("testbed.handler_ms_per_event", "ms"),
    ("testbed.sessions_started", "count"),
    ("testbed.failures", "count"),
    ("attribution.client_p50_ms", "ms"),
    ("attribution.explained_ms", "ms"),
    ("attribution.unexplained_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
)


def _samples(args, kwargs) -> int:
    """Batch size of a ``CompiledHierarchy.solve_batch`` call."""
    n = kwargs.get("n_samples")
    if n is None and len(args) > 2:
        n = args[2]
    if n is None:
        sizes = [np.size(v) for v in args[1].values() if np.ndim(v) > 0]
        n = max(sizes) if sizes else 1
    return int(n)


def install_library_tracer() -> Tracer:
    """Wrap the library's layer entry points; call ``restore()`` after."""
    from repro.ctmc import rewards
    from repro.hierarchy import composer
    from repro.models.jsas import HierarchicalConfigMetric, JsasConfiguration
    from repro.uncertainty import analysis

    tracer = Tracer()
    tracer.wrap(JsasConfiguration, "solve", "jsas.solve")
    tracer.wrap(JsasConfiguration, "build_hierarchy", "jsas.build_hierarchy")
    tracer.wrap(composer.HierarchicalModel, "solve", "hierarchy.solve")
    tracer.wrap(
        composer, "abstract_submodel", "hierarchy.submodel",
        label=lambda *a, **k: k.get("name"),
    )
    tracer.wrap(rewards, "steady_state_vector", "ctmc.steady_state")
    tracer.wrap(composer, "compile_model", "core.compile")
    tracer.wrap(
        composer.CompiledHierarchy, "solve_batch", "batch.solve",
        label=lambda *a, **k: str(_samples(a, k)),
    )
    tracer.wrap(analysis.UncertaintyAnalysis, "run", "uncertainty.run")
    tracer.wrap(analysis, "monte_carlo_matrix", "uncertainty.sample")
    tracer.wrap(HierarchicalConfigMetric, "evaluate_batch", "metric.batch")
    return tracer


def library_metrics(tracer: Tracer) -> Dict[str, float]:
    batches = tracer.of("batch.solve")
    samples = sum(int(s.label) for s in batches)
    solves = tracer.count("hierarchy.solve")
    # An uncertainty run's direct children are its sampling and its
    # batch solve; what remains of the run is summarizing.
    runs = tracer.of("uncertainty.run")
    per_run_ms = 1000.0 / len(runs) if runs else 0.0
    sample_s = tracer.total_s("uncertainty.sample")
    solve_s = sum(s.children_s for s in runs) - sample_s
    return {
        "jsas.build_hierarchy_ms.p50": tracer.p50_ms("jsas.build_hierarchy"),
        "hierarchy.solve_ms.p50": tracer.p50_ms("hierarchy.solve"),
        "hierarchy.submodel_ms.p50.appserver": tracer.p50_ms(
            "hierarchy.submodel", "appserver"),
        "hierarchy.submodel_ms.p50.hadb": tracer.p50_ms(
            "hierarchy.submodel", "hadb"),
        "ctmc.steady_state_ms.p50": tracer.p50_ms("ctmc.steady_state"),
        "ctmc.steady_state_calls_per_solve": (
            tracer.count("ctmc.steady_state") / solves if solves else 0.0),
        "compile.count": float(tracer.count("core.compile")),
        "compile.ms.p50": tracer.p50_ms("core.compile"),
        "batch.solve_ms.p50": tracer.p50_ms("batch.solve"),
        "batch.ms_per_sample": (
            1000.0 * sum(s.duration for s in batches) / samples
            if samples else 0.0),
        "uncertainty.sample_ms": sample_s * per_run_ms,
        "uncertainty.solve_ms": solve_s * per_run_ms,
        "uncertainty.summarize_ms": sum(s.self_s for s in runs) * per_run_ms,
        "sweep.point_ms.p50": tracer.p50_ms("sweep.point"),
    }


def engine_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """Simulator and testbed layers of one traced longevity run."""
    outputs = run["outputs"]
    fired = outputs["events_fired"]
    return {
        "engine.events_fired": float(fired),
        "engine.events_per_s": fired / run["run_s"],
        "engine.self_frac": 1.0 - run["callback_s"] / run["run_s"],
        "engine.peak_pending": float(run["peak_pending"]),
        "testbed.handler_ms_per_event": 1000.0 * run["callback_s"] / fired,
        "testbed.sessions_started": float(
            outputs["workload"]["sessions_started"]),
        "testbed.failures": float(
            outputs["as_failures"] + outputs["hadb_failures"]),
    }


def all_layer_metrics(
    tracer: Optional[Tracer] = None,
    engine_run: Optional[Dict[str, Any]] = None,
    service: Optional[Dict[str, float]] = None,
    overhead_frac: float = 0.0,
) -> Dict[str, float]:
    """The full per-layer set: measured layers filled in, the rest zero."""
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    if tracer is not None:
        metrics.update(library_metrics(tracer))
    if engine_run is not None:
        metrics.update(engine_metrics(engine_run))
    if service is not None:
        metrics.update(service)
    metrics["obs.overhead_frac"] = overhead_frac
    unknown = set(metrics) - {name for name, _ in LAYER_METRICS}
    if unknown:
        raise KeyError(f"undeclared layer metrics {sorted(unknown)}")
    return metrics
