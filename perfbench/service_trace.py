"""Traced run of a service workload: per-layer attribution.

The server is booted with the service's own ``trace_dir`` span files on
and with the benchmark's ``bench.*`` spans around the fingerprint, cache
and batcher entry points (see ``serve_child.py``).  The generator's
clients record ``client.request`` spans in memory, so every request
carries a ``Traceparent`` and its spans in the router, shard and solver
worker join one tree.

Each base-phase request tree is cut into the layers along its blocking
path; the self times below add up to the ``client.request`` span by
construction:

* ``client``: the client span minus the router's (or, without a router,
  the server's) span: client encoding, the socket, and the router's
  HTTP parsing outside ``router.forward``;
* ``router.self``: ``router.forward`` minus its ``router.attempt`` spans;
* ``router.hop``: the attempts minus the shard's ``service.request``:
  the shard round trip outside the shard handler;
* ``server.handler_self``: ``service.request`` minus fingerprint and
  cache;
* ``fingerprint`` and ``cache.lookup`` (the cache span minus the compute
  it ran on a miss);
* on a miss: the compute outside the batcher wait; the batcher queue
  wait (the wait minus the batch's ``service.dispatch``); the prefork
  pipe (dispatch minus ``worker.solve``) and the worker's solve.

The attribution check compares the sum of the per-layer medians with
the client-side median the generator measured on its own clock, within
:data:`ATTRIBUTION_TOLERANCE`; the difference is reported as
``attribution.unexplained_ms``.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import BUILD, Outcome, median, percentile
from perfbench.layers import all_layer_metrics
from perfbench.service_workloads import (
    Inputs,
    ServiceWorkload,
    boot,
    check_outputs,
    measure,
)

#: Allowed gap between the summed layer medians and the client median,
#: as a share of the client median.
ATTRIBUTION_TOLERANCE = 0.25

#: Blocking-path segments whose medians must add up to the client median.
PATH = (
    "client", "router_self", "router_hop", "handler_self", "fingerprint",
    "cache_lookup", "compute_self", "batcher_wait", "pipe", "worker_solve",
)


def _find(node, name: str):
    for candidate in node.walk():
        if candidate.name == name:
            return candidate
    return None


def _ms(node) -> float:
    return node.duration_s * 1000.0 if node is not None else 0.0


def decompose(root) -> Optional[Dict[str, float]]:
    """Blocking-path self times (ms) of one request tree, or ``None`` when
    the tree is incomplete."""
    request = _find(root, "service.request")
    if request is None:
        return None
    parts: Dict[str, float] = {"total": _ms(root)}
    forward = _find(root, "router.forward")
    if forward is not None:
        attempts = [n for n in forward.walk() if n.name == "router.attempt"]
        attempt_ms = sum(_ms(a) for a in attempts)
        parts["client"] = _ms(root) - _ms(forward)
        parts["router_self"] = _ms(forward) - attempt_ms
        parts["router_hop"] = attempt_ms - _ms(request)
        parts["attempts"] = float(len(attempts))
    else:
        parts["client"] = _ms(root) - _ms(request)
    fingerprint = _find(request, "bench.fingerprint")
    cache = _find(request, "bench.cache")
    if fingerprint is None or cache is None:
        return None
    parts["handle"] = _ms(request)
    parts["handler_self"] = _ms(request) - _ms(fingerprint) - _ms(cache)
    parts["fingerprint"] = _ms(fingerprint)
    compute = _find(cache, "bench.cache.compute")
    parts["cache_lookup"] = _ms(cache) - _ms(compute)
    if compute is not None:
        wait = _find(compute, "bench.batcher.wait")
        dispatch = _find(compute, "service.dispatch")
        parts["compute_self"] = _ms(compute) - _ms(wait)
        parts["batcher_wait"] = _ms(wait) - _ms(dispatch)
        if dispatch is not None:
            # The batch's lead request carries the dispatch span; others
            # in the batch waited for it inside their batcher wait.
            parts["queue_wait"] = parts["batcher_wait"]
            worker = _find(dispatch, "worker.solve")
            parts["roundtrip"] = _ms(dispatch)
            parts["pipe"] = _ms(dispatch) - _ms(worker)
            parts["worker_solve"] = _ms(worker)
    return parts


def attribute(trees: Dict[str, Any], trace_ids) -> List[Dict[str, float]]:
    """:func:`decompose` of each connected single-root trace."""
    rows = []
    for trace_id in trace_ids:
        roots, _orphans = trees.get(trace_id, ([], []))
        if len(roots) == 1:
            parts = decompose(roots[0])
            if parts is not None:
                rows.append(parts)
    return rows


def _p50(rows, key) -> float:
    values = [row[key] for row in rows if key in row]
    return median(values) if values else 0.0


def _p99(rows, key) -> float:
    values = [row[key] for row in rows if key in row]
    return percentile(values, 99.0) if values else 0.0


def traced_run(
    workload: ServiceWorkload,
    inputs: Inputs,
    seconds: float,
    reference: Dict[str, Any],
    outcome: Outcome,
) -> Outcome:
    """Boot a traced server, measure, and attribute the base phase."""
    from repro import obs
    from repro.obs import Recorder

    trace_dir = BUILD / "traces" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    spec = dict(workload.spec, trace_dir=str(trace_dir))
    server, _ = boot(inputs, spec)
    recorder = Recorder()
    previous = obs.set_recorder(recorder)
    try:
        marks: List[Tuple[Any, int]] = []
        result = measure(
            workload, server, inputs, seconds / 2,
            on_phase=lambda label: marks.append((label, len(recorder.records))),
        )
    finally:
        obs.set_recorder(previous)
        server.stop()
    try:
        files, _skipped = obs.load_trace_dir(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    # Client spans by phase: phase i ends at record index marks[i].
    phases: List[Tuple[Any, List[Dict[str, Any]]]] = []
    start = 0
    for label, stop in marks:
        phases.append((label, [
            r for r in recorder.records[start:stop]
            if r.get("kind") == "span" and r.get("name") == "client.request"
        ]))
        start = stop
    trees = obs.merge_cluster_traces(files + recorder.records)
    client_spans = [r for label, spans in phases if label == "base"
                    for r in spans]
    base_ids = [r["trace_id"] for r in client_spans]
    base_set = set(base_ids)
    compiles = [r for r in files if r.get("name") == "core.compile"]
    batch_spans = [
        r for r in files
        if r.get("name") == "hierarchy.solve_batch"
        and r.get("trace_id") in base_set
    ]
    batch_samples = sum(r["fields"].get("n_samples", 1) for r in batch_spans)
    rows = attribute(trees, base_ids)
    top_rate = max(workload.ladder)
    top_ids = [
        r["trace_id"] for label, spans in phases if label == top_rate
        for r in spans
    ]
    top = attribute(trees, top_ids)
    base = result["base"]
    delta = result["metrics_delta"]
    hits = delta.get("service_cache_hits_total", 0.0)
    lookups = (
        hits + delta.get("service_cache_misses_total", 0.0)
        + delta.get("service_cache_shared_total", 0.0)
    )
    batches = delta.get("service_batch_size_count", 0.0)
    batched = delta.get("service_batch_size_sum", 0.0)
    client_p50 = median(base.call_ms)
    explained = sum(_p50(rows, key) for key in PATH)
    service = {
        "loadgen.sent": float(base.attempted),
        "loadgen.late_p99_ms": percentile(base.late_ms, 99.0),
        "loadgen.connections": float(result["connections"]),
        "loadgen.threads": float(result["senders"]),
        "client.call_ms.p50": _p50(rows, "total"),
        "client.connections_opened": float(result["connections"]),
        "client.retries": float(sum(
            r["fields"].get("attempts", 1) - 1 for r in client_spans
        )),
        "router.self_ms.p50": _p50(rows, "router_self"),
        "router.self_ms.p99": _p99(rows, "router_self"),
        "router.hop_ms.p50": _p50(rows, "router_hop"),
        "router.attempts_per_request": (
            sum(r.get("attempts", 0.0) for r in rows) / len(rows)
            if rows else 0.0),
        "server.handler_self_ms.p50": _p50(rows, "handler_self"),
        "server.handle_ms.p50": _p50(rows, "handle"),
        "server.handle_ms.p99": _p99(rows, "handle"),
        "fingerprint.request_ms.p50": _p50(rows, "fingerprint"),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.lookup_ms.p50": _p50(rows, "cache_lookup"),
        "cache.evictions": delta.get("service_cache_evictions_total", 0.0),
        "cache.shared": delta.get("service_cache_shared_total", 0.0),
        "batcher.queue_wait_ms.p50": _p50(rows, "queue_wait"),
        "batcher.queue_wait_ms.p99": _p99(rows, "queue_wait"),
        "batcher.queue_wait_ms.p50.top_rung": _p50(top, "queue_wait"),
        "batcher.batch_size.mean": batched / batches if batches else 0.0,
        "batcher.coalesced_frac": (
            delta.get("service_coalesced_requests_total", 0.0) / batched
            if batched else 0.0),
        "batcher.shed": delta.get("service_shed_total", 0.0),
        "prefork.roundtrip_ms.p50": _p50(rows, "roundtrip"),
        "prefork.pipe_ms.p50": _p50(rows, "pipe"),
        "prefork.worker_solve_ms.p50": _p50(rows, "worker_solve"),
        "prefork.respawns": delta.get(
            "service_prefork_worker_respawns_total", 0.0),
        "compile.count": float(len(compiles)),
        "compile.ms.p50": (
            1000.0 * median([r["duration_s"] for r in compiles])
            if compiles else 0.0),
        "batch.solve_ms.p50": (
            1000.0 * median([r["duration_s"] for r in batch_spans])
            if batch_spans else 0.0),
        "batch.ms_per_sample": (
            1000.0 * sum(r["duration_s"] for r in batch_spans) / batch_samples
            if batch_spans else 0.0),
        "attribution.client_p50_ms": client_p50,
        "attribution.explained_ms": explained,
        "attribution.unexplained_ms": client_p50 - explained,
    }
    untraced_p50 = median(reference["base"].call_ms)
    outcome.metrics = all_layer_metrics(
        service=service,
        overhead_frac=client_p50 / untraced_p50 - 1.0,
    )
    slices = [p for phases_ in result["slices"].values() for p in phases_]
    slices += [phase for phase, _ in result["saturation"]]
    outcome.attempted = base.attempted + sum(p.attempted for p in slices)
    outcome.failed = base.failures + sum(p.failures for p in slices)
    outcome.details.update(
        traced_requests=len(base_ids),
        attributed_requests=len(rows),
        top_rung_rate=top_rate,
        layer_p50_ms={key: _p50(rows, key) for key in PATH},
        batcher_wait_share_of_client_p50=_p50(rows, "batcher_wait") / client_p50,
    )
    check_outputs(workload, base, result["documents"], outcome)
    outcome.check(
        "every base-phase request has one connected trace tree",
        [] if len(rows) == len(base_ids)
        else [f"{len(base_ids) - len(rows)} of {len(base_ids)} trees "
              "incomplete"],
    )
    gap = abs(client_p50 - explained)
    outcome.check(
        f"layer self times sum to the client median within "
        f"{ATTRIBUTION_TOLERANCE:.0%}",
        [] if gap <= ATTRIBUTION_TOLERANCE * client_p50
        else [f"explained {explained:.3f} ms of {client_p50:.3f} ms"],
    )
    return outcome
