"""The two service workloads: routed cache hits and direct cache misses.

Both drive a server in a child process through :class:`ServiceClient`
with the open-loop generator.  A run has three parts:

1. set-up, repeated :data:`SETUP_REPEATS` times and reported as the
   median: boot until the port answers (including the router's shard
   handshake), then compile or warm what the workload needs;
2. the base phase at the workload's base offered rate, which gives
   ``p50_ms`` (and the ``p99_ms`` figure);
3. the offered-rate ladder, which gives the ``max_rps`` figure, the
   highest rate meeting the latency limit (see :func:`max_rps`), and
   saturation slices offered past the service's capacity, whose
   completion rate is ``throughput_per_s`` (figure ``saturated_rps``).

Parts 2 and 3 are interleaved (see :func:`measure`).  Times and rates
are reported at nominal host speed (see ``common.host_factor``); the
figures as measured are kept as details.

Outputs are checked afterwards: a seeded sample of base-phase responses
must equal the library's ``JsasConfiguration.solve`` bit for bit.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from perfbench.common import (
    BenchError,
    Outcome,
    host_factor,
    median,
    percentile,
    tail_percentile,
)
from perfbench.loadgen import LATE_MS, MAX_LATE_SHARE, OpenLoopGenerator, Phase
from perfbench.server_process import ServerProcess

SETUP_REPEATS = 3
#: Base-phase responses compared with the library, per run.
ORACLE_SAMPLE = 16
#: Paper shapes (n_instances, n_pairs): Config 1, Config 2, Table 3 rows.
CONFIG_SHAPES = ((2, 2), (4, 4))
TABLE3_SHAPES = ((1, 0), (2, 2), (4, 4), (6, 6), (8, 8), (10, 10))
#: Parameters varied per request, over the paper's uncertainty ranges.
VARIED = ("La_as", "Tstart_long_as", "FIR")


@dataclass(frozen=True)
class ServiceWorkload:
    """One traffic mix against one server topology."""

    name: str
    #: ``serve_child.py`` spec of the topology.
    spec: Dict[str, Any]
    #: Configuration shapes ``(n_instances, n_pairs)`` requests ask for.
    shapes: Tuple[Tuple[int, int], ...]
    #: Size of the repeated working set; 0 makes every request distinct.
    working_set: int
    base_rate: float
    #: Offered rates above the base rate, in climbing order.
    ladder: Tuple[float, ...]
    #: Limit on a rung's tail latency (see :func:`rung_passes`).
    limit_ms: float
    #: Share of ``--seconds`` spent at the base rate; the ladder gets
    #: the rest.
    base_share: float
    #: Minimum share of base-phase replies that must be cache hits.
    min_hit_ratio: float = 0.0
    #: Times are divided (rates multiplied) by the host factor to this
    #: power (see ``host_factor``): 1 for a path whose time is processor
    #: work, less where a fixed wait makes up part of it.
    speed_exponent: float = 1.0


ROUTED_HITS = ServiceWorkload(
    name="routed-hits",
    spec={"shards": 2},
    shapes=CONFIG_SHAPES,
    # Well inside the two shards' 1024-entry caches.
    working_set=256,
    base_rate=200.0,
    ladder=(500.0, 650.0, 800.0, 950.0, 1100.0, 1250.0, 1400.0),
    limit_ms=20.0,
    base_share=0.6,
    min_hit_ratio=0.99,
)

DIRECT_MISSES = ServiceWorkload(
    name="direct-misses",
    spec={"shards": 1, "worker_processes": 1},
    # Config 1 and 2 twice: they are the shapes users ask for most.
    shapes=CONFIG_SHAPES + TABLE3_SHAPES,
    working_set=0,
    base_rate=80.0,
    ladder=(120.0, 160.0, 200.0, 240.0, 280.0, 320.0),
    limit_ms=60.0,
    base_share=0.6,
    # About half of a request's time is the fixed 5 ms coalescing
    # window and half processor work, and two senders cap the rate near
    # two requests per window plus solve: the whole factor over-corrects
    # in the host's fast state (five-seed spreads of p50 and throughput
    # 0.23 and 0.30 against 0.14 and 0.10 as measured; its square root
    # gave about 0.09 and 0.03).
    speed_exponent=0.5,
)

#: Length of one ladder slice at one offered rate.
LADDER_SLICE_S = 0.5
#: A saturation slice holds the requests of this many seconds at the
#: top rung's rate, offered :data:`SATURATION_OVERLOAD` times faster, so
#: both senders send back to back.
SATURATION_SLICE_S = 0.25
SATURATION_OVERLOAD = 4.0
#: Percentile of the saturation slices' rates that ``throughput_per_s``
#: reports: the upper decile, for the same reason as
#: :data:`WINDOW_PERCENTILE` (a starved slice completes a third as many
#: requests; over ten runs the median slice spread by up to 0.21 on
#: ``routed-hits``, the upper decile by 0.04-0.15).
SLICE_PERCENTILE = 90.0
#: Base-phase windows; ``p50_ms`` is the lower decile of their medians.
BASE_WINDOWS = 20
#: Extra windows a run may spend retaking windows in which the generator
#: fell behind (see ``loadgen.MAX_LATE_SHARE``).
RETAKE_WINDOWS = 10
#: Percentile over the base windows' medians that ``p50_ms`` reports.
#: On the shared host, stalls that starve the service (and the generator)
#: for a second or two lift single windows' medians three- to five-fold;
#: over ten 20 s runs the median over windows spread by 0.17-0.25, the
#: lower decile by 0.06-0.08.
WINDOW_PERCENTILE = 10.0


def _point(rng: np.random.Generator, shape: Tuple[int, int]) -> Dict[str, Any]:
    from repro.models.jsas import UNCERTAINTY_RANGES

    return {
        "n_instances": shape[0],
        "n_pairs": shape[1],
        "parameters": {
            name: float(rng.uniform(*UNCERTAINTY_RANGES[name]))
            for name in VARIED
        },
    }


class Inputs:
    """Seeded request documents for one workload."""

    def __init__(self, workload: ServiceWorkload, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 11])
        self.shapes = workload.shapes
        self.working_set = [
            _point(self.rng, self.shapes[i % len(self.shapes)])
            for i in range(workload.working_set)
        ]

    def documents(self, n: int) -> List[Dict[str, Any]]:
        if self.working_set:
            picks = self.rng.integers(0, len(self.working_set), size=n)
            return [self.working_set[i] for i in picks]
        picks = self.rng.integers(0, len(self.shapes), size=n)
        return [_point(self.rng, self.shapes[i]) for i in picks]

    def set_up(self, server: ServerProcess) -> None:
        """Warm the caches (hits) or compile every shape (misses)."""
        generator = OpenLoopGenerator(server.url)
        try:
            if self.working_set:
                documents = self.working_set
            else:
                documents = [_point(self.rng, s) for s in set(self.shapes)]
            # Far above capacity: the two senders run back to back.
            phase = generator.run(documents, 5000.0, self.rng)
        finally:
            generator.close()
        if phase.failures:
            raise BenchError(f"{phase.failures} set-up requests failed")


def boot(inputs: Inputs, spec: Dict) -> Tuple[ServerProcess, float]:
    """Start the server and run the set-up; returns it with the time."""
    started = time.perf_counter()
    server = ServerProcess(spec).start()
    try:
        inputs.set_up(server)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def boot_median(
    inputs: Inputs, spec: Dict
) -> Tuple[ServerProcess, float, float]:
    """Set up :data:`SETUP_REPEATS` times; keep the last server running.

    Returns it with the median set-up time at nominal host speed and as
    measured (see ``host_factor``)."""
    times = []
    nominal = []
    for attempt in range(SETUP_REPEATS):
        before = host_factor()
        server, elapsed = boot(inputs, spec)
        times.append(elapsed)
        nominal.append(elapsed / (0.5 * (before + host_factor())))
        if attempt + 1 < SETUP_REPEATS:
            server.stop()
    return server, median(nominal), median(times)


def rung_passes(phase: Phase, limit_ms: float) -> Tuple[bool, float]:
    """``(passed, tail_ms)`` for one fixed-rate phase."""
    tail = phase.latency_percentile(tail_percentile(phase.attempted))
    passed = (
        tail <= limit_ms
        and phase.failures == 0
        and not phase.backlog_grew(limit_ms)
        and phase.valid
    )
    return passed, tail


def rung_verdict(phases: Sequence[Phase], limit_ms: float) -> Tuple[bool, float]:
    """A rung's ``(passed, tail_ms)`` from its fastest slice."""
    return min(
        (rung_passes(phase, limit_ms) for phase in phases),
        key=lambda verdict: (not verdict[0], verdict[1]),
    )


def max_rps(rungs: Sequence[Tuple[float, bool, float]], limit_ms: float) -> float:
    """Highest offered rate meeting the limit, from ``(rate, passed,
    tail_ms)`` rungs in climbing order.

    Between the last passing rung and the first failing one, the rate is
    interpolated where the tail latency, taken as log-linear in the rate,
    crosses the limit, so the figure moves continuously instead of
    jumping a whole rung when one tail sits near the limit.
    """
    rate0, passed0, tail0 = rungs[0]
    if not passed0:
        # The base rate already misses the limit: scale it down.
        return rate0 * min(1.0, limit_ms / tail0)
    for (rate_a, _, tail_a), (rate_b, passed_b, tail_b) in zip(
        rungs, rungs[1:]
    ):
        if passed_b:
            continue
        if not math.isfinite(tail_b) or tail_b <= limit_ms:
            # Failed on errors or backlog, not latency: no crossing to
            # interpolate.
            return rate_a
        share = (math.log(limit_ms) - math.log(tail_a)) / (
            math.log(tail_b) - math.log(tail_a)
        )
        return rate_a + min(1.0, max(0.0, share)) * (rate_b - rate_a)
    return rungs[-1][0]


def check_against_library(
    documents: Sequence[Dict[str, Any]], responses: Dict[int, Any]
) -> List[str]:
    """Compare each kept response with ``JsasConfiguration.solve``."""
    from repro.models.jsas import PAPER_PARAMETERS, JsasConfiguration

    problems = []
    if not responses:
        return ["no responses were kept for the oracle check"]
    for index, response in sorted(responses.items()):
        document = documents[index]
        values = PAPER_PARAMETERS.to_dict()
        values.update(document["parameters"])
        direct = JsasConfiguration(
            document["n_instances"], document["n_pairs"]
        ).solve(values)
        expected = {
            "availability": direct.availability,
            "yearly_downtime_minutes": direct.yearly_downtime_minutes,
            "mtbf_hours": direct.mtbf_hours,
            "state_probabilities": direct.system.state_probabilities,
            "bound_parameters": direct.bound_parameters,
        }
        for key, value in expected.items():
            if response.get(key) != value:
                problems.append(
                    f"request {index} ({document['n_instances']}+"
                    f"{document['n_pairs']}): {key} differs from the library"
                )
    return problems


def scrape(server: ServerProcess) -> Dict[str, float]:
    """Sum every sample of each metric family on ``/metrics``."""
    from repro.service import ServiceClient

    with ServiceClient(server.url, timeout=10.0) as client:
        text = client.metrics()
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if match is None:
            continue
        name, value = match.group(1), float(match.group(3))
        totals[name] = totals.get(name, 0.0) + value
    return totals


def measure(
    workload: ServiceWorkload,
    server: ServerProcess,
    inputs: Inputs,
    seconds: float,
    climb: bool = True,
    on_phase: Callable[[Any], None] = lambda label: None,
) -> Dict[str, Any]:
    """The base phase and the ladder, interleaved; returns the raw phases.

    The base phase runs as :data:`BASE_WINDOWS` windows, and after each
    window come short slices, every other one a saturation slice and
    the rest the ladder's rungs in turn.  All thus spread over the whole
    run, so a slow stretch of the host touches the base windows and
    every rung alike.  The host's speed is probed between windows and
    slices; each window and saturation slice gets the mean of the probes
    on its two sides.  ``on_phase(label)`` is called after each window
    (``"base"``) and slice (its rate, or ``"saturation"``); the traced
    run uses it to split its client spans by phase.
    """
    generator = OpenLoopGenerator(server.url)
    try:
        per_window = int(round(
            workload.base_rate * workload.base_share * seconds
            / BASE_WINDOWS
        ))
        documents = inputs.documents(per_window * BASE_WINDOWS)
        sample = set(
            inputs.rng.choice(len(documents), size=ORACLE_SAMPLE,
                              replace=False).tolist()
        )
        ladder = workload.ladder if climb else ()
        count = max(
            3 * len(ladder),
            int((1.0 - workload.base_share) * seconds / LADDER_SLICE_S),
        ) if ladder else 0
        # Two of every three slices are saturation slices (``None``),
        # whose completions per second give ``throughput_per_s``.
        rates = [
            None if i % 3 else ladder[(i // 3) % len(ladder)]
            for i in range(count)
        ]
        saturation: List[Tuple[Phase, float]] = []
        base = Phase(rate=workload.base_rate, scheduled_s=0.0)
        slices: Dict[float, List[Phase]] = {r: [] for r in ladder}
        windows: List[Tuple[float, float]] = []
        window_late: List[float] = []
        delta: Dict[str, float] = {}
        factor = host_factor()

        def probe() -> float:
            nonlocal factor
            before, factor = factor, host_factor()
            return 0.5 * (before + factor)

        window = 0
        while (
            sum(late <= MAX_LATE_SHARE for late in window_late) < BASE_WINDOWS
            and window < BASE_WINDOWS + RETAKE_WINDOWS
        ):
            if window >= BASE_WINDOWS:
                # A retake of a window the generator fell behind in.
                documents += inputs.documents(per_window)
            offset = window * per_window
            before = scrape(server)
            part = generator.run(
                documents[offset:offset + per_window], workload.base_rate,
                inputs.rng, keep=lambda i: offset + i in sample,
            )
            windows.append((median(part.latencies_ms), probe()))
            window_late.append(part.late_share)
            after = scrape(server)
            for key, value in after.items():
                delta[key] = delta.get(key, 0.0) + value - before.get(key, 0.0)
            base.extend(part, offset)
            on_phase("base")
            share = rates[window::BASE_WINDOWS] if window < BASE_WINDOWS else []
            window += 1
            for rate in share:
                if rate is None:
                    phase = generator.run(
                        inputs.documents(
                            int(ladder[-1] * SATURATION_SLICE_S)),
                        SATURATION_OVERLOAD * ladder[-1], inputs.rng,
                    )
                    saturation.append((phase, probe()))
                    on_phase("saturation")
                    continue
                slices[rate].append(generator.run(
                    inputs.documents(int(rate * LADDER_SLICE_S)), rate,
                    inputs.rng,
                ))
                probe()
                on_phase(rate)
        connections = generator.connections_opened
        senders = len(generator.clients)
    finally:
        generator.close()
    return {
        "base": base,
        "documents": documents,
        "slices": slices,
        "saturation": saturation,
        "windows": windows,
        "window_late": window_late,
        "metrics_delta": delta,
        "connections": connections,
        "senders": senders,
    }


def run_service(
    workload: ServiceWorkload, seed: int, seconds: float, trace: bool
) -> Outcome:
    """One benchmark run of a service workload."""
    inputs = Inputs(workload, seed)
    outcome = Outcome()
    if trace:
        from perfbench import service_trace

        # Untraced reference for the tracing overhead, then a traced boot.
        server, _ = boot(inputs, workload.spec)
        try:
            reference = measure(workload, server, inputs, seconds / 2,
                                climb=False)
        finally:
            server.stop()
        return service_trace.traced_run(
            workload, inputs, seconds, reference, outcome
        )
    server, setup_s, setup_measured_s = boot_median(inputs, workload.spec)
    outcome.details["setup_s_measured"] = setup_measured_s
    try:
        result = measure(workload, server, inputs, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return summarize(workload, result, setup_s, rss, outcome)


def summarize(
    workload: ServiceWorkload,
    result: Dict[str, Any],
    setup_s: float,
    rss: float,
    outcome: Outcome,
) -> Outcome:
    base: Phase = result["base"]
    # A window in which the generator itself fell behind measured the
    # host, not the service: it is left out (and retaken, see
    # ``measure``), and a run left with fewer than half of
    # :data:`BASE_WINDOWS` is invalid.
    windows = [
        window for window, late in zip(result["windows"], result["window_late"])
        if late <= MAX_LATE_SHARE
    ]
    if 2 * len(windows) < BASE_WINDOWS:
        raise BenchError(
            f"invalid run: in {len(result['windows']) - len(windows)} of "
            f"{len(result['windows'])} base windows the generator sent over "
            f"{MAX_LATE_SHARE:.0%} of its requests more than {LATE_MS} ms late"
        )
    slices = [p for phases in result["slices"].values() for p in phases]
    slices += [phase for phase, _ in result["saturation"]]
    attempted = base.attempted + sum(p.attempted for p in slices)
    failed = base.failures + sum(p.failures for p in slices)
    p99 = base.latency_percentile(tail_percentile(base.attempted))
    ladder = [(workload.base_rate, p99 <= workload.limit_ms, p99)] + [
        (rate,) + rung_verdict(phases, workload.limit_ms)
        for rate, phases in result["slices"].items()
    ]
    outcome.attempted = attempted
    outcome.failed = failed

    def nominal(factor: float) -> float:
        return factor ** workload.speed_exponent

    p50 = float(np.percentile(
        [p50 / nominal(f) for p50, f in windows], WINDOW_PERCENTILE,
    ))
    rps = max_rps(ladder, workload.limit_ms)
    saturated = [
        (phase.attempted / phase.elapsed_s, factor)
        for phase, factor in result["saturation"]
    ]
    capacity = float(np.percentile(
        [rate * nominal(f) for rate, f in saturated], SLICE_PERCENTILE,
    ))
    outcome.metrics = {
        "setup_s": setup_s,
        "p50_ms": p50,
        "throughput_per_s": capacity,
        "peak_rss_mb": rss,
    }
    outcome.figures = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (p50, "ms"),
        "p99_ms": (p99, "ms"),
        "max_rps": (rps, "req/s"),
        "saturated_rps": (capacity, "req/s"),
        "failed_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome.details.update(
        base_rate=workload.base_rate,
        base_samples=base.attempted,
        p50_ms_measured=base.latency_percentile(50.0),
        saturated_rps_measured=median([rate for rate, _ in saturated]),
        base_windows=result["windows"],
        base_window_late_share=result["window_late"],
        loadgen_late_share=base.late_share,
        loadgen_valid_windows=len(windows),
        saturation_slices=saturated,
        latency_limit_ms=workload.limit_ms,
        ladder=[
            {"rate": rate, "passed": passed, "tail_ms": tail}
            for rate, passed, tail in ladder
        ],
        cache_replies=dict(base.sources),
        loadgen_late_p99_ms=percentile(base.late_ms, 99.0),
        loadgen_connections=result["connections"],
        loadgen_senders=result["senders"],
    )
    check_outputs(workload, base, result["documents"], outcome)
    return outcome


def check_outputs(workload: ServiceWorkload, base: Phase,
                  documents: Sequence[Dict[str, Any]],
                  outcome: Outcome) -> None:
    outcome.check(
        "responses equal JsasConfiguration.solve",
        check_against_library(documents, base.responses),
    )
    if workload.min_hit_ratio:
        hits = base.sources.get("hit", 0) / max(1, base.attempted)
        outcome.check(
            f"cache hit ratio >= {workload.min_hit_ratio}",
            [] if hits >= workload.min_hit_ratio
            else [f"hit ratio {hits:.4f} over {base.attempted} requests"],
        )
