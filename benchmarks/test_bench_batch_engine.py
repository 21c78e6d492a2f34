"""Benchmark one batched solve against a per-sample loop of solves.

Times the Fig. 7 workload (Config 1 hierarchical uncertainty analysis)
both ways: the per-snapshot loop (``batch=False``, one one-sample
``solve()`` per snapshot) on a small subset, and one batched solve of
the full 1,000 samples.
Writes ``BENCH_solve.json`` at the repo root with per-sample timings and
the speedup, and asserts the engine delivers at least a 10x win.
"""

import json
import pathlib
import time

import pytest

from conftest import bench_metadata
from repro.models.jsas.configs import build_uncertainty_analysis
from repro.models.jsas.system import CONFIG_1

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 2004
N_BATCHED = 1000
N_SCALAR = 60  # enough for a stable per-sample figure without minutes of wall
REPS = 3


def _median_per_sample_ms(run, n_samples: int) -> float:
    timings = []
    for _ in range(REPS):
        start = time.perf_counter()
        run()
        timings.append((time.perf_counter() - start) * 1000.0 / n_samples)
    timings.sort()
    return timings[len(timings) // 2]


@pytest.mark.benchmark(group="batch-engine")
def test_bench_batch_engine(benchmark, save_artifact):
    analysis = build_uncertainty_analysis(CONFIG_1)

    scalar_ms = _median_per_sample_ms(
        lambda: analysis.run(n_samples=N_SCALAR, seed=SEED, batch=False),
        N_SCALAR,
    )
    batched_ms = _median_per_sample_ms(
        lambda: analysis.run(n_samples=N_BATCHED, seed=SEED),
        N_BATCHED,
    )
    # The headline timing pytest-benchmark records is the batched run.
    result = benchmark.pedantic(
        lambda: analysis.run(n_samples=N_BATCHED, seed=SEED),
        rounds=1,
        iterations=1,
    )

    # Same seed, same sampler: the engines must agree exactly on the
    # overlap, not just statistically.
    subset = analysis.run(n_samples=N_SCALAR, seed=SEED, batch=False)
    assert result.values[:N_SCALAR] == subset.values

    speedup = scalar_ms / batched_ms
    payload = {
        **bench_metadata(engine="compiled", method="auto"),
        "workload": "fig7 Config 1 hierarchical uncertainty analysis",
        "seed": SEED,
        "scalar_samples": N_SCALAR,
        "batched_samples": N_BATCHED,
        "scalar_per_sample_ms": scalar_ms,
        "batched_per_sample_ms": batched_ms,
        "speedup": speedup,
    }
    (REPO_ROOT / "BENCH_solve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_artifact(
        "batch_engine",
        "\n".join(
            [
                "Compiled batch engine vs scalar loop (fig7 workload)",
                "",
                f"scalar:  {scalar_ms:.4f} ms/sample ({N_SCALAR} samples)",
                f"batched: {batched_ms:.4f} ms/sample ({N_BATCHED} samples)",
                f"speedup: {speedup:.1f}x",
            ]
        ),
    )

    assert speedup >= 10.0
