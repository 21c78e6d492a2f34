"""Shared helpers: paths, statistics, provenance and memory readings."""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout: the directory that holds ``perfbench/``.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark builds or writes lives under here.
BUILD = ROOT / ".bench_build"


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class Outcome:
    """What one run measured and whether its outputs were right.

    ``metrics`` holds the metrics ``BENCHMARK.json`` declares, by name;
    ``figures`` the workload's own named figures with their units (the
    names its users know: ``max_rps``, ``solve_p99_ms``,
    ``sim_hours_per_s``, ...); ``details`` what lies behind them (ladder,
    hit ratio, windows) for the report and the result record.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    checks: List[Tuple[str, List[str]]] = field(default_factory=list)

    def check(self, name: str, problems: Sequence[str]) -> None:
        """Record one correctness check; no problems means it passed."""
        self.checks.append((name, list(problems)))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and not any(p for _, p in self.checks)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


#: Iterations of the host-speed reference loop (about 2 ms a pass).
REFERENCE_LOOPS = 2_400
REFERENCE_PASSES = 3
#: Time of one reference pass that normalised figures are expressed at:
#: about the pass time in the fast state of a 2-vCPU x86-64 cloud host.
REFERENCE_NOMINAL_MS = 2.0


def _reference_pass() -> None:
    """Fixed interpreter work: integer arithmetic, heap and dict traffic,
    the mix the solver's model building and the simulator spend on."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    for i in range(REFERENCE_LOOPS):
        key = i * 7919 % 1009
        heapq.heappush(heap, (key, i))
        table[key] = table.get(key, 0) + i * i
    while heap:
        heapq.heappop(heap)


def host_factor() -> float:
    """How slow the host runs now: the median time of a fixed pure-Python
    workload over :data:`REFERENCE_NOMINAL_MS` (1.0 is nominal, 1.5 is a
    third less work per second).

    The shared host the benchmark was built on swings between speed
    states about 1.6x apart that last from seconds to a minute, which
    slows the program and this loop alike.  A time divided by the factor
    measured around it (a rate multiplied by it) is the figure at
    nominal speed; code changes move it, host states mostly do not.
    """
    passes = []
    for _ in range(REFERENCE_PASSES):
        started = time.perf_counter()
        _reference_pass()
        passes.append(time.perf_counter() - started)
    return 1000.0 * median(passes) / REFERENCE_NOMINAL_MS


def tail_percentile(n: int) -> float:
    """p99, or the highest percentile that leaves at least ten samples
    beyond it in a sample of ``n``."""
    if n <= 10:
        raise BenchError(f"{n} samples leave none to spare for a tail")
    return min(99.0, 100.0 * (n - 10) / n)


def peak_rss_mb_of(pids: Iterable[int]) -> float:
    """Largest peak resident set (``VmHWM``) among live processes."""
    best = 0.0
    for pid in pids:
        try:
            text = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                best = max(best, float(line.split()[1]) / 1024.0)
    return best


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    children: Dict[int, List[int]] = {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found: List[int] = []
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def git_commit() -> Optional[str]:
    """The checkout's commit when it is a git repository, else ``None``."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the Python sources under ``src``: identifies the code
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Where a result came from: code, machine, interpreter and inputs."""
    import repro
    from repro import kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "repro_version": getattr(repro, "__version__", None),
        "kernel_backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "executable": sys.executable,
    }
