"""Open-loop load generator: seeded Poisson arrivals at a fixed rate.

At most two sender threads, each with its own :class:`ServiceClient`
(one keep-alive connection apiece).  A sender takes the next request in
schedule order, sleeps until it is due, sends it and waits for the reply.
Latency is measured from the moment the request was *due*, so when both
senders are busy the wait of the requests queued behind them is charged
to those requests, as a stalled server would charge it to real users.

How late the generator itself ran is measured separately: a request is
late by the time between its send and the later of its due time and the
moment a sender was free to take it.  That is sleep overshoot and
interpreter scheduling, not queueing, and it is what decides whether a
run is valid.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from perfbench.common import BenchError, percentile

#: Sender threads, and so connections, the generator may use.
MAX_SENDERS = 2

#: A request counts as late when the generator sent it this much after a
#: sender was free and it was due.
LATE_MS = 2.0
#: A phase is invalid when more than this share of its requests was late.
MAX_LATE_SHARE = 0.05


@dataclass
class Phase:
    """Outcome of one fixed-rate phase."""

    rate: float
    scheduled_s: float
    #: Latency from the due time, in completion order; a failed request
    #: reads infinite, so it misses every limit.
    latencies_ms: List[float] = field(default_factory=list)
    call_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failures: int = 0
    elapsed_s: float = 0.0
    #: Replies kept for correctness checks, by index into the documents.
    responses: Dict[int, Any] = field(default_factory=dict)
    #: Replies by the server's ``serving.cache`` verdict (hit/miss/shared).
    sources: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def late_share(self) -> float:
        if not self.late_ms:
            return 0.0
        return sum(1 for x in self.late_ms if x > LATE_MS) / len(self.late_ms)

    @property
    def valid(self) -> bool:
        return self.late_share <= MAX_LATE_SHARE

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def extend(self, other: "Phase", offset: int) -> None:
        """Append ``other``'s samples; its kept responses are re-indexed
        by ``offset`` into the combined documents."""
        self.scheduled_s += other.scheduled_s
        self.elapsed_s += other.elapsed_s
        self.latencies_ms += other.latencies_ms
        self.call_ms += other.call_ms
        self.late_ms += other.late_ms
        self.failures += other.failures
        self.sources.update(other.sources)
        self.responses.update(
            {offset + i: r for i, r in other.responses.items()}
        )

    def backlog_grew(self, limit_ms: float) -> bool:
        """True when the last reply came later than the schedule plus the
        latency limit: requests were piling up faster than they drained."""
        return self.elapsed_s * 1000.0 > self.scheduled_s * 1000.0 + limit_ms


class OpenLoopGenerator:
    """Sends generated request documents to one service URL."""

    def __init__(self, url: str) -> None:
        from repro.service import RetryPolicy, ServiceClient

        if MAX_SENDERS > (os.cpu_count() or 1):
            raise BenchError(
                f"{MAX_SENDERS} senders would exceed nproc={os.cpu_count()}"
            )
        # No retries: a request that fails is counted, not hidden.
        self.clients = [
            ServiceClient(url, timeout=10.0, retry=RetryPolicy(max_attempts=1))
            for _ in range(MAX_SENDERS)
        ]

    @property
    def connections_opened(self) -> int:
        return sum(client.connections_opened for client in self.clients)

    def close(self) -> None:
        for client in self.clients:
            client.close()

    def run(
        self,
        documents: Sequence[Dict[str, Any]],
        rate: float,
        rng: np.random.Generator,
        keep: Optional[Callable[[int], bool]] = None,
    ) -> Phase:
        """Send every document once, at Poisson arrivals of ``rate``/s.

        ``keep(i)`` selects the responses to retain for correctness
        checks (by index into ``documents``).
        """
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(documents)))
        phase = Phase(rate=rate, scheduled_s=float(offsets[-1]))
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter() + 0.01

        def sender(client) -> None:
            from repro.service.errors import ServiceError

            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(documents):
                    return
                due = start + offsets[index]
                free_at = time.perf_counter()
                if due > free_at:
                    time.sleep(due - free_at)
                sent = time.perf_counter()
                late = sent - max(due, free_at)
                document = documents[index]
                try:
                    response = client.solve(**document)
                except ServiceError:
                    with lock:
                        phase.failures += 1
                        phase.latencies_ms.append(float("inf"))
                        phase.late_ms.append(late * 1000.0)
                    continue
                done = time.perf_counter()
                with lock:
                    phase.latencies_ms.append((done - due) * 1000.0)
                    phase.call_ms.append((done - sent) * 1000.0)
                    phase.late_ms.append(late * 1000.0)
                    phase.sources[response["serving"]["cache"]] += 1
                    if keep is not None and keep(index):
                        phase.responses[index] = response

        threads = [
            threading.Thread(target=sender, args=(client,), daemon=True)
            for client in self.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=phase.scheduled_s + 60.0)
            if thread.is_alive():
                raise BenchError("a sender thread did not finish")
        phase.elapsed_s = time.perf_counter() - start
        if self.connections_opened > len(self.clients):
            raise BenchError(
                f"{self.connections_opened} connections opened by "
                f"{len(self.clients)} senders"
            )
        return phase
