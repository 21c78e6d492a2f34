"""Child process that hosts the service under test.

Run as ``python perfbench/serve_child.py '<json spec>'`` with ``src`` on
``PYTHONPATH``.  The spec selects the same topology ``repro-avail serve``
builds from its flags:

* ``{"shards": 2}`` — a :class:`ClusterServer` router over two shards
  with the default shard config (``serve --shards 2``);
* ``{"shards": 1, "worker_processes": 1}`` — a single
  :class:`AvailabilityServer` with one pre-forked solver process
  (``serve --worker-processes 1``).

``"trace_dir"`` switches on the service's own per-process span files and
wraps the fingerprint, cache and batcher entry points in spans of the
benchmark's own (inherited by every forked shard and solver process), so
a traced request's tree shows those layers without any span inside the
program.

The child prints one JSON line ``{"port": ...}`` once it
accepts connections, then serves until its standard input closes.
"""

from __future__ import annotations

import dataclasses
import json
import sys


def install_service_wrappers() -> None:
    """Wrap per-request layer entry points in ``bench.*`` spans."""
    from repro import obs
    from repro.service.cache import SolveCache
    from repro.service.fingerprint import HierarchyFingerprinter
    from repro.service.scheduler import Ticket

    request = HierarchyFingerprinter.request

    def timed_request(self, *args, **kwargs):
        with obs.span("bench.fingerprint"):
            return request(self, *args, **kwargs)

    get_or_compute = SolveCache.get_or_compute

    def timed_get_or_compute(self, fingerprint, compute):
        def timed_compute():
            with obs.span("bench.cache.compute"):
                return compute()

        with obs.span("bench.cache"):
            return get_or_compute(self, fingerprint, timed_compute)

    result = Ticket.result

    def timed_result(self, timeout=None):
        with obs.span("bench.batcher.wait"):
            return result(self, timeout)

    HierarchyFingerprinter.request = timed_request
    SolveCache.get_or_compute = timed_get_or_compute
    Ticket.result = timed_result


def main() -> None:
    spec = json.loads(sys.argv[1])
    trace_dir = spec.get("trace_dir")
    if trace_dir:
        install_service_wrappers()
    from repro.service import (
        AvailabilityServer,
        ClusterConfig,
        ClusterServer,
        ServiceConfig,
    )

    config = ServiceConfig(
        port=0, worker_processes=int(spec.get("worker_processes", 0))
    )
    shards = int(spec["shards"])
    if shards > 1:
        server = ClusterServer(
            ClusterConfig(
                port=0, n_shards=shards, shard=config, trace_dir=trace_dir
            )
        )
    else:
        server = AvailabilityServer(
            dataclasses.replace(config, trace_dir=trace_dir)
        )
    server.start()
    try:
        sys.stdout.write(json.dumps({"port": server.address[1]}) + "\n")
        sys.stdout.flush()
        sys.stdin.read()
    finally:
        server.close()


if __name__ == "__main__":
    main()
