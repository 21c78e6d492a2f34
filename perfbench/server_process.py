"""Start and stop the service under test in a child process."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from perfbench.common import (
    ROOT,
    BenchError,
    descendants,
    peak_rss_mb_of,
)

BOOT_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``serve_child.py`` process and everything it forks."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "ServerProcess":
        """Launch and wait for the ready line (boot plus shard handshake)."""
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(ROOT / "perfbench" / "serve_child.py"),
                json.dumps(self.spec),
            ],
            cwd=str(ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select(
            [self.process.stdout], [], [], BOOT_TIMEOUT_S
        )
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise BenchError(f"service child failed to boot: {self.spec}")
        self.port = int(json.loads(line)["port"])
        return self

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest process of the system under test."""
        pid = self.process.pid
        return peak_rss_mb_of([pid] + descendants(pid))

    def stop(self) -> None:
        """Close the child's stdin (its shutdown signal) and reap the whole
        process tree, killing whatever outlives the grace period."""
        if self.process is None:
            return
        process, self.process = self.process, None
        tree = [process.pid] + descendants(process.pid)
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
        process.stdout.close()
        _reap(tree[1:])


def _reap(pids: List[int]) -> None:
    """Wait for forked grandchildren to exit; SIGKILL stragglers."""
    deadline = time.monotonic() + 10.0
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if _alive(pid)]
        if alive:
            time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"
