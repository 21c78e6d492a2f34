"""Backend ladder selection, forcing, and demotion."""

import os
import subprocess
import sys

import pytest

from repro import kernels
from repro.exceptions import KernelError


@pytest.fixture
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.set_backend(previous)


class TestLadder:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_current_backend_is_available(self):
        assert kernels.backend_name() in kernels.available_backends()

    def test_ladder_order(self):
        available = kernels.available_backends()
        positions = [kernels.BACKEND_LADDER.index(b) for b in available]
        assert positions == sorted(positions)


class TestSetBackend:
    def test_force_numpy_and_back(self, restore_backend):
        previous = kernels.set_backend("numpy")
        assert kernels.backend_name() == "numpy"
        assert previous in kernels.BACKEND_LADDER
        kernels.set_backend("auto")
        assert kernels.backend_name() == kernels.available_backends()[0]

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            kernels.set_backend("fortran")

    def test_removed_numba_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            kernels.set_backend("numba")

    def test_unavailable_backend_rejected(self, monkeypatch):
        # Simulate a host without a C compiler so the check does not
        # depend on what this machine has installed.
        monkeypatch.setattr(kernels, "_cext_available", lambda: False)
        with pytest.raises(KernelError, match="not available"):
            kernels.set_backend("cext")

    def test_choices_are_auto_plus_the_ladder(self):
        assert kernels.KERNEL_CHOICES == ("auto",) + kernels.BACKEND_LADDER

    def test_demotion_is_sticky(self, restore_backend):
        kernels.set_backend("numpy")
        kernels.demote_to_numpy("test")  # no-op from numpy
        assert kernels.backend_name() == "numpy"
        if len(kernels.available_backends()) > 1:
            kernels.set_backend("auto")
            if kernels.backend_name() != "numpy":
                kernels.demote_to_numpy("test")
                assert kernels.backend_name() == "numpy"


class TestEnvironmentSelection:
    def _backend_under_env(self, value):
        env = dict(os.environ)
        env["REPRO_KERNEL"] = value
        env["PYTHONPATH"] = "src"
        return subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro import kernels; print(kernels.backend_name())",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )

    def test_env_forces_numpy(self):
        proc = self._backend_under_env("numpy")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_env_auto_matches_ladder(self):
        proc = self._backend_under_env("auto")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() in kernels.BACKEND_LADDER

    def test_env_unknown_fails_import(self):
        proc = self._backend_under_env("cuda")
        assert proc.returncode != 0
        assert "not a known backend" in proc.stderr
