"""Compiled kernels for the solve hot path.

:mod:`repro.core.compiled` turns a model into frozen arrays plus a
vectorized rate program; this package turns the remaining per-solve work
into *kernels* — code specialized per model shape, selected once per
process from a ladder of backends:

* ``cext`` — a small C kernel compiled on first use with the system C
  compiler (``cc``/``gcc``/``clang``) and loaded through :mod:`ctypes`;
  no build step, no new dependency, cached under
  ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``);
* ``numpy`` — the pure-NumPy fallback, always available.  For the
  banded steady-state kernel this is a single block-diagonal LAPACK
  ``dgbsv`` solve over the whole batch (see
  :mod:`repro.kernels.banded`), not a Python loop.

Selection happens at import time from the ``REPRO_KERNEL`` environment
variable (one of :data:`KERNEL_CHOICES`; default ``auto``) and can be
changed at runtime with :func:`set_backend` — the CLI's global
``--kernel`` flag does exactly that.  A backend that turns out to be
unusable at call time (a failed C build) demotes itself to ``numpy``
for the rest of the process instead of failing the solve.

Every backend is **value-compatible**: the rate program is bit-identical
to the interpreted path by construction (same expressions evaluated on
the same NumPy namespace, deduplicated), and the banded solvers agree
with the reference GTH elimination to ~1e-12, enforced by
``tests/kernels/``.
"""

from __future__ import annotations

import os
from typing import Tuple

from repro.exceptions import KernelError

#: Backend names, in auto-selection order (first available wins).
BACKEND_LADDER: Tuple[str, ...] = ("cext", "numpy")

#: Every accepted backend request: ``"auto"`` runs the ladder.
KERNEL_CHOICES: Tuple[str, ...] = ("auto",) + BACKEND_LADDER

_backend: str = "numpy"


def _cext_available() -> bool:
    # Cheap probe only: a C compiler on PATH (or an already-built and
    # cached library).  The actual build happens lazily on first use and
    # demotes to numpy if it fails.
    from repro.kernels import cext

    return cext.probe()


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process, in ladder order."""
    out = []
    for name in BACKEND_LADDER:
        if name == "numpy":
            out.append(name)
        elif name == "cext" and _cext_available():
            out.append(name)
    return tuple(out)


def backend_name() -> str:
    """The currently selected kernel backend."""
    return _backend


def set_backend(name: str) -> str:
    """Select a kernel backend; returns the previously selected one.

    ``"auto"`` re-runs the ladder.  Requesting an unavailable backend
    raises :class:`~repro.exceptions.KernelError` (so a CLI typo fails
    loudly instead of silently running slow).
    """
    global _backend
    previous = _backend
    if name == "auto":
        _backend = available_backends()[0] if available_backends() else "numpy"
        return previous
    if name not in BACKEND_LADDER:
        raise KernelError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_CHOICES}"
        )
    if name != "numpy" and name not in available_backends():
        raise KernelError(
            f"kernel backend {name!r} is not available in this "
            f"environment (available: {available_backends()})"
        )
    _backend = name
    return previous


def demote_to_numpy(reason: str) -> None:
    """Fall back to the numpy backend for the rest of the process.

    Called by kernel implementations when their backend fails at run
    time (a failed C build) — solving must keep working, just slower.
    """
    global _backend
    if _backend != "numpy":
        from repro import obs

        obs.event("kernels.demoted", backend=_backend, reason=reason)
        _backend = "numpy"


def _select_initial() -> str:
    requested = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
    if requested in ("", "auto"):
        avail = available_backends()
        return avail[0] if avail else "numpy"
    if requested not in BACKEND_LADDER:
        raise KernelError(
            f"REPRO_KERNEL={requested!r} is not a known backend; expected "
            f"one of {KERNEL_CHOICES}"
        )
    if requested != "numpy" and requested not in available_backends():
        # An explicitly requested but unavailable backend demotes with a
        # visible event rather than crashing import of the whole library.
        return "numpy"
    return requested


_backend = _select_initial()

from repro.kernels.program import RateProgram  # noqa: E402  (public API)

__all__ = [
    "BACKEND_LADDER",
    "KERNEL_CHOICES",
    "RateProgram",
    "available_backends",
    "backend_name",
    "demote_to_numpy",
    "set_backend",
]
