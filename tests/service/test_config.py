"""ServiceConfig validation of the kernel override."""

import pytest

from repro import kernels
from repro.service.config import ServiceConfig
from repro.service.errors import BadRequest


@pytest.mark.parametrize("name", kernels.KERNEL_CHOICES + (None,))
def test_known_kernels_accepted(name):
    assert ServiceConfig(port=0, kernel=name).kernel == name


@pytest.mark.parametrize("name", ["numba", "fortran", ""])
def test_unknown_kernel_rejected(name):
    with pytest.raises(BadRequest, match="unknown kernel"):
        ServiceConfig(port=0, kernel=name)
