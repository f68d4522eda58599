"""Phase kernels of the split-operator step."""

import numpy as np
from numpy.testing import assert_allclose

from trapmorph import kernels


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.ascontiguousarray(psi)


def test_kernels_modify_in_place():
    a = _random_state(128, seed=1)
    before = a.copy()
    x = np.linspace(-5.0, 5.0, 128)
    kernels.apply_quartic_phase(a, x, x * x, x**4, 0.5, 0.0, 0.0, 0.01)
    assert not np.array_equal(a, before)
    # pure phase: magnitudes untouched
    assert_allclose(np.abs(a), np.abs(before), rtol=1e-15)
