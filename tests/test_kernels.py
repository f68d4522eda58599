"""Phase kernels of the split-operator step."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph import kernels


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.ascontiguousarray(psi)


def test_kernels_modify_in_place():
    a = _random_state(128, seed=1)
    before = a.copy()
    x = np.linspace(-5.0, 5.0, 128)
    u = kernels.mirror_half(x * x)
    e = np.empty(len(u), dtype=complex)
    kernels.quartic_factors(e, u, 0.5, 0.0, 0.01)
    kernels.apply_quartic_phase(a, u, e, np.ones(128, dtype=complex))
    assert not np.array_equal(a, before)
    # pure phase: magnitudes untouched
    assert_allclose(np.abs(a), np.abs(before), rtol=1e-15)


@pytest.mark.parametrize("grid, folded", [
    (tm.SpatialGrid(-20.0, 20.0, 512), True),         # symmetric, even n
    (tm.SpatialGrid(-31.9375, 31.9375, 511), True),   # odd n, exact dx
    (tm.SpatialGrid(-20.0, 20.0, 511), False),        # odd n, inexact dx
    (tm.SpatialGrid(-20.0, 24.0, 512), False),        # asymmetric
])
def test_folded_phase_matches_direct_exp(grid, folded):
    x = grid.x
    u = kernels.mirror_half(x * x)
    assert len(u) == (grid.n // 2 + 1 if folded else grid.n)
    A, B, C, dt = -0.25, 2e-3, 0.09375, 0.1
    # two steps' factors in one call, the second step's coefficients doubled
    e = np.empty((2, len(u)), dtype=complex)
    kernels.quartic_factors(e, u, np.array([[A], [2 * A]]),
                            np.array([[B], [2 * B]]), dt)
    psi = np.ones(grid.n, dtype=complex)
    kernels.apply_quartic_phase(psi, u, e[0], np.exp(-1j * dt * C * x))
    direct = np.exp(-1j * dt * (A * x**2 + B * x**4 + C * x))
    assert np.max(np.abs(psi - direct)) <= 1e-12
    assert np.max(np.abs(np.abs(psi) - 1.0)) <= 1e-14
    psi = np.ones(grid.n, dtype=complex)
    kernels.apply_quartic_phase(psi, u, e[1], np.ones(grid.n, dtype=complex))
    direct = np.exp(-2j * dt * (A * x**2 + B * x**4))
    assert np.max(np.abs(psi - direct)) <= 1e-12
