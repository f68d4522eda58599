"""Finite-difference eigensolver: spectra, states, couplings."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

import trapmorph as tm
from trapmorph.eigen import levels_needed, matrix_element
from trapmorph.errors import (ConfinementError, DegeneracyError, GridError)


def test_harmonic_spectrum_with_richardson_refinement():
    grid = tm.SpatialGrid(-12.0, 12.0, 1024)
    eig = tm.eigensolve(tm.PotentialParams(0.5, 0.0, 0.0), grid, 8)
    assert_allclose(eig.energies, np.arange(8) + 0.5, rtol=1e-8)


def test_refinement_actually_buys_accuracy():
    grid = tm.SpatialGrid(-12.0, 12.0, 1024)
    p = tm.PotentialParams(0.5, 0.0, 0.0)
    raw = tm.eigensolve(p, grid, 8, refine=False).energies
    ref = tm.eigensolve(p, grid, 8, refine=True).energies
    exact = np.arange(8) + 0.5
    assert np.max(np.abs(ref - exact)) < 1e-3 * np.max(np.abs(raw - exact))


def test_grid_refinement_convergence():
    # halving dx moves refined energies by < 1e-6 relative
    p = tm.mini_preset().path.initial
    g1 = tm.SpatialGrid(-20.0, 20.0, 512)
    e1 = tm.eigensolve(p, g1, 5).energies
    e2 = tm.eigensolve(p, g1.refined(2), 5).energies
    assert np.max(np.abs(e1 / e2 - 1.0)) < 1e-6


def _tridiagonal(p, grid):
    """Diagonal and off-diagonal of the finite-difference Hamiltonian."""
    return (1.0 / grid.dx**2 + p(grid.x),
            np.full(grid.n - 1, -0.5 / grid.dx**2))


def _bisection_energies(p, grid, k, **kw):
    d, e = _tridiagonal(p, grid)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                            eigvals_only=True, **kw)


_HARMONIC = tm.PotentialParams(0.5, 0.0, 0.0)
_MINI, _BE = tm.mini_preset(), tm.beryllium_preset()


@pytest.mark.parametrize("p, grid, k", [
    (_HARMONIC, tm.SpatialGrid(-10.0, 10.0, 256), 6),
    (_HARMONIC, tm.SpatialGrid(-20.0, 20.0, 512), 6),
    (_MINI.path.initial, _MINI.grid, 6),
    (_BE.path.initial, _BE.grid, 7),
], ids=["harmonic-256", "harmonic-512", "mini", "beryllium"])
def test_refined_energies_match_bisection_extrapolation(p, grid, k):
    # refinement extrapolates Ritz energies on the 2n- and 4n-point grids;
    # it used to take them from eigenvalues-only bisection there.  Largest
    # relative change measured: 1.1e-12 (harmonic-256), 1.6e-13
    # (harmonic-512), 1.0e-13 (mini), 2.2e-15 (beryllium)
    e1 = tm.eigensolve(p, grid, k, refine=False).energies
    e2, e4 = (_bisection_energies(p, grid.refined(m), k) for m in (2, 4))
    old = (64.0 * e4 - 20.0 * e2 + e1) / 45.0
    assert_allclose(tm.eigensolve(p, grid, k, refine=True).energies, old,
                    rtol=2e-12, atol=0.0)


def _residuals(eig, p):
    """||T v - E v|| of each unit-norm eigenvector v."""
    d, e = _tridiagonal(p, eig.grid)
    v = eig.states * np.sqrt(eig.grid.dx)
    tv = d[:, None] * v
    tv[1:] += e[0] * v[:-1]
    tv[:-1] += e[0] * v[1:]
    return np.linalg.norm(tv - v * eig.energies, axis=0)


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
def test_ritz_energies_match_tight_bisection(mini, where):
    # the loose bisection only places the levels; the Ritz values of its
    # vectors must be as good as bisection run to the last bit (measured
    # <= 6.2e-15 here, against 4.4e-14 for default-tolerance bisection)
    a = mini.path.A0 + where * (mini.path.Af - mini.path.A0)
    p = mini.path.params_at(a)
    eig = tm.eigensolve(p, mini.grid, mini.k, refine=False)
    exact = _bisection_energies(p, mini.grid, mini.k, tol=1e-300)
    assert np.max(np.abs(eig.energies - exact)) <= 1e-13
    assert np.max(_residuals(eig, p)) <= 1e-12


def test_ritz_energies_at_beryllium_endpoints_no_worse():
    # E_0 = -28 414 at A0: an ulp there is 3.6e-12, and default-tolerance
    # bisection, which gave the energies before, is off by 2.2e-11 at A0
    # and 3.9e-11 at Af
    be = tm.beryllium_preset()
    for p in (be.path.initial, be.path.final):
        eig = tm.eigensolve(p, be.grid, be.k, refine=False)
        exact = _bisection_energies(p, be.grid, be.k, tol=1e-300)
        before = _bisection_energies(p, be.grid, be.k)
        err = np.max(np.abs(eig.energies - exact))
        assert err <= np.max(np.abs(before - exact))
        # a few ulps of the deepest level (measured 3.6e-12 at A0)
        assert np.max(_residuals(eig, p)) <= 1e-13 + 1e-15 * np.max(
            np.abs(exact))


def test_orthonormality(mini, mini_eigs):
    eig0, eigf = mini_eigs
    for eig in (eig0, eigf):
        gram = eig.gram()
        assert np.max(np.abs(gram - np.eye(eig.k))) < 1e-8


def test_sign_convention_is_deterministic(mini):
    a = tm.eigensolve(mini.path.initial, mini.grid, 5, refine=False)
    b = tm.eigensolve(mini.path.initial, mini.grid, 5, refine=False)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.energies, b.energies)
    # first component above the scan threshold is positive
    for j in range(5):
        s = a.state(j)
        nz = np.flatnonzero(np.abs(s) > 1e-8)[0]
        assert s[nz] > 0.0


def test_localization_sides():
    # symmetric, shallow-ish double well: every state splits 50/50
    grid = tm.SpatialGrid(-20.0, 20.0, 512)
    eig = tm.eigensolve(tm.PotentialParams(-0.25, 0.5 / 64.0, 0.0), grid, 4,
                        refine=False)
    for j in range(4):
        mx, pr = tm.localization(eig, j)
        assert abs(pr - 0.5) < 1e-9
        assert abs(mx) < 1e-7


def test_biased_well_level_ordering(mini, mini_eigs):
    # the n = 2 bias puts levels 0 and 1 in the left well and makes the
    # target level the right-well ground state
    eig0, _ = mini_eigs
    for j, side in [(0, "L"), (1, "L"), (2, "R")]:
        mx, pr = tm.localization(eig0, j)
        if side == "L":
            assert pr < 0.01 and mx < -5.0
        else:
            assert pr > 0.99 and mx > 5.0


def test_final_harmonic_centered_on_equilibrium(mini, mini_eigs):
    _, eigf = mini_eigs
    x_eq = -mini.path.C / (2.0 * mini.path.Af)
    for j in range(3):
        mx, _ = tm.localization(eigf, j)
        assert abs(mx - x_eq) < 1e-6


def test_harmonic_ladder_matrix_elements():
    # |<n|x^2|n+2>| = sqrt((n+1)(n+2))/2 at omega = 1
    grid = tm.SpatialGrid(-8.0, 8.0, 32768)
    eig = tm.eigensolve(tm.PotentialParams(0.5, 0.0, 0.0), grid, 5,
                        refine=False)
    x2 = grid.x**2
    for n in (0, 1, 2):
        want = np.sqrt((n + 1) * (n + 2)) / 2.0
        assert_allclose(abs(matrix_element(eig, n, n + 2, x2)), want,
                        rtol=1e-6)
    # symmetry of the sesquilinear form (real states)
    assert_allclose(matrix_element(eig, 0, 2, x2),
                    matrix_element(eig, 2, 0, x2), rtol=1e-12)


def test_coupling_parity_selection():
    # symmetric well, even operator: odd <-> even elements vanish
    grid = tm.SpatialGrid(-20.0, 20.0, 512)
    path = tm.path_for_target(-0.25, 0.5 / 64.0, -400.0 / 3.0, 0.05, 0)
    eig = tm.eigensolve(path.initial, grid, 5, refine=False)
    nc = tm.couplings(eig, path, 2)
    assert list(nc.neighbors) == [0, 1, 3, 4]
    el = dict(zip(nc.neighbors, nc.couplings))
    assert el[1] < 1e-8 and el[3] < 1e-8  # parity-forbidden
    assert el[0] > 1.0 and el[4] > 1.0
    assert np.all(np.abs(nc.gaps) > 1e-14)


def test_couplings_neighbor_window_clips_at_ground(mini, mini_eigs):
    eig0, _ = mini_eigs
    nc = tm.couplings(eig0, mini.path, 0)
    assert list(nc.neighbors) == [1, 2]
    # the levels the presets solve hold the whole window of the target
    assert mini.k == eig0.k == levels_needed(mini.n_target) == 5
    nc = tm.couplings(eig0, mini.path, mini.n_target)
    assert list(nc.neighbors) == [0, 1, 3, 4]


def test_degenerate_pair_is_rejected():
    # deep symmetric well: the lowest doublet is split below resolution
    grid = tm.SpatialGrid(-20.0, 20.0, 512)
    path = tm.path_for_target(-0.25, 0.5 / 256.0, -400.0 / 3.0, 0.05, 0)
    eig = tm.eigensolve(path.initial, grid, 4, refine=False)
    with pytest.raises(DegeneracyError):
        tm.couplings(eig, path, 0)


def test_confinement_guard():
    # wells at +-8 on a [-6, 6] box: the box, not the potential, confines
    grid = tm.SpatialGrid(-6.0, 6.0, 128)
    with pytest.raises(ConfinementError):
        tm.eigensolve(tm.mini_preset().path.initial, grid, 3)


def test_k_validation():
    grid = tm.SpatialGrid(-12.0, 12.0, 64)
    with pytest.raises(GridError):
        tm.eigensolve(tm.PotentialParams(0.5, 0.0, 0.0), grid, 40)
    with pytest.raises(GridError):
        tm.eigensolve(tm.PotentialParams(0.5, 0.0, 0.0), grid, 0)
