"""Stationary states of the instantaneous trap Hamiltonian.

H = -(1/2) d^2/dx^2 + V(x) is discretized with second-order central
differences, giving a symmetric tridiagonal matrix whose lowest-k eigenpairs
come from LAPACK's bisection/inverse-iteration solver (O(kN), no dense
matrix).  Energies are optionally sharpened by two rounds of Richardson
extrapolation (solves at N, 2N, 4N eliminate the dx^2 and dx^4 error terms),
which is what lets a 1024-point grid deliver ~1e-11 relative accuracy on
oscillator levels where the raw finite-difference error is ~1e-3.
Eigenvectors are kept from the base grid - inter-state matrix elements and
overlaps only ever enter fidelity- or percent-level comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfinementError, DegeneracyError, GridError
from .grid import SpatialGrid
from .potential import DeformationPath, PotentialParams

SIGN_SCAN_THRESHOLD = 1e-8  # first component above this (from x_min) is made positive
DEGENERACY_TOL = 1e-14
NEIGHBOR_WINDOW = 2  # couplings of level n reach levels n-2 ... n+2


@dataclass(frozen=True, eq=False)
class EigenSet:
    """Lowest-k eigenpairs of H(lam) on a grid, energy-ordered.

    states[:, j] is the j-th real eigenfunction, normalized so that
    sum |psi_i|^2 dx = 1 and sign-fixed (first component exceeding
    SIGN_SCAN_THRESHOLD, scanning from x_min, is positive).
    """

    lam: float
    grid: SpatialGrid
    energies: np.ndarray
    states: np.ndarray

    @property
    def k(self) -> int:
        return len(self.energies)

    def state(self, j: int) -> np.ndarray:
        return self.states[:, j]

    def gram(self) -> np.ndarray:
        return (self.states.T @ self.states) * self.grid.dx


def _tridiag_eigh(V: np.ndarray, dx: float, k: int, **kw):
    """Lowest k eigenpairs of the finite-difference Hamiltonian with
    potential samples V (energies only with eigvals_only=True)."""
    d = 1.0 / dx**2 + V
    e = np.full(len(V) - 1, -0.5 / dx**2)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), **kw)


def _fix_signs(states: np.ndarray) -> np.ndarray:
    for j in range(states.shape[1]):
        col = states[:, j]
        idx = np.argmax(np.abs(col) > SIGN_SCAN_THRESHOLD)
        if col[idx] < 0.0:
            states[:, j] = -col
    return states


def max_levels(grid: SpatialGrid) -> int:
    """The most levels eigensolve solves for on `grid`."""
    return grid.n // 4


def eigensolve(p: PotentialParams, grid: SpatialGrid, k: int,
               refine: bool = True) -> EigenSet:
    """Lowest k eigenpairs of -(1/2) psi'' + V psi = E psi on `grid`.

    refine=True replaces the raw finite-difference energies by their
    double Richardson extrapolation over grids of n, 2n and 4n points
    (eigenvectors stay on the base grid).  The confinement guard always
    runs: ConfinementError is raised when any returned state holds more
    than 1e-8 of its probability in the outer 5% of the domain, or when
    an energy reaches the potential at the grid edge.
    """
    if not 1 <= k <= max_levels(grid):
        raise GridError("k = %d outside 1..%d for %d grid points"
                        % (k, max_levels(grid), grid.n))

    x = grid.x
    dx = grid.dx
    V = np.asarray(p(x), dtype=float)
    w, v = _tridiag_eigh(V, dx, k)
    states = _fix_signs(v / np.sqrt(dx))

    if refine:
        w2, w4 = (_tridiag_eigh(np.asarray(p(g.x), float), g.dx, k,
                                eigvals_only=True)
                  for g in (grid.refined(2), grid.refined(4)))
        w = (64.0 * w4 - 20.0 * w2 + w) / 45.0

    eig = EigenSet(lam=p.A, grid=grid, energies=w, states=states)

    worst = max(grid.boundary_mass(states[:, j]) for j in range(k))
    if worst > 1e-8:
        raise ConfinementError(
            "eigenstate leaks %.2e into the outer 5%% of the grid; "
            "domain too small for k=%d" % (worst, k)
        )
    if np.any(w >= min(V[0], V[-1])):
        raise ConfinementError(
            "E_%d above the potential at the grid edge" % int(np.argmax(
                w >= min(V[0], V[-1])))
        )
    return eig


def levels_needed(n: int) -> int:
    """Levels to solve for `couplings` at level n: 0 ... n + NEIGHBOR_WINDOW."""
    return n + NEIGHBOR_WINDOW + 1


@dataclass(frozen=True)
class NeighborCoupling:
    """|<n| dH/dA |m>| and gaps E_n - E_m for the four nearest neighbors
    m in {n-2, n-1, n+1, n+2} clipped to the available levels."""

    n: int
    neighbors: tuple
    couplings: np.ndarray
    gaps: np.ndarray


def couplings(eig: EigenSet, path: DeformationPath, n: int) -> NeighborCoupling:
    """Neighbor matrix elements of dH/dA = x^2 + B'(A) x^4 at eig.lam.

    B'(A) is the analytic derivative of the logistic switch, so the x^4
    term only contributes while B is actually moving.
    """
    k = eig.k
    if not 0 <= n < k:
        raise GridError("target index %d outside computed levels" % n)
    nbrs = tuple(m for m in range(n - NEIGHBOR_WINDOW, n + NEIGHBOR_WINDOW + 1)
                 if m != n and 0 <= m < k)
    x = eig.grid.x
    dH = x * x + float(path.beta_prime(eig.lam)) * x**4
    els = np.empty(len(nbrs))
    gaps = np.empty(len(nbrs))
    for i, m in enumerate(nbrs):
        gap = eig.energies[n] - eig.energies[m]
        if abs(gap) < DEGENERACY_TOL:
            raise DegeneracyError(
                "levels %d and %d degenerate at A=%g (gap %.3e)"
                % (n, m, eig.lam, gap)
            )
        els[i] = abs(matrix_element(eig, n, m, dH))
        gaps[i] = gap
    return NeighborCoupling(n=n, neighbors=nbrs, couplings=els, gaps=gaps)


def matrix_element(eig: EigenSet, i: int, j: int, op_values: np.ndarray) -> float:
    """<i| f(x) |j> for a diagonal (position-space) operator."""
    return float(np.sum(eig.state(i) * op_values * eig.state(j)) * eig.grid.dx)


def localization(eig: EigenSet, n: int):
    """(mean position, probability on x > 0) of level n - identifies
    which energy-ordered index is the upper-well ground state.

    A node exactly at x = 0 (present whenever the domain is symmetric and
    even-sized) contributes half its weight to each side, so symmetric
    states report exactly 1/2."""
    psi = eig.state(n)
    w = psi * psi * eig.grid.dx
    x = eig.grid.x
    mean_x = float(np.sum(w * x))
    prob_right = float(np.sum(w[x > 0.0]) + 0.5 * np.sum(w[x == 0.0]))
    return mean_x, prob_right
