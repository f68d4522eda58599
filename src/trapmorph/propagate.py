"""Time-dependent Schrödinger integration under a deformation schedule.

Strang split-operator stepping on the FFT grid:

    psi(t+dt) = K(dt/2) V(t+dt/2) K(dt/2) psi(t) + O(dt^3)

with K the kinetic phase in momentum space and V the potential phase with
coefficients sampled at the step midpoint (keeps second order for a
time-dependent Hamiltonian).  Adjacent half-kinetic factors of consecutive
steps are merged, so the loop costs two FFTs per step; when t_f is not a
multiple of dt the same loop runs once more for a single step of the
remainder, landing exactly on t_f.  Every step is unitary up to rounding,
which the norm checkpoints verify rather than enforce.

The transforms are `scipy.fft` calls that overwrite the one state buffer
the call owns.  The potential phase is split in two: the odd bias factor
exp(-i h C x) is a table built once per segment, like the kinetic tables,
and the even part A x^2 + B x^4 is a real phase evaluated with cos/sin on
one mirror half of a grid symmetric about 0 (`kernels.mirror_half`).

Fidelity here is the modulus |<target|psi>| - not its square.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import kernels
from .errors import ConfinementError, GridError, PropagationError
from .grid import SpatialGrid
from .potential import PotentialParams
from .schedule import Schedule

# Hard stability cap on dt * max(1, omega_max).  Well below the split-step
# blow-up threshold; fine-accuracy needs are covered by the dt-convergence
# property tests rather than a tighter gate here.
STEP_LIMIT = 0.25
NORM_DRIFT_LIMIT = 1e-8
BOUNDARY_MASS_LIMIT = 1e-6
CHECK_STRIDE = 5000  # steps between norm/boundary checkpoints


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a grid, unit norm (sum |psi|^2 dx = 1)."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise GridError("amplitude array does not match grid")
        n = self.norm()
        if not abs(n - 1.0) <= 1e-10:  # NaN fails too
            raise GridError("wavefunction not normalized: |1-norm| = %.3e"
                            % abs(n - 1.0))

    def norm(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    def mean_x(self) -> float:
        w = np.abs(self.values) ** 2 * self.grid.dx
        return float(np.sum(w * self.grid.x))

    @classmethod
    def normalized(cls, grid: SpatialGrid, values) -> "Wavefunction":
        v = np.asarray(values, dtype=complex)
        nrm = math.sqrt(float(np.sum(np.abs(v) ** 2) * grid.dx))
        if nrm == 0.0:
            raise GridError("cannot normalize the zero vector")
        return cls(grid=grid, values=v / nrm)

    @classmethod
    def from_eigenstate(cls, eig, j: int) -> "Wavefunction":
        return cls(grid=eig.grid, values=eig.state(j).astype(complex))


@dataclass(frozen=True, eq=False)
class PropagationReport:
    final_state: Wavefunction
    norm_drift: float
    steps: int
    wall_s: float  # wall time of the propagate call


def _trap_frequency(p: PotentialParams) -> float:
    """Frequency scale of the trap p: its harmonic frequency, or a double
    well's well frequency (1 for a trap that is neither)."""
    if p.A > 0.0:
        return math.sqrt(2.0 * p.A)
    if p.A < 0.0 and p.B > 0.0:
        return 2.0 * math.sqrt(-p.A)
    return 1.0


class Drive:
    """Adapter mapping step-midpoint times to potential coefficients.

    Raises PropagationError unless 0 <= t_f < inf and 0 < omega_max < inf.
    """

    def __init__(self, A_fn, B_fn, C: float, t_f: float, omega_max: float):
        self._A_fn = A_fn
        self._B_fn = B_fn
        self.C = float(C)
        self.t_f = float(t_f)
        self.omega_max = float(omega_max)
        # comparisons that NaN fails too
        if not 0.0 <= self.t_f < math.inf:
            raise PropagationError("t_f = %r is not a finite duration >= 0"
                                   % self.t_f)
        if not 0.0 < self.omega_max < math.inf:
            raise PropagationError("omega_max = %r is not finite and > 0"
                                   % self.omega_max)

    def coeffs(self, t: np.ndarray):
        A = np.asarray(self._A_fn(t), dtype=float)
        return A, np.asarray(self._B_fn(A), dtype=float)

    @classmethod
    def from_schedule(cls, s: Schedule) -> "Drive":
        """The larger trap frequency of the path's two ends bounds dt."""
        w = max(_trap_frequency(s.path.initial),
                _trap_frequency(s.path.final))
        return cls(s.A_of_t, s.path.beta, s.path.C, s.t_f, w)

    @classmethod
    def static(cls, p: PotentialParams, t_f: float) -> "Drive":
        return cls(lambda t: np.full(np.shape(t), p.A),
                   lambda A: np.full(np.shape(A), p.B), p.C, t_f,
                   _trap_frequency(p))


def _as_drive(obj) -> Drive:
    if isinstance(obj, Schedule):
        return Drive.from_schedule(obj)
    if isinstance(obj, Drive):
        return obj
    raise PropagationError("cannot interpret %r as a drive" % (obj,))


def propagate(psi0: Wavefunction, drive, dt: float) -> PropagationReport:
    """Integrate psi0 from t = 0 to the drive's t_f.

    drive: a Schedule, or a Drive (`Drive.static(params, t_f)` holds a
    fixed trap).  To sample the state along the way, say <x>(t) in a
    fixed trap, chain calls: each report's final_state is the next psi0.

    At the start, every CHECK_STRIDE steps and at the end, raises
    PropagationError when the norm drifts beyond 1e-8 or is not finite,
    and ConfinementError when probability accumulates at the grid edge
    (reflection).  A dt outside (0, STEP_LIMIT / max(1, omega_max)],
    NaN included, raises PropagationError before any step.
    """
    start = time.perf_counter()
    d = _as_drive(drive)
    T = d.t_f
    dt_max = STEP_LIMIT / max(1.0, d.omega_max)
    if not 0.0 < dt <= dt_max:
        raise PropagationError("dt = %g outside (0, %g] for omega_max = %g"
                               % (dt, dt_max, d.omega_max))

    grid = psi0.grid
    x = grid.x
    u = kernels.mirror_half(x * x)
    even = np.empty(len(u), dtype=complex)
    k2 = grid.wavenumbers**2

    m = int(math.floor(T / dt + 1e-9))
    rem = T - m * dt
    if rem < 1e-12 * max(1.0, T):
        rem = 0.0

    drift = 0.0

    def check(t, state):
        # norm of the state at t; fails on drift, edge mass and NaN
        nonlocal drift
        nrm = float(np.sum(np.abs(state) ** 2) * grid.dx)
        err = abs(nrm - 1.0)
        drift = max(drift, err)
        if not err <= NORM_DRIFT_LIMIT:
            raise PropagationError("norm drift %.3e at t = %.12g" % (err, t))
        bm = grid.boundary_mass(state)
        if not bm <= BOUNDARY_MASS_LIMIT:
            raise ConfinementError("boundary mass %.3e at t = %.12g: "
                                   "reflection, grid too small" % (bm, t))
        return nrm

    psi = psi0.values.astype(complex)  # a copy: the transforms overwrite it
    check(0.0, psi)

    # m steps of dt, then one step of the remainder: a single merged step
    # is exactly an unmerged Strang step
    segments = [(dt, (np.arange(m) + 0.5) * dt)]
    if rem > 0.0:
        segments.append((rem, np.array([m * dt + 0.5 * rem])))
    for h, t_mid in segments:
        if len(t_mid) == 0:
            continue
        A_mid, B_mid = d.coeffs(t_mid)
        kin_full = np.exp(-0.5j * h * k2)
        kin_half = np.exp(-0.25j * h * k2)
        odd = np.exp(-1j * h * d.C * x)

        # psi alternates between position and momentum space in place
        psi = scipy.fft.fft(psi, overwrite_x=True)
        kernels.apply_phase_table(psi, kin_half)
        last = len(t_mid) - 1
        for j in range(len(t_mid)):
            psi = scipy.fft.ifft(psi, overwrite_x=True)
            kernels.apply_quartic_phase(psi, u, even, odd,
                                        A_mid[j], B_mid[j], h)
            psi = scipy.fft.fft(psi, overwrite_x=True)
            if j == last:
                kernels.apply_phase_table(psi, kin_half)
                psi = scipy.fft.ifft(psi, overwrite_x=True)
                break
            if (j + 1) % CHECK_STRIDE == 0:
                # close the pending half-kinetic on a copy to check the
                # true state at t = (j+1) h without breaking the merge
                check((j + 1) * h,
                      scipy.fft.ifft(psi * kin_half, overwrite_x=True))
            kernels.apply_phase_table(psi, kin_full)

    nrm = check(T, psi)
    final = Wavefunction(grid=grid, values=psi / math.sqrt(nrm))
    steps = m + (1 if rem > 0.0 else 0)
    return PropagationReport(final_state=final, norm_drift=drift,
                             steps=steps, wall_s=time.perf_counter() - start)


def fidelity(psi: Wavefunction, target: Wavefunction) -> float:
    """|<target|psi>| - global-phase invariant, NOT squared."""
    if psi.grid != target.grid:
        raise GridError("fidelity between states on different grids")
    return float(abs(np.sum(np.conj(target.values) * psi.values) * psi.grid.dx))


def superposition_fidelity(F0: float, Fn: float) -> float:
    """Best-over-relative-phase fidelity of (|0> + e^{i phi}|n>)/sqrt(2)
    preparation: the arithmetic mean (F0 + Fn) / 2."""
    for v in (F0, Fn):
        if not 0.0 <= v <= 1.0 + 1e-12:
            raise PropagationError("fidelity %r outside [0, 1]" % v)
    return 0.5 * (F0 + Fn)
