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

Fidelity here is the modulus |<target|psi>| - not its square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
        if abs(n - 1.0) > 1e-10:
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
    dt: float


class Drive:
    """Adapter mapping step-midpoint times to potential coefficients."""

    def __init__(self, A_fn, B_fn, C: float, t_f: float, omega_max: float):
        self._A_fn = A_fn
        self._B_fn = B_fn
        self.C = float(C)
        self.t_f = float(t_f)
        self.omega_max = float(omega_max)

    def coeffs(self, t: np.ndarray):
        A = np.asarray(self._A_fn(t), dtype=float)
        return A, np.asarray(self._B_fn(A), dtype=float)

    @classmethod
    def from_schedule(cls, s: Schedule) -> "Drive":
        w = max(2.0 * math.sqrt(-s.path.A0), math.sqrt(2.0 * s.path.Af))
        return cls(s.A_of_t, s.path.beta, s.path.C, s.t_f, w)

    @classmethod
    def static(cls, p: PotentialParams, t_f: float) -> "Drive":
        if p.A > 0.0:
            w = math.sqrt(2.0 * p.A)
        elif p.A < 0.0 and p.B > 0.0:
            w = 2.0 * math.sqrt(-p.A)
        else:
            w = 1.0
        return cls(lambda t: np.full(np.shape(t), p.A),
                   lambda A: np.full(np.shape(A), p.B), p.C, t_f, w)


def _as_drive(obj) -> Drive:
    if isinstance(obj, Schedule):
        return Drive.from_schedule(obj)
    if isinstance(obj, Drive):
        return obj
    raise PropagationError("cannot interpret %r as a drive" % (obj,))


def propagate(psi0: Wavefunction, drive, dt: float,
              target: Optional[Wavefunction] = None,
              trajectory=None, traj_stride: int = 100) -> PropagationReport:
    """Integrate psi0 from t = 0 to the drive's t_f.

    drive: a Schedule, or a Drive (`Drive.static(params, t_f)` holds a
    fixed trap).
    trajectory: optional text stream; every traj_stride-th step a CSV row
    (t, norm, <x>, fidelity-to-target) is appended (fidelity column empty
    when no target is given).  `target` is used for nothing else.

    Every CHECK_STRIDE steps, and at the end, raises PropagationError on
    norm drift beyond 1e-8 and ConfinementError when probability
    accumulates at the grid edge (reflection).
    """
    d = _as_drive(drive)
    T = d.t_f
    if dt <= 0.0:
        raise PropagationError("dt must be positive")
    if dt > STEP_LIMIT / max(1.0, d.omega_max):
        raise PropagationError(
            "dt = %g too coarse for omega_max = %g (limit %g)"
            % (dt, d.omega_max, STEP_LIMIT / max(1.0, d.omega_max))
        )

    grid = psi0.grid
    x = grid.x
    x2 = x * x
    x4 = x2 * x2
    k2 = grid.wavenumbers**2
    C = d.C

    m = int(math.floor(T / dt + 1e-9))
    rem = T - m * dt
    if rem < 1e-12 * max(1.0, T):
        rem = 0.0

    norms = [psi0.norm()]
    psi = psi0.values.astype(complex)

    def dump(t, state_x):
        nrm = float(np.sum(np.abs(state_x) ** 2) * grid.dx)
        mx = float(np.sum(np.abs(state_x) ** 2 * x) * grid.dx)
        if target is not None:
            f = abs(np.sum(np.conj(target.values) * state_x) * grid.dx)
            trajectory.write("%.12g,%.12g,%.12g,%.12g\n" % (t, nrm, mx, f))
        else:
            trajectory.write("%.12g,%.12g,%.12g,\n" % (t, nrm, mx))

    if trajectory is not None:
        trajectory.write("t,norm,mean_x,fidelity\n")
        dump(0.0, psi)

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

        psi_k = np.fft.fft(psi)
        kernels.apply_phase_table(psi_k, kin_half)
        last = len(t_mid) - 1
        for j in range(len(t_mid)):
            psi_x = np.fft.ifft(psi_k)
            kernels.apply_quartic_phase(psi_x, x, x2, x4,
                                        A_mid[j], B_mid[j], C, h)
            psi_k = np.fft.fft(psi_x)
            if j == last:
                kernels.apply_phase_table(psi_k, kin_half)
                psi = np.fft.ifft(psi_k)
                break
            want_dump = trajectory is not None and (j + 1) % traj_stride == 0
            want_check = (j + 1) % CHECK_STRIDE == 0
            if want_dump or want_check:
                # close the pending half-kinetic on a copy to observe the
                # true state at t = (j+1) h without breaking the merge
                closed = np.fft.ifft(psi_k * kin_half)
                if want_check:
                    nrm = float(np.sum(np.abs(closed) ** 2) * grid.dx)
                    norms.append(nrm)
                    if abs(nrm - 1.0) > NORM_DRIFT_LIMIT:
                        raise PropagationError(
                            "norm drift %.3e at step %d" % (abs(nrm - 1.0), j + 1)
                        )
                    bm = grid.boundary_mass(closed)
                    if bm > BOUNDARY_MASS_LIMIT:
                        raise ConfinementError(
                            "boundary mass %.3e at step %d: reflection, "
                            "grid too small" % (bm, j + 1)
                        )
                if want_dump:
                    dump((j + 1) * h, closed)
            kernels.apply_phase_table(psi_k, kin_full)

    nrm = float(np.sum(np.abs(psi) ** 2) * grid.dx)
    norms.append(nrm)
    drift = max(abs(v - 1.0) for v in norms)
    if drift > NORM_DRIFT_LIMIT:
        raise PropagationError("norm drift %.3e over the run" % drift)
    bm = grid.boundary_mass(psi)
    if bm > BOUNDARY_MASS_LIMIT:
        raise ConfinementError(
            "final boundary mass %.3e: reflection, grid too small" % bm
        )

    final = Wavefunction(grid=grid, values=psi / math.sqrt(nrm))
    if trajectory is not None:
        dump(T, final.values)
    steps = m + (1 if rem > 0.0 else 0)
    return PropagationReport(final_state=final, norm_drift=drift,
                             steps=steps, dt=dt)


def fidelity(psi: Wavefunction, target: Wavefunction) -> float:
    """|<target|psi>| - global-phase invariant, NOT squared."""
    if not psi.grid.same_as(target.grid):
        raise GridError("fidelity between states on different grids")
    return float(abs(np.sum(np.conj(target.values) * psi.values) * psi.grid.dx))


def superposition_fidelity(F0: float, Fn: float) -> float:
    """Best-over-relative-phase fidelity of (|0> + e^{i phi}|n>)/sqrt(2)
    preparation: the arithmetic mean (F0 + Fn) / 2."""
    for v in (F0, Fn):
        if not 0.0 <= v <= 1.0 + 1e-12:
            raise PropagationError("fidelity %r outside [0, 1]" % v)
    return 0.5 * (F0 + Fn)
