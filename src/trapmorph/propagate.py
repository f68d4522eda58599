"""Time-dependent Schrödinger integration under a deformation schedule.

Strang split-operator stepping on the FFT grid:

    psi(t+dt) = K(dt/2) V(t+dt/2) K(dt/2) psi(t) + O(dt^3)

with K the kinetic phase in momentum space and V the potential phase with
coefficients sampled at the step midpoint (keeps second order for a
time-dependent Hamiltonian).  Adjacent half-kinetic factors of consecutive
steps are merged, so the loop costs two FFTs per step; when t_f is not a
multiple of dt, one unmerged step of the remainder lands exactly on t_f.
Every step is unitary up to rounding, which the norm checkpoints verify
rather than enforce.

One call steps a stack of states on one grid, each under its own drive,
in lock-step as the rows of one (rows, n) array: the transforms run along
the last axis, and a single state is the stack of one row.  Rows are
sorted by step count, so the rows still stepping are always a prefix;
the shortest retire as they finish, each taking its remainder step
alone.  The midpoint coefficients are evaluated per block of at most
CHECK_STRIDE steps, once per distinct drive, and the checks run per row:
a row that fails one is retired with its error and the others go on.

The transforms are `scipy.fft` calls that overwrite the state buffer the
call owns.  The potential phase is split in two: the odd bias factor
exp(-i h C x) is a table per row, built once like the kinetic tables,
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
from .errors import (ConfinementError, GridError, PropagationError,
                     TrapMorphError)
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
    wall_s: float  # from the start of the propagate call to this state's end


@dataclass(frozen=True, eq=False)
class StackReport:
    """What propagating a stack of states did.

    rows: per state, in the order given, its PropagationReport or the
    exception that retired it.  steps: the state-steps of the rows that
    finished.  wall_s: wall time of the propagate call."""

    rows: tuple
    steps: int
    wall_s: float


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


@dataclass(eq=False)
class _Row:
    """One state of a stack: its drive, whole steps m, remainder rem and
    the largest norm drift its checks have seen."""

    index: int
    drive: Drive
    m: int
    rem: float
    drift: float = 0.0

    def check(self, grid: SpatialGrid, t: float, state) -> float:
        """Norm of the state at t; fails on drift, edge mass and NaN."""
        nrm = float(np.sum(np.abs(state) ** 2) * grid.dx)
        err = abs(nrm - 1.0)
        self.drift = max(self.drift, err)
        if not err <= NORM_DRIFT_LIMIT:
            raise PropagationError("norm drift %.3e at t = %.12g" % (err, t))
        bm = grid.boundary_mass(state)
        if not bm <= BOUNDARY_MASS_LIMIT:
            raise ConfinementError("boundary mass %.3e at t = %.12g: "
                                   "reflection, grid too small" % (bm, t))
        return nrm


def propagate(psi0, drive, dt: float, on_row=None):
    """Integrate psi0 from t = 0 to the drive's t_f.

    drive: a Schedule, or a Drive (`Drive.static(params, t_f)` holds a
    fixed trap).  To sample the state along the way, say <x>(t) in a
    fixed trap, chain calls: each report's final_state is the next psi0.

    At the start, every CHECK_STRIDE steps and at the end, raises
    PropagationError when the norm drifts beyond 1e-8 or is not finite,
    and ConfinementError when probability accumulates at the grid edge
    (reflection).  A dt outside (0, STEP_LIMIT / max(1, omega_max)],
    NaN included, raises PropagationError before any step.

    Stacked form: psi0 a sequence of states on one grid and drive a
    matching sequence of drives.  They step in lock-step and a
    StackReport comes back: a row that fails any of the checks above is
    retired with its error, and the other rows go on.  on_row(i, outcome),
    if given, is called as row i settles, with what StackReport.rows will
    hold for it; the shortest rows settle first.
    """
    if not isinstance(psi0, Wavefunction):
        return _propagate_stack(list(psi0), list(drive), dt, on_row)
    [out] = _propagate_stack([psi0], [drive], dt, on_row).rows
    if isinstance(out, Exception):
        raise out
    return out


def _remainder_step(psi, d: Drive, t0: float, h: float, x, u, k2):
    """One unmerged Strang step of length h from t0, for one state."""
    A, B = d.coeffs(np.array([t0 + 0.5 * h]))
    kin_half = np.exp(-0.25j * h * k2)
    psi = scipy.fft.fft(psi, overwrite_x=True)
    kernels.apply_phase_table(psi, kin_half)
    psi = scipy.fft.ifft(psi, overwrite_x=True)
    kernels.apply_quartic_phase(psi, u, np.empty(len(u), dtype=complex),
                                np.exp(-1j * h * d.C * x), A[0], B[0], h)
    psi = scipy.fft.fft(psi, overwrite_x=True)
    kernels.apply_phase_table(psi, kin_half)
    return scipy.fft.ifft(psi, overwrite_x=True)


def _block_coeffs(rows, s0: int, s1: int, dt: float):
    """Midpoint coefficients of steps s0 <= j < s1 for every row, shaped
    (s1 - s0, rows, 1), evaluated once per distinct drive and only up to
    each drive's last whole step; and {slot: exception} for the rows
    whose drive raised."""
    A = np.empty((s1 - s0, len(rows), 1))
    B = np.empty_like(A)
    slots = {}
    for slot, r in enumerate(rows):
        slots.setdefault(id(r.drive), []).append(slot)
    failed = {}
    for group in slots.values():
        r = rows[group[0]]
        t_mid = (np.arange(s0, min(s1, r.m)) + 0.5) * dt
        try:
            a, b = r.drive.coeffs(t_mid)
            A[:len(t_mid), group, 0] = a[:, None]
            B[:len(t_mid), group, 0] = b[:, None]
        except Exception as exc:  # retires this drive's rows, not the stack
            failed.update(dict.fromkeys(group, exc))
    return A, B, failed


def _propagate_stack(states, drives, dt: float, on_row=None) -> StackReport:
    start = time.perf_counter()
    if len(states) != len(drives):
        raise PropagationError("%d states but %d drives"
                               % (len(states), len(drives)))
    out = [None] * len(states)

    def settle(i, outcome):
        out[i] = outcome
        if on_row is not None:
            on_row(i, outcome)

    if not states:
        return StackReport((), 0, time.perf_counter() - start)
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise GridError("a stack's states must share one grid")
    x = grid.x
    u = kernels.mirror_half(x * x)
    k2 = grid.wavenumbers**2

    converted = {}  # one Drive per distinct drive object
    rows = []
    for i, (psi0, obj) in enumerate(zip(states, drives)):
        try:
            if id(obj) not in converted:
                converted[id(obj)] = _as_drive(obj)
            d = converted[id(obj)]
            dt_max = STEP_LIMIT / max(1.0, d.omega_max)
            if not 0.0 < dt <= dt_max:
                raise PropagationError("dt = %g outside (0, %g] for "
                                       "omega_max = %g"
                                       % (dt, dt_max, d.omega_max))
            m = int(math.floor(d.t_f / dt + 1e-9))
            rem = d.t_f - m * dt
            if rem < 1e-12 * max(1.0, d.t_f):
                rem = 0.0
            row = _Row(i, d, m, rem)
            row.check(grid, 0.0, psi0.values)
        except Exception as exc:  # the row's report is its error
            settle(i, exc)
            continue
        rows.append(row)

    def finish(row, psi):
        # psi: the row's state after its m whole steps, in position space;
        # a single step of the remainder lands it on t_f
        try:
            if row.rem > 0.0:
                psi = _remainder_step(psi, row.drive, row.m * dt, row.rem,
                                      x, u, k2)
            nrm = row.check(grid, row.drive.t_f, psi)
            final = Wavefunction(grid=grid, values=psi / math.sqrt(nrm))
        except Exception as exc:  # the row's report is its error
            settle(row.index, exc)
            return
        settle(row.index, PropagationReport(
            final_state=final, norm_drift=row.drift,
            steps=row.m + (1 if row.rem > 0.0 else 0),
            wall_s=time.perf_counter() - start))

    # the active rows are always a prefix: the longest first
    rows.sort(key=lambda r: -r.m)
    psi = np.array([states[r.index].values for r in rows], dtype=complex)
    k = sum(1 for r in rows if r.m > 0)
    for r, state in zip(rows[k:], psi[k:]):
        finish(r, state)
    rows, psi = rows[:k], psi[:k]
    odd = np.array([np.exp(-1j * dt * r.drive.C * x) for r in rows])
    e = np.empty((k, len(u)), dtype=complex)

    def drop(failed):
        # retire the rows at these slots with their errors; the others
        # keep their order, so the active rows stay a prefix
        nonlocal rows, psi, odd
        for slot, exc in failed.items():
            settle(rows[slot].index, exc)
        keep = [s for s in range(len(rows)) if s not in failed]
        rows = [rows[s] for s in keep]
        psi, odd = psi[keep], odd[keep]
        return keep

    def phase_operands(A, B):
        # the phase kernel's per-row operands, cut to the active rows; a
        # one-row stack hands over its row, since numpy's 1-D loops cost
        # less per call than the same work on a (1, n) array
        k = len(rows)
        if k == 1:
            return True, e[0], odd[0], A[:, 0, 0], B[:, 0, 0]
        return False, e[:k], odd, A[:, :k], B[:, :k]

    # psi alternates between position and momentum space; every call
    # takes the transform's result, which need not be its input buffer.
    # The kinetic tables are one (1, n) row that every row shares, so a
    # one-row stack multiplies two arrays of one shape, numpy's fast loop
    if rows:
        kin_full = np.exp(-0.5j * dt * k2)[None]
        kin_half = np.exp(-0.25j * dt * k2)[None]
        psi = scipy.fft.fft(psi, overwrite_x=True)
        kernels.apply_phase_table(psi, kin_half)
    s0 = 0
    while rows:
        s1 = min(s0 + CHECK_STRIDE, rows[0].m)
        A, B, failed = _block_coeffs(rows, s0, s1, dt)
        if failed:
            keep = drop(failed)
            A, B = A[:, keep], B[:, keep]
            if not rows:
                break
        end, (one, ek, oddk, Ak, Bk) = rows[-1].m, phase_operands(A, B)
        for j in range(s0, s1):
            psi = scipy.fft.ifft(psi, overwrite_x=True)
            kernels.apply_quartic_phase(psi[0] if one else psi, u, ek, oddk,
                                        Ak[j - s0], Bk[j - s0], dt)
            psi = scipy.fft.fft(psi, overwrite_x=True)
            if j + 1 == end:  # the shortest rows end here
                k = sum(1 for r in rows if r.m > end)
                tail = psi[k:]
                kernels.apply_phase_table(tail, kin_half)
                tail = scipy.fft.ifft(tail, overwrite_x=True)
                for r, state in zip(rows[k:], tail):
                    finish(r, state)
                rows, psi, odd = rows[:k], psi[:k], odd[:k]
                if not rows:
                    break
                end, (one, ek, oddk, Ak, Bk) = rows[-1].m, phase_operands(A, B)
            if j + 1 == s1:
                # checkpoint of the rows that go on: close the pending
                # half-kinetic on a copy, without breaking the merge
                probe = scipy.fft.ifft(psi * kin_half, overwrite_x=True)
                failed = {}
                for slot, (r, state) in enumerate(zip(rows, probe)):
                    try:
                        r.check(grid, (j + 1) * dt, state)
                    except TrapMorphError as exc:
                        failed[slot] = exc
                if failed:
                    drop(failed)
            kernels.apply_phase_table(psi, kin_full)
        s0 = s1

    steps = sum(r.steps for r in out if isinstance(r, PropagationReport))
    return StackReport(tuple(out), steps, time.perf_counter() - start)


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
