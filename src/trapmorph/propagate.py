"""Time-dependent Schrödinger integration under a deformation schedule.

Strang split-operator stepping on the FFT grid:

    psi(t+dt) = K(dt/2) V(t+dt/2) K(dt/2) psi(t) + O(dt^3)

with K the kinetic phase in momentum space and V the potential phase with
coefficients sampled at the step midpoint (keeps second order for a
time-dependent Hamiltonian).  `_strang` runs a block of steps from
position space back to position space, merging the half-kinetic factors
of adjacent steps inside the block, so a block of s steps costs 2s + 2
transforms.  When t_f is not a multiple of dt, a one-step block of the
remainder lands exactly on t_f.  Every step is unitary up to rounding,
which the norm checkpoints verify rather than enforce.

One call steps a stack of states on one grid, each under its own drive,
in lock-step as the rows of one (rows, n) array: the transforms run along
the last axis, and a single state is the stack of one row.  Rows are
sorted by step count, so the rows still stepping are always a prefix.  A
block ends at the next checkpoint (every CHECK_STRIDE steps) or where the
shortest row's whole steps end, whichever is first.  There, in position
space, the rows that end take their remainder step, the others are
checked if it is a checkpoint, and every row that failed is retired with
its error while the others go on.  The midpoint coefficients are
evaluated per block.

The transforms are `scipy.fftpack` calls that overwrite the state buffer
the call owns: the same pocketfft transforms as `scipy.fft`, without its
backend dispatch (about 2 us a call, a large share of a step at
n = 512).  `_strang` builds every table of its step length h: the
kinetic kicks, the odd bias factor exp(-i h C x) per row, and buffers
for the even factor exp(-i h (A x^2 + B x^4)), which is evaluated with
cos/sin on one mirror half of a grid symmetric about 0
(`kernels.mirror_half`).
The even factors depend only on the block's midpoint coefficients, not
on the state, so one helper thread, open for the length of the call,
computes them a chunk of about FACTOR_CHUNK_BYTES ahead, into one of
two buffers, while the calling thread runs the transforms and the
products of the chunk before.  numpy's cos/sin and the transforms
release the GIL, so the two overlap; the products, and so the states,
are the same bit for bit as with the factors computed in the step loop.

Fidelity here is the modulus |<target|psi>| - not its square.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fftpack

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
FACTOR_CHUNK_BYTES = 1 << 20  # even phase factors computed per helper call


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


def _strang(psi, h: float, A, B, C, grid: SpatialGrid, pool):
    """len(A) >= 1 Strang steps of length h of the stack psi (rows, n),
    from position space back to position space: the half kicks of
    adjacent steps are merged, so the call costs two transforms per step
    and two more.

    Step j's midpoint coefficients are A[j], B[j], one per row; C holds
    each row's bias coefficient.  Builds every table h sets: the kinetic
    kicks, each row's bias factor exp(-i h C x), and two buffers of
    about FACTOR_CHUNK_BYTES (at most len(A) steps) into which pool's
    thread computes a chunk's even factors while the chunk before steps
    here.  May overwrite psi's buffer; returns the last transform's
    result, which need not be psi."""
    x = grid.x
    u = kernels.mirror_half(x * x)
    k2 = grid.wavenumbers**2
    kin_half = np.exp(-0.25j * h * k2)
    kin_full = np.exp(-0.5j * h * k2)
    odd = np.array([np.exp(-1j * h * c * x) for c in C])
    A = np.reshape(A, (len(A), len(psi), 1))
    B = np.reshape(B, A.shape)
    if len(psi) == 1:  # 1-D loops cost less per call than (1, n) ones
        psi, A, B, odd = psi[0], A[:, 0], B[:, 0], odd[0]
    shape = psi.shape[:-1] + u.shape  # one step's even factors
    size = math.prod(shape)
    per = max(1, min(FACTOR_CHUNK_BYTES // (16 * size), len(A)))
    bufs = np.empty((2, per * size), dtype=complex)
    chunks = [(j, min(j + per, len(A))) for j in range(0, len(A), per)]

    def submit(c):
        j0, j1 = chunks[c]
        e = bufs[c % 2][:(j1 - j0) * size].reshape((j1 - j0,) + shape)
        return e, pool.submit(kernels.quartic_factors, e, u, A[j0:j1],
                              B[j0:j1], h)

    pending = submit(0)
    psi = scipy.fftpack.fft(psi, overwrite_x=True)
    kernels.apply_phase_table(psi, kin_half)
    last = len(A) - 1
    for c, (j0, j1) in enumerate(chunks):
        e, done = pending
        done.result()
        if c + 1 < len(chunks):
            pending = submit(c + 1)
        for j in range(j0, j1):
            psi = scipy.fftpack.ifft(psi, overwrite_x=True)
            kernels.apply_quartic_phase(psi, u, e[j - j0], odd)
            psi = scipy.fftpack.fft(psi, overwrite_x=True)
            kernels.apply_phase_table(psi, kin_half if j == last else kin_full)
    return scipy.fftpack.ifft(psi, overwrite_x=True).reshape(-1, grid.n)


def _block_coeffs(rows, s0: int, s1: int, dt: float):
    """Midpoint coefficients of steps s0 <= j < s1 for every row, shaped
    (s1 - s0, rows, 1); and {slot: exception} for the rows whose drive
    raised, which get zeros."""
    A = np.zeros((s1 - s0, len(rows), 1))
    B = np.zeros_like(A)
    failed = {}
    t_mid = (np.arange(s0, s1) + 0.5) * dt
    for slot, r in enumerate(rows):
        try:
            A[:, slot, 0], B[:, slot, 0] = r.drive.coeffs(t_mid)
        except Exception as exc:  # retires this row, not the stack
            failed[slot] = exc
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

    rows = []
    for i, (psi0, obj) in enumerate(zip(states, drives)):
        try:
            d = _as_drive(obj)
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
                d, h = row.drive, row.rem
                A, B = d.coeffs(np.array([row.m * dt + 0.5 * h]))
                [psi] = _strang(psi[None], h, A, B, [d.C], grid, pool)
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
    s0 = 0
    # the helper thread is joined before the call returns or raises
    with ThreadPoolExecutor(1) as pool:
        while rows:
            # a block ends at the next checkpoint or where the shortest
            # row's whole steps end, so no active row ends inside one
            stop = (s0 // CHECK_STRIDE + 1) * CHECK_STRIDE
            s1 = min(stop, rows[-1].m)
            A, B, failed = _block_coeffs(rows, s0, s1, dt)
            if s1 > s0:
                psi = _strang(psi, dt, A, B, [r.drive.C for r in rows], grid,
                              pool)
            keep = []
            for slot, (r, state) in enumerate(zip(rows, psi)):
                if slot in failed:
                    settle(r.index, failed[slot])
                elif r.m == s1:
                    finish(r, state)
                elif s1 < stop:
                    keep.append(slot)
                else:  # a checkpoint
                    try:
                        r.check(grid, s1 * dt, state)
                        keep.append(slot)
                    except TrapMorphError as exc:
                        settle(r.index, exc)
            rows = [rows[s] for s in keep]
            psi = psi[keep]
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
