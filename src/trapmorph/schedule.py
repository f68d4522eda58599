"""Design of the time course A(t) for the trap deformation.

Three ramp designs over the same deformation path:

* FAQUAD - hold the multilevel adiabaticity parameter

      c = hbar Adot(t) * sum_m |<n|dH/dA|m>| / (E_n - E_m)^2

  constant along the whole ramp (sum over the four nearest neighbors
  m in {n-2, n-1, n+1, n+2}).  Writing g(A) for the sum, constancy means
  t(A) = (1/c) integral_{A0}^{A} g dA' with c fixed by t(Af) = t_f, so the
  ramp crawls through avoided crossings (large g) and sprints where the
  spectrum is stiff.

* Local Adiabatic - same construction with every matrix element replaced
  by 1: g_LA(A) = sum_m (E_n - E_m)^{-2}.  Gap-only heuristic.

* linear - A(t) = A0 + (Af - A0) t/t_f, the do-nothing baseline.

All designs produce the same Schedule type: monotone (t, A) samples plus a
monotone-cubic interpolant.  FAQUAD/LA profiles are t_f-independent; a
profile is computed once and inverted for each requested duration.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import FlatDirectionError, RegimeError, ScheduleError
from .eigen import couplings, eigensolve, levels_needed
from .grid import SpatialGrid
from .potential import DeformationPath

PROFILE_NODES_DEFAULT = 1024  # uniform start grid of every profile build
PROFILE_NODES_MAX = 64 * PROFILE_NODES_DEFAULT
QUADRATURE_REFINE_TOL = 0.01  # refine lambda grid until discrete c is flat to 1%
ENDPOINT_TOL = 1e-12
LINEAR_SAMPLES = 513


def _check_duration(t_f: float) -> None:
    if not (math.isfinite(t_f) and t_f > 0.0):
        raise ScheduleError("t_f must be positive and finite, got %r" % t_f)


@dataclass(frozen=True, eq=False)
class AdiabaticityProfile:
    """g(A) sampled on an ascending A-grid, plus its running integral.

    A freshly built profile also reports the work behind it: `evaluations`
    counts the eigensolves its build ran (a standalone build solves each
    node once; a build that shares another's node store solves only the
    nodes that one lacked, so it can report 0) and `max_deviation` is the
    largest midpoint deviation that the flatness test accepted.  Both are
    None on a profile read back from the cache.
    """

    lambda_grid: np.ndarray
    g: np.ndarray
    method: str  # 'faquad' | 'la'
    max_deviation: Optional[float] = None
    evaluations: Optional[int] = None
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam, g = self.lambda_grid, self.g
        if len(lam) != len(g) or len(lam) < 2:
            raise ScheduleError("profile arrays malformed")
        if np.any(np.diff(lam) <= 0.0):
            raise ScheduleError("lambda grid must be strictly ascending")
        if np.any(~np.isfinite(g)):
            raise FlatDirectionError("non-finite adiabaticity integrand")
        if np.any(g <= 0.0):
            raise FlatDirectionError(
                "adiabaticity integrand vanishes at A=%g; design ill-posed"
                % lam[int(np.argmin(g))]
            )
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(lam)))
        )
        object.__setattr__(self, "cumulative", cum)

    @property
    def integral(self) -> float:
        return float(self.cumulative[-1])

    @property
    def peak_lambda(self) -> float:
        return float(self.lambda_grid[int(np.argmax(self.g))])


PROFILE_METHODS = ("faquad", "la")  # column order of _g_values


def _g_pairs(path: DeformationPath, grid: SpatialGrid, n: int,
             lam: np.ndarray) -> np.ndarray:
    """(g_faquad, g_la) at each A in `lam`, one eigensolve per node.

    g is the sum of weight / gap^2 over the neighbours, the weight being
    the coupling for FAQUAD and 1 for LA, so one eigensolve gives both.
    """
    g = np.empty((len(lam), 2))
    for i, a in enumerate(lam):
        eig = eigensolve(path.params_at(a), grid, levels_needed(n),
                         refine=False)
        nc = couplings(eig, path, n)
        gap2 = nc.gaps**2
        g[i] = np.sum(nc.couplings / gap2), np.sum(1.0 / gap2)
    return g


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _this_cpu() -> Optional[int]:
    """The CPU the calling thread runs on; None where that is not known."""
    try:
        with open("/proc/thread-self/stat") as fp:
            # field 39, counting from the state that follows "(comm)"
            return int(fp.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


@contextlib.contextmanager
def _held_on_this_cpu():
    """Keep the calling thread on the CPU it runs on until the block ends,
    then give back its CPU mask; yields the other CPUs of the mask.

    A thread that sleeps while other processes work is woken by them, and
    the scheduler may move it to the CPU of the process that woke it.
    Held, the caller runs the code after the block where it ran the code
    before.  Where the mask or the CPU cannot be read or set, nothing is
    held and None is yielded.
    """
    here = _this_cpu()
    try:
        mask = os.sched_getaffinity(0)
        if here not in mask:
            raise ValueError(here)
        os.sched_setaffinity(0, {here})
    except (AttributeError, OSError, ValueError):
        yield None
        return
    try:
        yield mask - {here}
    finally:
        os.sched_setaffinity(0, mask)


def _run_on(cpus) -> None:
    """Worker initializer: move the worker onto `cpus`, if there are any
    and it may; otherwise it stays where it was forked."""
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _g_values(path: DeformationPath, grid: SpatialGrid, n: int,
              lam: np.ndarray, store: dict) -> np.ndarray:
    """(g_faquad, g_la) at each A in `lam`, one row per node.

    `store` maps each A already solved to its pair: a node found there is
    not solved again, and each new one is added.  The new nodes, in
    ascending A, are cut into contiguous chunks, one per CPU.  This
    process solves the first chunk with _g_pairs, held on the CPU it runs
    on, and a forked worker process on the other CPUs solves each other
    one; with one CPU, one new node or no fork start method, _g_pairs
    solves them all here.  The nodes are independent, so the pairs are
    the same either way, and a failure raises the error of the lowest
    failing new node.  Every worker has been joined, and this thread's
    CPU mask given back, when this returns or raises.
    """
    new = np.unique([a for a in lam if a not in store])
    workers = min(_cpus(), len(new))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # forked workers inherit the loaded modules: a pool starts in about
        # 20 ms, where spawned ones would each import numpy and scipy again
        first, *rest = np.array_split(new, workers)
        fork = multiprocessing.get_context("fork")
        with _held_on_this_cpu() as others, ProcessPoolExecutor(
                len(rest), mp_context=fork, initializer=_run_on,
                initargs=(others,)) as pool:
            chunks = [pool.submit(_g_pairs, path, grid, n, part)
                      for part in rest]
            pairs = np.concatenate([_g_pairs(path, grid, n, first)]
                                   + [chunk.result() for chunk in chunks])
    else:
        pairs = _g_pairs(path, grid, n, new)
    store.update(zip(new.tolist(), map(tuple, pairs.tolist())))
    return np.array([store[a] for a in lam])


def profile_column(method: str) -> int:
    """Index of `method` in PROFILE_METHODS; ScheduleError if it has none."""
    if method not in PROFILE_METHODS:
        raise ScheduleError("unknown design method %r" % method)
    return PROFILE_METHODS.index(method)


def build_profile(path: DeformationPath, grid: SpatialGrid, n: int,
                  method: str = "faquad",
                  store: Optional[dict] = None) -> AdiabaticityProfile:
    """Sample the adiabaticity integrand over [A0, Af].

    The A-grid starts with PROFILE_NODES_DEFAULT uniform points.  Each
    interval is then tested at its midpoint: the discrete adiabaticity
    (slope times midpoint g) must agree with the trapezoid mean to 1%, i.e.
    a schedule built from the samples must realize a flat c there.  Every
    midpoint becomes a node; only the two halves of an interval that failed
    are tested again, until none fails.  An under-resolved avoided-crossing
    peak therefore cannot silently skew the design, and the stiff rest of
    the path costs no further eigensolves.  ScheduleError is raised before
    a round of tests would take the node count over PROFILE_NODES_MAX.

    Each node's eigensolve yields the g of both methods.  `store` (A ->
    (g_faquad, g_la)) keeps them: hand the store of one build to the
    other method's build on the same path, grid and n, and that build
    solves only the nodes the first lacked.  Its refinement, node set and
    result are exactly those of a standalone build.
    """
    column = profile_column(method)
    store = {} if store is None else store
    solved = len(store)

    lam = np.linspace(path.A0, path.Af, PROFILE_NODES_DEFAULT)
    g = _g_values(path, grid, n, lam, store)[:, column]
    lams, gs = [lam], [g]
    # intervals still to test: left/right ends and their g
    a, b, ga, gb = lam[:-1], lam[1:], g[:-1], g[1:]
    count, worst = len(lam), 0.0
    while len(a):
        if count + len(a) > PROFILE_NODES_MAX:
            raise ScheduleError(
                "adiabaticity profile still varies by more than %.2g%% on %d "
                "intervals at %d nodes; peak too sharp for the node cap"
                % (100 * QUADRATURE_REFINE_TOL, len(a), count))
        mid = 0.5 * (a + b)
        g_mid = _g_values(path, grid, n, mid, store)[:, column]
        lams.append(mid)
        gs.append(g_mid)
        count += len(mid)
        # On an inverted schedule dt_j = dA_j * (g_j + g_{j+1})/2 / c, so
        # c_j/c = g(midpoint) / pair mean; flat to tolerance <=> converged.
        dev = np.abs(g_mid / (0.5 * (ga + gb)) - 1.0)
        ok = dev <= QUADRATURE_REFINE_TOL
        worst = max(worst, float(np.max(dev, where=ok, initial=0.0)))
        bad = ~ok
        a = np.concatenate((a[bad], mid[bad]))
        b = np.concatenate((mid[bad], b[bad]))
        ga = np.concatenate((ga[bad], g_mid[bad]))
        gb = np.concatenate((g_mid[bad], gb[bad]))
    # every computed node is kept
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    return AdiabaticityProfile(lam[order], np.concatenate(gs)[order], method,
                               max_deviation=worst,
                               evaluations=len(store) - solved)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Monotone sampled map t -> A over [0, t_f] together with its path.

    `c` is the realized adiabaticity constant (None for linear ramps).
    Evaluation between samples uses monotone piecewise-cubic interpolation,
    which cannot overshoot [A0, Af].
    """

    path: DeformationPath
    t_f: float
    times: np.ndarray
    A_values: np.ndarray
    method: str
    c: Optional[float] = None
    _forward: Optional["Schedule"] = field(default=None, repr=False, compare=False)
    _interp: PchipInterpolator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, A = self.times, self.A_values
        if len(t) != len(A) or len(t) < 2:
            raise ScheduleError("sample arrays malformed")
        _check_duration(self.t_f)
        if np.any(np.diff(t) <= 0.0):
            raise ScheduleError("sample times must be strictly increasing")
        dA = np.diff(A)
        if not (np.all(dA > 0.0) or np.all(dA < 0.0)):
            raise ScheduleError("A samples must be strictly monotone")
        if abs(t[0]) > ENDPOINT_TOL or abs(t[-1] - self.t_f) > ENDPOINT_TOL:
            raise ScheduleError("sample times must span [0, t_f] exactly")
        try:  # on mini the build overflows for t_f < ~1e-100 or > ~1e154
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                interp = PchipInterpolator(t, A)
            if not np.all(np.isfinite(interp.c)):  # backstop
                raise ValueError("interpolant coefficients are not finite")
        except (ValueError, FloatingPointError) as exc:
            raise ScheduleError("t_f=%r cannot be interpolated: %s"
                                % (self.t_f, exc)) from None
        object.__setattr__(self, "_interp", interp)

    def A_of_t(self, t):
        """Interpolated control value(s); clamped to the sampled range."""
        tt = np.clip(np.asarray(t, dtype=float), 0.0, self.t_f)
        return self._interp(tt)

    def reversed(self) -> "Schedule":
        """Time-mirrored schedule (demultiplexing direction).

        Reversing twice returns the original object, so the involution
        holds sample-for-sample despite floating-point subtraction.
        """
        if self._forward is not None:
            return self._forward
        return Schedule(
            path=self.path,
            t_f=self.t_f,
            times=(self.t_f - self.times)[::-1].copy(),
            A_values=self.A_values[::-1].copy(),
            method="reversed(%s)" % self.method,
            c=self.c,
            _forward=self,
        )

    # --- serialization -------------------------------------------------

    def to_text(self) -> str:
        buf = io.StringIO()
        p = self.path
        buf.write("# trapmorph schedule v1\n")
        buf.write("# method = %s\n" % self.method)
        buf.write("# t_f = %.17g\n" % self.t_f)
        buf.write("# c = %s\n" % ("none" if self.c is None else "%.17g" % self.c))
        buf.write("# path: %s\n" % ", ".join(
            "%s = %.17g" % (f.name, getattr(p, f.name)) for f in fields(p)))
        buf.write("# columns: t A\n")
        for t, a in zip(self.times, self.A_values):
            buf.write("%.17g %.17g\n" % (t, a))
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "Schedule":
        meta = {}
        ts, As = [], []
        try:
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("path:"):
                        for part in body[5:].split(","):
                            key, _, val = part.partition("=")
                            meta[key.strip()] = val.strip()
                    elif "=" in body:
                        key, _, val = body.partition("=")
                        meta[key.strip()] = val.strip()
                    continue
                t, a = line.split()
                ts.append(float(t))
                As.append(float(a))
            kinds = get_type_hints(DeformationPath)  # float, or int for n_target
            path = DeformationPath(**{f.name: kinds[f.name](meta[f.name])
                                      for f in fields(DeformationPath)})
            c = None if meta.get("c", "none") == "none" else float(meta["c"])
            return cls(path=path, t_f=float(meta["t_f"]), times=np.array(ts),
                       A_values=np.array(As), method=meta.get("method", "?"), c=c)
        except (KeyError, ValueError, RegimeError) as exc:
            raise ScheduleError("unparseable schedule text: %s" % exc) from exc


def invert_profile(profile: AdiabaticityProfile, path: DeformationPath,
                   t_f: float) -> Schedule:
    """Constant-c schedule from a profile: t(A) = (1/c) int_A0^A g dA'.

    c = (int g dA) / t_f is returned on the schedule; doubling t_f halves
    c and stretches the same shape (self-similarity is exact here by
    construction, the samples are shared up to the time scaling).
    """
    _check_duration(t_f)
    c = profile.integral / t_f
    times = profile.cumulative / c
    times[-1] = t_f  # guard the endpoint against quadrature round-off
    return Schedule(path=path, t_f=t_f, times=times,
                    A_values=profile.lambda_grid.copy(),
                    method=profile.method, c=c)


def linear_schedule(path: DeformationPath, t_f: float) -> Schedule:
    _check_duration(t_f)
    s = np.linspace(0.0, 1.0, LINEAR_SAMPLES)
    return Schedule(path=path, t_f=t_f, times=s * t_f,
                    A_values=path.A0 + (path.Af - path.A0) * s,
                    method="linear", c=None)


def discrete_adiabaticity(schedule: Schedule, g_midpoints: np.ndarray) -> np.ndarray:
    """Per-interval c_j = |dA/dt| * g at interval midpoints.

    `g_midpoints` must hold the integrand evaluated at the A midpoint of
    each consecutive sample pair; constancy of the result (to ~1%) is the
    defining property of a FAQUAD/LA schedule.
    """
    dA = np.diff(schedule.A_values)
    dt = np.diff(schedule.times)
    return np.abs(dA / dt) * g_midpoints
