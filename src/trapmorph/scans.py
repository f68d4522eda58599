"""Presets and fidelity-vs-duration experiments.

Two presets ship with the package:

* mini  - dimensionless double well with separation D = 16 and ~8 quanta
          of depth per well.  Reproduces every qualitative phenomenon of
          the ion-trap setting (level ordering, avoided-crossing
          bottleneck, FAQUAD-vs-linear separation, superposition
          protocol) in CI-scale runtimes.
* beryllium - the 9.012 u ion trap (alpha0 = -4.7 pN/m, beta0 = 0.052 N/m^3,
          bias and switch constants to match), stored in SI and converted
          at load.  Scans here run for minutes, not seconds; the test
          suite gates them behind TRAPMORPH_FULL_SCALE=1.

A scan designs one schedule shape per method (FAQUAD/LA profiles are
t_f-independent) and propagates the target eigenstate - optionally also
the ground state, for the superposition protocol - across a list of
durations, recording fidelities against the final-trap eigenstates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .eigen import eigensolve, levels_needed
from .errors import TrapMorphError, UsageError
from .grid import SpatialGrid
from .potential import DeformationPath, path_for_target
from .propagate import Wavefunction, fidelity, propagate, superposition_fidelity
from .schedule import (PROFILE_METHODS, Schedule, invert_profile,
                       linear_schedule)
from .cache import cached_profile
from .units import UnitSystem, beryllium_units

METHODS = PROFILE_METHODS + ("linear",)


@dataclass(frozen=True)
class Preset:
    """A ready-to-run configuration: path, grid, stepping and scan window."""

    name: str
    units: Optional[UnitSystem]  # None = dimensionless
    path: DeformationPath
    grid: SpatialGrid
    dt: float
    tf_window: tuple  # (lo, hi) in internal units

    @property
    def n_target(self) -> int:
        return self.path.n_target

    @property
    def k(self) -> int:
        """Levels to solve: 0 ... n_target + 2, as `eigen.couplings` needs."""
        return levels_needed(self.path.n_target)

    @property
    def time_to_SI(self) -> float:
        """Seconds per internal time unit (1.0 for dimensionless presets)."""
        return self.units.time_unit if self.units is not None else 1.0


def mini_preset(n_target: int = 2) -> Preset:
    """Dimensionless desk-scale preset.

    B0 = 0.5/256 makes the well separation exactly D = 16 and the relative
    well depth A0^2/(4 B0) = 8 quanta; the n = 2 bias is then exactly
    C = 1.5/16 = 0.09375.  The logistic switch constant follows the
    kappa = 100/(A0 - Af) convention of the reference trap.
    """
    A0, Af = -0.25, 0.5
    B0 = 0.5 / 256.0
    path = path_for_target(A0, B0, kappa=100.0 / (A0 - Af), eps=0.05,
                           n_target=n_target)
    return Preset(
        name="mini",
        units=None,
        path=path,
        grid=SpatialGrid(-20.0, 20.0, 512),
        dt=0.005,
        tf_window=(10.0, 2000.0),
    )


def beryllium_preset(n_target: int = 4) -> Preset:
    """SI ion-trap preset, converted to internal units at load.

    alpha0 = -4.7 pN/m and M = 9.012 u give omega_ref/2pi ~ 5.64 MHz and a
    well separation D0 ~ 13.45 um (~953 internal lengths); the switch
    center eps = 1 pN/m and steepness kappa = -7.092 m/pN convert to
    ~0.0532 and ~-133.3.  Durations are internal; one unit is ~28.2 ns.
    """
    units = beryllium_units()
    A0 = units.alpha_to_dim(units.alpha0_SI)  # -0.25 up to rounding
    B0 = units.beta_to_dim(0.052)
    eps = units.alpha_to_dim(1.0e-12)
    # kappa multiplies an alpha-difference, so it converts inversely
    kappa = -7.092e12 / units.alpha_to_dim(1.0)
    path = path_for_target(A0, B0, kappa=kappa, eps=eps, n_target=n_target)
    window = (20e-6 / units.time_unit, 200e-6 / units.time_unit)
    return Preset(
        name="beryllium",
        units=units,
        path=path,
        grid=SpatialGrid(-1100.0, 1100.0, 16384),
        dt=0.2,
        tf_window=window,
    )


PRESETS: dict = {"mini": mini_preset, "beryllium": beryllium_preset}


def get_preset(name: str, n_target: Optional[int] = None) -> Preset:
    """The named preset, retargeted to level n_target >= 1 when given."""
    if n_target is not None and n_target < 1:
        raise UsageError("target level must be >= 1, got %d" % n_target)
    try:
        factory = PRESETS[name]
    except KeyError:
        raise UsageError("unknown preset %r (have: %s)"
                         % (name, ", ".join(sorted(PRESETS)))) from None
    return factory() if n_target is None else factory(n_target)


def default_tf_grid(preset: Preset) -> np.ndarray:
    """16 log-spaced scan durations over the preset's window."""
    lo, hi = preset.tf_window
    return np.geomspace(lo, hi, 16)


@dataclass(frozen=True)
class ScanRow:
    """One duration of a scan.  steps and norm_drift: the state-steps its
    propagations took and the largest norm drift they saw."""

    t_f: float
    F_n: float = math.nan
    F_0: float = math.nan
    F_avg: float = math.nan
    c: float = math.nan
    error: Optional[str] = None
    steps: int = 0
    norm_drift: float = math.nan


@dataclass(frozen=True)
class ScanResult:
    preset: Preset
    method: str
    rows: tuple

    def best_row(self) -> ScanRow:
        ok = [r for r in self.rows if r.error is None]
        if not ok:
            raise TrapMorphError("scan produced no successful rows")
        return max(ok, key=lambda r: r.F_n)

    def threshold_tf(self, level: float = 0.9) -> float:
        """Smallest scanned t_f with F_n >= level (nan if never reached)."""
        for r in self.rows:
            if r.error is None and r.F_n >= level:
                return r.t_f
        return math.nan


def _endpoint_pairs(preset: Preset, levels: Sequence[int]) -> list:
    """(initial-trap, final-trap) eigenstate pairs, one per level."""
    eig0 = eigensolve(preset.path.initial, preset.grid, preset.k, refine=False)
    eigf = eigensolve(preset.path.final, preset.grid, preset.k, refine=False)
    return [(Wavefunction.from_eigenstate(eig0, j),
             Wavefunction.from_eigenstate(eigf, j)) for j in levels]


def schedule_factory(preset: Preset, method: str,
                     cache_dir: Optional[str] = None) -> Callable[[float], Schedule]:
    """t_f -> Schedule for one of METHODS; a FAQUAD/LA profile is looked
    up (or built) once, here."""
    if method == "linear":
        return lambda tf: linear_schedule(preset.path, tf)
    if method in PROFILE_METHODS:
        profile = cached_profile(preset.path, preset.grid, preset.n_target,
                                 method=method, directory=cache_dir)
        return lambda tf: invert_profile(profile, preset.path, tf)
    raise UsageError("unknown method %r (have: %s)" % (method, ", ".join(METHODS)))


def _final_fidelities(jobs, dt: float, on_job=None) -> list:
    """For each ((psi0, target), schedule) job, in order: (F, report) for
    psi0 propagated under the schedule and scored against target, or the
    exception that ended that propagation.  on_job(j, outcome), if given,
    sees each job's outcome as soon as it is known.

    Every propagation of an experiment goes through here, as one stack."""
    outcomes = [None] * len(jobs)

    def settle(j, rep):
        target = jobs[j][0][1]
        outcomes[j] = (rep if isinstance(rep, Exception)
                       else (fidelity(rep.final_state, target), rep))
        if on_job is not None:
            on_job(j, outcomes[j])

    propagate([psi0 for (psi0, _), _ in jobs],
              [sched for _, sched in jobs], dt, on_row=settle)
    return outcomes


def _checked_durations(t_f_list: Sequence[float]) -> list:
    """The durations in ascending order; UsageError unless there is at
    least one and every one is positive and finite."""
    tfs = sorted(float(t) for t in t_f_list)
    if not tfs or not all(math.isfinite(t) and t > 0.0 for t in tfs):
        raise UsageError("t_f list must be non-empty, positive and finite")
    return tfs


def run_scan(preset: Preset, method: str, t_f_list: Sequence[float],
             include_ground: bool = False,
             cache_dir: Optional[str] = None,
             progress: Optional[Callable[[ScanRow], None]] = None) -> ScanResult:
    """Fidelity of the target state vs duration.

    include_ground=True also propagates |0> under the same schedule and
    records F_0 and the superposition fidelity (F_0 + F_n)/2.  Every
    state of every row steps in lock-step as one stack, and rows retire
    from it shortest first: `progress` sees each row once, in ascending
    t_f, as soon as that row and every shorter one are done.  A row that
    fails is recorded as failed (trapmorph errors by message, anything
    else as "<Type>: <message>") and the scan continues.
    """
    tfs = _checked_durations(t_f_list)
    make_schedule = schedule_factory(preset, method, cache_dir)
    levels = (preset.n_target, 0) if include_ground else (preset.n_target,)
    pairs = _endpoint_pairs(preset, levels)
    scheds = []
    for tf in tfs:
        try:
            scheds.append(make_schedule(tf))
        except Exception as exc:  # one bad row must not end the scan
            scheds.append(exc)
    # job j of the stack is state slots[j] = (row, pair) of a row that
    # has a schedule
    slots = [(i, k) for i, s in enumerate(scheds)
             if not isinstance(s, Exception) for k in range(len(pairs))]
    jobs = [(pairs[k], scheds[i]) for i, k in slots]
    outs = [[] if isinstance(s, Exception) else [None] * len(pairs)
            for s in scheds]
    rows = []
    reporting = False

    def report_done():
        nonlocal reporting
        while len(rows) < len(tfs) and None not in outs[len(rows)]:
            i = len(rows)
            rows.append(_scan_row(tfs[i], scheds[i], outs[i]))
            if progress is not None:
                reporting = True
                progress(rows[i])
                reporting = False

    def settle(j, outcome):
        i, k = slots[j]
        outs[i][k] = outcome
        report_done()

    report_done()
    try:
        _final_fidelities(jobs, preset.dt, settle)
    except Exception as exc:  # fails every job the stack had not settled
        if reporting:  # raised by progress: that ends the scan
            raise
        for j, (i, k) in enumerate(slots):
            if outs[i][k] is None:
                settle(j, exc)
    return ScanResult(preset, method, tuple(rows))


def _scan_row(tf: float, sched, outs) -> ScanRow:
    """The row of one duration, from its schedule (or the exception that
    building it raised) and its jobs' outcomes, |n> first, then |0> for a
    superposition scan.  The first exception among them fails the row."""
    try:
        for out in [sched, *outs]:
            if isinstance(out, Exception):
                raise out
        (F_n, _), *ground = outs
        row = ScanRow(t_f=tf, F_n=F_n,
                      c=math.nan if sched.c is None else sched.c,
                      steps=sum(rep.steps for _, rep in outs),
                      norm_drift=max(rep.norm_drift for _, rep in outs))
        if ground:
            [(F_0, _)] = ground
            row = replace(row, F_0=F_0, F_avg=superposition_fidelity(F_0, F_n))
        return row
    except TrapMorphError as exc:
        return ScanRow(t_f=tf, error=str(exc))
    except Exception as exc:  # one bad row must not end the scan
        return ScanRow(t_f=tf, error="%s: %s" % (type(exc).__name__, exc))


def on_step_grid(t_f: float, dt: float) -> float:
    """t_f rounded to a whole number of dt steps, at least one."""
    return max(1, round(t_f / dt)) * dt


def run_demultiplexing(preset: Preset, method: str, t_f: float,
                       cache_dir: Optional[str] = None):
    """(F_forward, F_backward): morph double well -> harmonic with |n>,
    then harmonic -> double well under the reversed schedule, both at
    on_step_grid(t_f, dt) so that the backward steps retrace the forward.
    Rejects t_f as run_scan rejects a bad duration."""
    [t_f] = _checked_durations([t_f])
    sched = schedule_factory(preset, method, cache_dir)(
        on_step_grid(t_f, preset.dt))
    [pair] = _endpoint_pairs(preset, [preset.n_target])
    outs = _final_fidelities([(pair, sched), (pair[::-1], sched.reversed())],
                             preset.dt)
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return tuple(F for F, _ in outs)


CSV_HEADER = "t_f,F_n,F_0,F_avg,c"


def _fmt(v: float) -> str:
    return "" if (isinstance(v, float) and math.isnan(v)) else "%.12g" % v


def csv_preamble(preset: Preset, method: str) -> str:
    """The comment line naming the scan and t_f's unit, then the header."""
    unit = "s" if preset.units is not None else "dimensionless"
    return ("# trapmorph scan: preset=%s method=%s n=%d t_f_unit=%s\n"
            % (preset.name, method, preset.n_target, unit)) + CSV_HEADER + "\n"


def csv_row_line(row: ScanRow, t_scale: float) -> str:
    """One CSV line (or '#' comment for a failed row), newline-terminated."""
    if row.error is not None:
        return "# t_f=%.12g failed: %s\n" % (row.t_f * t_scale, row.error)
    return ",".join([
        _fmt(row.t_f * t_scale), _fmt(row.F_n), _fmt(row.F_0),
        _fmt(row.F_avg), _fmt(row.c),
    ]) + "\n"


def emit_csv(result: ScanResult, fp) -> None:
    """Write a scan as CSV: fixed column order, 12 significant digits,
    SI presets emit t_f in seconds (unit recorded in the comment line).
    Failed rows become '#' comment lines so the data columns stay clean."""
    fp.write(csv_preamble(result.preset, result.method))
    for r in result.rows:
        fp.write(csv_row_line(r, result.preset.time_to_SI))


def read_csv(fp):
    """Parse emit_csv output back into (header_meta, list of row tuples)."""
    meta = None
    rows = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if meta is None:
                meta = line[1:].strip()
            continue
        if line == CSV_HEADER:
            continue
        vals = [float(v) if v else math.nan for v in line.split(",")]
        rows.append(tuple(vals))
    return meta, rows


def emit_plot_script(csv_path: str, fp, title: str = "fidelity vs t_f") -> None:
    """gnuplot command file rendering F_n (and F_0 when present)."""
    fp.write("set datafile separator ','\n")
    fp.write("set logscale x\n")
    fp.write("set xlabel 't_f'\nset ylabel 'fidelity'\n")
    fp.write("set title '%s'\n" % title)
    fp.write("set yrange [0:1.05]\n")
    fp.write("plot '%s' using 1:2 with linespoints title 'F_n', \\\n"
             "     '%s' using 1:3 with linespoints title 'F_0'\n"
             % (csv_path, csv_path))
