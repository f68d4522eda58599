"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload reaches trapmorph through public functions looked up on
their defining modules at call time (``_mod("cache").cached_profile``), so
the tracer's wrappers see every call.  The seed only picks inputs: the
durations t_f (stratified log-uniform in the workload's window, drawn as
antithetic pairs inside each stratum so that the total work barely moves
with the seed), the row checked against the reference propagator and the
profile intervals whose adiabaticity is re-evaluated.

A workload runs `setup` (ready to time), then timed passes over the same
inputs, then `check` once on the outputs of the first pass.  Each pass
returns lists of samples: design times, scan times (ramps and
propagations) and state-steps propagated per second of propagation.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np
import trapmorph.cli  # noqa: F401  (not imported by the package itself)

import reference

FIDELITY_TOL = 1e-12  # reported F against the benchmark's own overlap
REFERENCE_OVERLAP_TOL = 1e-9  # 1 - |<psi_ref|psi>| after a whole ramp
REFERENCE_F_TOL = 1e-9
REFERENCE_X_TOL = 1e-7  # |<x> - <x>_ref| as a share of the grid length
NORM_TOL = 1e-10
FLATNESS_TOL = 0.01  # discrete adiabaticity flat to 1%
G_NODE_RTOL = 1e-6  # profile g against the independent re-evaluation
DEMUX_TOL = 1e-6
PLATEAU_F = 0.99


def _mod(name):
    return sys.modules["trapmorph." + name]


def stratified_log_uniform(rng, lo, hi, strata, pairs=True):
    """One draw (or an antithetic pair u, 1 - u) per log-spaced stratum."""
    edges = np.geomspace(lo, hi, strata + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        u = rng.random()
        for v in ((u, 1.0 - u) if pairs else (u,)):
            out.append(float(a * (b / a) ** v))
    return sorted(out)


def on_step_grid(t, dt):
    """Round a duration to a whole number of steps (so demultiplexing
    retraces the forward steps exactly)."""
    return round(t / dt) * dt


class Ops:
    """Ledger of attempted operations and of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed_ids = set()
        self.failures = []

    def run(self, label, fn, *args, **kwargs):
        """Attempt one operation; returns (op id, result or None)."""
        self.attempted += 1
        op = self.attempted
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program counts
            self.fail(op, label, "%s: %s" % (type(exc).__name__, exc))
            return op, None

    def add(self, count=1):
        """Attempt `count` operations done in one call; returns their ids."""
        first = self.attempted + 1
        self.attempted += count
        return list(range(first, first + count))

    def fail(self, op, label, reason):
        self.failed_ids.add(op)
        if len(self.failures) < 50:
            self.failures.append("op %d (%s): %s" % (op, label, reason))

    def check(self, ok, op, label, reason):
        if not ok:
            self.fail(op, label, reason)
        return ok

    @property
    def failed(self):
        return len(self.failed_ids)


@dataclass
class Context:
    seed: int
    workdir: object  # pathlib.Path, fresh per run
    ops: Ops
    tracer: object
    steps: object  # spans.StepCounter
    tiny: bool = False
    dirs_made: int = field(default=0, init=False)

    def fresh_dir(self, stem):
        self.dirs_made += 1
        d = self.workdir / ("%s-%d" % (stem, self.dirs_made))
        d.mkdir(parents=True)
        return d


def _check_state(ops, op, label, rep, target, F):
    """Checks every propagation gets: norm, and F against own overlap."""
    psi = rep.final_state
    dx = psi.grid.dx
    ops.check(abs(reference.norm(psi.values, dx) - 1.0) <= NORM_TOL, op, label,
              "final state not normalized")
    ops.check(rep.norm_drift <= 1e-8, op, label,
              "norm drift %.3e" % rep.norm_drift)
    own = reference.overlap(target.values, psi.values, dx)
    ops.check(abs(F - own) <= FIDELITY_TOL, op, label,
              "fidelity %r but overlap %r" % (F, own))


def _check_against_reference(ops, op, label, sched, psi0, rep, target, F, dt):
    """Propagate the same row with the plain-numpy Strang reference and
    compare the final state, F and <x>."""
    grid = psi0.grid
    x = grid.x
    dx = grid.dx
    ref = reference.strang(psi0.values, x, sched.times, sched.A_values,
                           sched.path, dt, sched.t_f)
    ops.check(abs(reference.norm(ref, dx) - 1.0) <= 1e-9, op, label,
              "reference lost norm")
    got = rep.final_state.values
    ov = reference.overlap(ref, got, dx)
    ops.check(1.0 - ov <= REFERENCE_OVERLAP_TOL, op, label,
              "final state overlaps the reference by %r" % ov)
    F_ref = reference.overlap(target.values, ref, dx)
    ops.check(abs(F - F_ref) <= REFERENCE_F_TOL, op, label,
              "F = %r, reference F = %r" % (F, F_ref))
    mx, mx_ref = reference.mean_x(got, x, dx), reference.mean_x(ref, x, dx)
    ops.check(abs(mx - mx_ref) <= REFERENCE_X_TOL * (grid.x_max - grid.x_min),
              op, label, "<x> = %r, reference <x> = %r" % (mx, mx_ref))
    return {"F": F, "F_ref": F_ref, "mean_x": mx, "mean_x_ref": mx_ref,
            "overlap": ov}


def _endpoint_states(preset):
    eigensolve = _mod("eigen").eigensolve
    Wavefunction = _mod("propagate").Wavefunction
    eig0 = eigensolve(preset.path.initial, preset.grid, preset.k, refine=False)
    eigf = eigensolve(preset.path.final, preset.grid, preset.k, refine=False)
    n = preset.n_target
    return {j: (Wavefunction.from_eigenstate(eig0, j),
                Wavefunction.from_eigenstate(eigf, j)) for j in (n, 0)}


class Workload:
    name = ""
    jobs = 1
    # end-to-end figures taken during set-up, which every worker of an
    # untraced run repeats: the run reports their median over the workers
    setup_metrics = {}

    def __init__(self, ctx):
        self.ctx = ctx
        self.rng = np.random.default_rng(ctx.seed)
        self.first = None  # outputs of the first pass, for `check`


class DesignCold(Workload):
    """mini, n = 2: FAQUAD then LA profile into an empty cache, inversions
    at seeded durations, and the FAQUAD ramp propagated at a few short
    seeded durations so steps_per_s exists (about a fifth of the pass)."""

    name = "design-cold"
    # the scan part of a pass (about 1 s) is run this many times and its
    # median reported: one 1 s window spread by 30% between runs
    SCAN_BLOCKS = 5

    def __init__(self, ctx):
        super().__init__(ctx)
        self.invert_tfs = stratified_log_uniform(self.rng, 10.0, 2000.0, 4)
        strata = 1 if ctx.tiny else 3
        self.short_draws = stratified_log_uniform(self.rng, 10.0, 25.0, strata)
        self.ref_row = int(self.rng.integers(len(self.short_draws)))
        self.g_sample = self.rng.random(24)  # interval positions in [0, 1)

    def setup(self):
        preset = _mod("scans").get_preset("mini")
        if self.ctx.tiny:
            preset = replace(preset, grid=replace(preset.grid, n=256))
        self.preset = preset
        self.short_tfs = [on_step_grid(t, preset.dt) for t in self.short_draws]
        self.states = _endpoint_states(preset)

    def run_pass(self):
        ops, tr, p = self.ctx.ops, self.ctx.tracer, self.preset
        cache = self.ctx.fresh_dir("cache")
        t0 = time.perf_counter()
        with tr.span("bench.design"):
            designs = [ops.run("design " + method, _mod("cache").cached_profile,
                               p.path, p.grid, p.n_target, method=method,
                               directory=str(cache))
                       for method in ("faquad", "la")]
        t1 = time.perf_counter()
        entries = sorted(os.listdir(cache))
        for op_design, prof in designs:
            ops.check(len(entries) == 2, op_design, "design",
                      "expected 2 cache misses (2 new entries), found %d" % len(entries))
        scan_s, rates = [], []
        for _ in range(1 if self.ctx.tiny else self.SCAN_BLOCKS):
            rows, block_s, rate = self._scan_block(designs)
            scan_s.append(block_s)
            rates.append(rate)
            if self.first is None:
                self.first = (designs, rows)
        return {"design_s": [t1 - t0], "scan_s": scan_s, "steps_per_s": rates}

    def _scan_block(self, designs):
        """Both profiles inverted at every seeded t_f and the FAQUAD ramp
        propagated at the short ones; the outputs are checked after the
        timer stops.  Returns the rows, the block's wall time and its
        state-steps per second of propagation."""
        ops, tr, p = self.ctx.ops, self.ctx.tracer, self.preset
        invert = _mod("schedule").invert_profile
        inverted, rows = [], []
        steps0 = self.ctx.steps.steps
        t0 = time.perf_counter()
        with tr.span("bench.scan"):
            for _, prof in designs:
                for tf in self.invert_tfs:
                    inverted.append((ops.run("invert", invert, prof, p.path, tf), prof, tf))
            short = []
            for tf in self.short_tfs:
                op, sched = ops.run("invert", invert, designs[0][1], p.path, tf)
                inverted.append(((op, sched), designs[0][1], tf))
                short.append(sched)
            psi0, target = self.states[p.n_target]
            tp0 = time.perf_counter()
            for sched in short:
                op, rep = ops.run("propagate", _mod("propagate").propagate,
                                  psi0, sched, p.dt)
                F = None if rep is None else _mod("propagate").fidelity(rep.final_state, target)
                rows.append((op, sched, rep, F))
            t1 = time.perf_counter()
        rate = (self.ctx.steps.steps - steps0) / (t1 - tp0)

        for (op, sched), prof, tf in inverted:
            if sched is not None:
                self._check_schedule(op, sched, prof, tf)
        for op, sched, rep, F in rows:
            if rep is not None:
                _check_state(ops, op, "propagate", rep, target, F)
        return rows, t1 - t0, rate

    def _check_schedule(self, op, sched, prof, tf):
        ops, path = self.ctx.ops, self.preset.path
        ok = (sched.times[0] == 0.0 and sched.times[-1] == tf
              and sched.A_values[0] == path.A0 and sched.A_values[-1] == path.Af
              and np.all(np.diff(sched.times) > 0.0)
              and abs(sched.c * tf / prof.integral - 1.0) <= 1e-12)
        ops.check(ok, op, "invert", "schedule at t_f=%r malformed" % tf)

    def check(self, slow=False):
        ops, p = self.ctx.ops, self.preset
        designs, rows = self.first
        x = p.grid.x
        report = {}
        for (op, prof), method in zip(designs, ("faquad", "la")):
            if prof is None:
                continue
            sched = _mod("schedule").invert_profile(prof, p.path, 1.0)
            lam = prof.lambda_grid
            idx = sorted(set((self.g_sample * (len(lam) - 1)).astype(int).tolist()))
            worst_flat = worst_node = 0.0
            for j in idx:
                mid = 0.5 * (lam[j] + lam[j + 1])
                g_mid = reference.adiabaticity_integrand(p.path, x, p.n_target, mid, method)
                c_j = (lam[j + 1] - lam[j]) / (sched.times[j + 1] - sched.times[j]) * g_mid
                worst_flat = max(worst_flat, abs(c_j / sched.c - 1.0))
                g_node = reference.adiabaticity_integrand(p.path, x, p.n_target, lam[j], method)
                worst_node = max(worst_node, abs(prof.g[j] / g_node - 1.0))
            ops.check(worst_flat <= FLATNESS_TOL, op, "design " + method,
                      "discrete adiabaticity varies by %.3g%%" % (100 * worst_flat))
            ops.check(worst_node <= G_NODE_RTOL, op, "design " + method,
                      "profile g off the reference by %.3g" % worst_node)
            report[method] = {"nodes": len(lam), "flatness": worst_flat,
                              "g_rel_err": worst_node}
        op, sched, rep, F = rows[self.ref_row]
        if rep is not None:
            psi0, target = self.states[p.n_target]
            report["reference_row"] = dict(
                t_f=sched.t_f, **_check_against_reference(
                    ops, op, "propagate", sched, psi0, rep, target, F, p.dt))
        return report


class ScanWarm(Workload):
    """`trapmorph scan` in-process against a warm profile cache: one
    superposition scan over seeded durations, then one demultiplexing run
    at another seeded duration.

    The strata are the first STRATA intervals of the program's own default
    scan grid (16 log-spaced points over the preset's window, [10, 2000]),
    an antithetic pair per interval.  The seed hands one of the pair draws
    to the demux run (which, forward plus backward, costs what one
    superposition row costs) and the rest to the scan.  The upper part of
    the window is left out of the timed scan for cost: one superposition
    row at t_f = 2000 is 800 000 state-steps, about 50 s at n = 512 on
    one core of a 2.1 GHz x86_64 VM.  The
    traced run instead checks F_n there once (`check(slow=True)`)."""

    name = "scan-warm"
    jobs = 2
    STRATA = 5  # default-grid intervals [10, 58.5]: about 110 000 steps a pass

    def __init__(self, ctx):
        super().__init__(ctx)
        self.preset = _mod("scans").get_preset("mini")
        grid = _mod("scans").default_tf_grid(self.preset)
        strata = 1 if ctx.tiny else self.STRATA
        draws = stratified_log_uniform(self.rng, grid[0], grid[strata], strata)
        demux = int(self.rng.integers(len(draws)))
        dt = self.preset.dt
        self.demux_tf = on_step_grid(draws.pop(demux), dt)
        self.scan_tfs = [on_step_grid(t, dt) for t in draws]
        self.ref_row = int(self.rng.integers(len(self.scan_tfs)))

    def setup(self):
        preset = self.preset
        self.cache = self.ctx.fresh_dir("cache")
        self.csv = self.ctx.workdir / "scan.csv"
        t0 = time.perf_counter()
        self.ctx.ops.run("design faquad (cache warm-up)", _mod("cache").cached_profile,
                         preset.path, preset.grid, preset.n_target,
                         method="faquad", directory=str(self.cache))
        self.design_in_setup = time.perf_counter() - t0
        self.setup_metrics = {"design_s": self.design_in_setup}
        self.cache_state = self._cache_state()

    def _cache_state(self):
        return [(e, os.stat(self.cache / e).st_mtime_ns, os.stat(self.cache / e).st_size)
                for e in sorted(os.listdir(self.cache))]

    def _cli(self, argv):
        """(exit code, stdout, stderr) of `trapmorph` in this process; an
        exception escaping the CLI gives exit code None."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = _mod("cli").main(argv)
        except Exception as exc:  # the program failed: its operations fail
            return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
        return rc, out.getvalue(), err.getvalue()

    def _scan_argv(self, tfs, csv, superposition):
        return (["scan", "--preset", "mini", "--method", "faquad"]
                + (["--superposition", "--jobs", str(self.jobs)] if superposition else [])
                + ["--tf", ",".join(repr(t) for t in tfs),
                   "--cache-dir", str(self.cache), "--out", str(csv)])

    def run_pass(self):
        ops, tr = self.ctx.ops, self.ctx.tracer
        demux_argv = ["scan", "--preset", "mini", "--method", "faquad", "--demux",
                      "--tf", repr(self.demux_tf), "--cache-dir", str(self.cache)]
        row_ops = ops.add(len(self.scan_tfs))
        demux_op = ops.add()[0]
        steps0 = self.ctx.steps.steps
        t0 = time.perf_counter()
        with tr.span("bench.scan"):
            scan = self._cli(self._scan_argv(self.scan_tfs, self.csv, True))
            demux = self._cli(demux_argv)
        t1 = time.perf_counter()
        steps = self.ctx.steps.steps - steps0

        rows = self._check_scan(scan, row_ops, self.scan_tfs, self.csv)
        self._check_demux(demux, demux_op)
        if self._cache_state() != self.cache_state:
            for op in row_ops + [demux_op]:
                ops.fail(op, "scan", "profile cache was written: expected only hits")
        if self.first is None:
            self.first = (rows, row_ops)
        return {"design_s": [self.design_in_setup], "scan_s": [t1 - t0],
                "steps_per_s": [steps / (t1 - t0)]}

    def _check_scan(self, scan, row_ops, tfs, csv, superposition=True):
        """Checks on one CLI scan's CSV; returns {t_f: row} of its rows."""
        ops = self.ctx.ops
        rc, out, err = scan
        if rc != 0:
            for op in row_ops:
                ops.fail(op, "scan row", "cli exit %s: %s" % (rc, err.strip()[-200:]))
            return {}
        try:
            with open(csv) as fp:
                _, parsed = _mod("scans").read_csv(fp)
        except Exception as exc:
            for op in row_ops:
                ops.fail(op, "scan row", "unreadable CSV: %s: %s" % (type(exc).__name__, exc))
            return {}
        rows = {}
        for op, tf in zip(row_ops, tfs):
            match = [r for r in parsed if abs(r[0] / tf - 1.0) <= 1e-10]
            if not ops.check(len(match) == 1, op, "scan row",
                             "t_f=%r missing from the CSV (row failed?)" % tf):
                continue
            t, Fn, F0, Favg, c = match[0]
            rows[tf] = match[0]
            ops.check(0.0 <= Fn <= 1.0 + 1e-9, op, "scan row",
                      "F_n outside [0, 1] at t_f=%r" % tf)
            ops.check(c > 0.0, op, "scan row", "non-positive c at t_f=%r" % tf)
            if superposition:
                ops.check(0.0 <= F0 <= 1.0 + 1e-9, op, "scan row",
                          "F_0 outside [0, 1] at t_f=%r" % tf)
                ops.check(abs(Favg - 0.5 * (F0 + Fn)) <= 1e-11, op, "scan row",
                          "F_avg is not (F_0 + F_n)/2 at t_f=%r" % tf)
        # every FAQUAD row inverts the same profile: c * t_f is its integral
        cts = [r[4] * r[0] for r in rows.values()]
        if cts:
            for op, tf in zip(row_ops, tfs):
                if tf in rows:
                    ops.check(abs(rows[tf][4] * tf / cts[0] - 1.0) <= 1e-9, op,
                              "scan row", "c * t_f differs between rows")
        return rows

    def _check_demux(self, demux, op):
        ops = self.ctx.ops
        rc, out, err = demux
        if not ops.check(rc == 0, op, "demux", "cli exit %s: %s" % (rc, err.strip()[-200:])):
            return
        fields = dict(tok.split("=", 1) for tok in out.split() if "=" in tok)
        try:
            F_fwd, F_bwd = float(fields["F_forward"]), float(fields["F_backward"])
        except (KeyError, ValueError):
            ops.fail(op, "demux", "no F_forward/F_backward in %r" % out.strip()[-200:])
            return
        ops.check(abs(F_fwd - F_bwd) <= DEMUX_TOL, op, "demux",
                  "|F_forward - F_backward| = %.3e" % abs(F_fwd - F_bwd))
        ops.check(0.0 <= F_fwd <= 1.0 + 1e-9, op, "demux", "F_forward outside [0, 1]")

    def check(self, slow=False):
        """Re-propagate one seeded row through the public API (untimed) and
        hold it and the CLI's CSV fidelity against the reference.  With
        `slow`, also scan |n> alone at the window's longest t_f (400 000
        steps) and require F_n >= 0.99 there."""
        rows, row_ops = self.first
        report = {}
        tf = self.scan_tfs[self.ref_row]
        p = self.preset
        if tf in rows:
            prof = _mod("cache").cached_profile(p.path, p.grid, p.n_target,
                                                method="faquad", directory=str(self.cache))
            sched = _mod("schedule").invert_profile(prof, p.path, tf)
            psi0, target = _endpoint_states(p)[p.n_target]
            rep = _mod("propagate").propagate(psi0, sched, p.dt)
            F_csv = rows[tf][1]
            out = _check_against_reference(self.ctx.ops, row_ops[self.ref_row],
                                           "scan row", sched, psi0, rep, target, F_csv, p.dt)
            report["reference_row"] = dict(t_f=tf, **out)
        if slow and not self.ctx.tiny:
            end = float(p.tf_window[1])
            op = self.ctx.ops.add()[0]
            csv = self.ctx.workdir / "window-end.csv"
            end_rows = self._check_scan(self._cli(self._scan_argv([end], csv, False)),
                                        [op], [end], csv, superposition=False)
            if end in end_rows:
                Fn = end_rows[end][1]
                self.ctx.ops.check(Fn >= PLATEAU_F, op, "scan row",
                                   "F_n = %r < %g at the window's longest t_f" % (Fn, PLATEAU_F))
                report["window_end"] = {"t_f": end, "F_n": Fn}
        return report


class FullscaleLinear(Workload):
    """beryllium (n = 16384, dt = 0.2), linear ramp, |4,left> and |0,left>
    propagated one after the other at a seeded duration just above 20 us.

    Set-up solves the endpoints once, as every workload's set-up does, so
    any first-call cost of the n = 16384 solves counts in setup_s.  Each pass then
    designs the ramp cold: both endpoint eigensolves, then `linear_schedule`.
    Timing the 0.3 ms `linear_schedule` alone spread by 40% between runs on
    a shared 2-core machine, beyond any usable bound."""

    name = "fullscale-linear"

    def __init__(self, ctx):
        super().__init__(ctx)
        lo = 0.5e-6 if ctx.tiny else 20e-6
        self.tf_s = stratified_log_uniform(self.rng, lo, lo * 1.02, 1, pairs=False)[0]

    def setup(self):
        self.preset = preset = _mod("scans").get_preset("beryllium")
        self.tf = on_step_grid(self.tf_s / preset.units.time_unit, preset.dt)
        _endpoint_states(preset)

    def run_pass(self):
        ops, tr, p = self.ctx.ops, self.ctx.tracer, self.preset
        t0 = time.perf_counter()
        with tr.span("bench.design"):
            op_e, states = ops.run("endpoint eigensolves", _endpoint_states, p)
            op_s, sched = ops.run("linear ramp", _mod("schedule").linear_schedule,
                                  p.path, self.tf)
        t1 = time.perf_counter()
        steps0 = self.ctx.steps.steps
        rows = []
        with tr.span("bench.scan"):
            for j in (p.n_target, 0):
                psi0, target = states[j]
                op, rep = ops.run("propagate", _mod("propagate").propagate,
                                  psi0, sched, p.dt)
                F = None if rep is None else _mod("propagate").fidelity(rep.final_state, target)
                rows.append((op, j, rep, F))
        t2 = time.perf_counter()
        steps = self.ctx.steps.steps - steps0

        for op, j, rep, F in rows:
            if rep is not None:
                _check_state(ops, op, "propagate", rep, states[j][1], F)
                mx = rep.final_state.mean_x()
                ops.check(p.grid.x_min < mx < p.grid.x_max, op, "propagate",
                          "<x> = %r outside the grid" % mx)
        if self.first is None:
            self.first = (sched, states, rows)
        return {"design_s": [t1 - t0], "scan_s": [t2 - t1],
                "steps_per_s": [steps / (t2 - t1)]}

    def check(self, slow=False):
        """Reference comparison for |n, left>; fidelities here are ~1e-15,
        so the final state's overlap, norm and <x> carry the check."""
        sched, states, rows = self.first
        op, j, rep, F = rows[0]
        if rep is None:
            return {}
        psi0, target = states[j]
        out = _check_against_reference(self.ctx.ops, op, "propagate", sched, psi0,
                                       rep, target, F, self.preset.dt)
        return {"reference_row": dict(t_f=sched.t_f, state=j, **out)}


WORKLOADS = {w.name: w for w in (DesignCold, ScanWarm, FullscaleLinear)}
