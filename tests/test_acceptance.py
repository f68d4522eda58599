"""Acceptance gate: one test per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL - <numbers>`` line
before asserting, so a red run still reports every measured quantity
(run pytest with -s to see the lines for green tests too).

Criterion 8 is the full-scale ion-trap run, whose whole has not been
timed (README.md gives its measured parts); it is skipped unless
TRAPMORPH_FULL_SCALE=1.
"""

import math
import os

import numpy as np
import pytest

import trapmorph as tm
from trapmorph.eigen import couplings
from trapmorph.schedule import discrete_adiabaticity


def _report(num: int, ok: bool, detail: str) -> bool:
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_1_trap_constants():
    # alpha0 = -4.7 pN/m, beta0 = 0.052 N/m^3, M = 9.012 u
    u = tm.beryllium_units()
    f0 = u.omega_ref / (2.0 * math.pi)
    geo = tm.geometry(tm.beryllium_preset().path.initial)
    D0 = geo.D * u.length_unit
    ok = (abs(f0 / 5.6e6 - 1.0) < 0.01) and (abs(D0 / 13.45e-6 - 1.0) < 0.01)
    assert _report(1, ok, "Omega0/2pi = %.4f MHz (want 5.6 +- 1%%), "
                   "D0 = %.4f um (want 13.45 +- 1%%)"
                   % (f0 / 1e6, D0 / 1e-6))


def test_criterion_2_analytic_spectra():
    # harmonic well, omega = 1: E_j = j + 1/2
    grid = tm.SpatialGrid(-12.0, 12.0, 1024)
    eig = tm.eigensolve(tm.PotentialParams(0.5, 0.0, 0.0), grid, 21)
    exact = np.arange(21) + 0.5
    err_h = float(np.max(np.abs(eig.energies / exact - 1.0)))
    # pure quartic: E_j scales as B^(1/3), so E_j(8B)/E_j(B) = 2 exactly
    g2 = tm.SpatialGrid(-16.0, 16.0, 1024)
    B = 0.5 / 256.0
    e1 = tm.eigensolve(tm.PotentialParams(0.0, B), g2, 11).energies
    e8 = tm.eigensolve(tm.PotentialParams(0.0, 8.0 * B), g2, 11).energies
    err_q = float(np.max(np.abs(e8 / e1 - 2.0)))
    ok = err_h < 1e-6 and err_q < 1e-4
    assert _report(2, ok, "harmonic rel err %.2e (< 1e-6), "
                   "quartic-scaling err %.2e (< 1e-4)" % (err_h, err_q))


def _discrete_c_deviation(mini, sched):
    """Largest |c_j / c - 1| over the final intervals of `sched`, with g
    re-solved independently at every interval midpoint."""
    lam_mid = 0.5 * (sched.A_values[1:] + sched.A_values[:-1])
    g_mid = np.empty(lam_mid.shape)
    for i, a in enumerate(lam_mid):
        eig = tm.eigensolve(mini.path.params_at(a), mini.grid, mini.k,
                            refine=False)
        nc = couplings(eig, mini.path, mini.n_target)
        weight = nc.couplings if sched.method == "faquad" else 1.0
        g_mid[i] = np.sum(weight / nc.gaps**2)
    c_disc = discrete_adiabaticity(sched, g_mid)
    return float(np.max(np.abs(c_disc / sched.c - 1.0)))


def test_criterion_3_faquad_constancy_and_self_similarity(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 100.0)
    dev = _discrete_c_deviation(mini, sched)

    # lambda_{2 t_f}(2 t) = lambda_{t_f}(t)
    s2 = tm.invert_profile(faquad_profile, mini.path, 200.0)
    tt = np.linspace(0.0, 100.0, 1001)
    mism = float(np.max(np.abs(s2.A_of_t(2.0 * tt) - sched.A_of_t(tt))))
    ok = dev < 0.01 and mism < 1e-9
    assert _report(3, ok, "discrete-c deviation %.2e (< 1e-2), "
                   "self-similarity mismatch %.2e (< 1e-9)" % (dev, mism))


def test_criterion_3_la_constancy(mini, la_profile):
    # the LA profile obeys the same 1% flatness as FAQUAD, with g re-solved
    # gap-only at every final-interval midpoint
    sched = tm.invert_profile(la_profile, mini.path, 100.0)
    dev = _discrete_c_deviation(mini, sched)
    ok = dev < 0.01
    assert _report(3, ok, "LA discrete-c deviation %.2e (< 1e-2)" % dev)


def test_criterion_4_unitarity_and_ehrenfest(mini, mini_eigs):
    # 1e5 split-operator steps across the static initial double well
    eig0, _ = mini_eigs
    psi = tm.Wavefunction.from_eigenstate(eig0, mini.n_target)
    rep = tm.propagate(psi, tm.Drive.static(mini.path.initial, 500.0),
                       dt=0.005)
    assert rep.steps >= 10**5

    # coherent state in an omega = 1 well: <x>(t) = x0 cos(t)
    grid = tm.SpatialGrid(-20.0, 20.0, 512)
    x0 = 2.0
    psi_c = tm.Wavefunction.normalized(grid,
                                       np.exp(-0.5 * (grid.x - x0) ** 2))
    # sampled every 20 steps by chaining 100 calls of t_f = 0.1
    step = tm.Drive.static(tm.PotentialParams(0.5, 0.0, 0.0), 0.1)
    ts, mx = [0.0], [psi_c.mean_x()]
    for i in range(1, 101):
        psi_c = tm.propagate(psi_c, step, dt=0.005).final_state
        ts.append(0.1 * i)
        mx.append(psi_c.mean_x())
    err = float(np.max(np.abs(np.array(mx) - x0 * np.cos(ts))))
    ok = rep.norm_drift < 1e-10 and err < 1e-4
    assert _report(4, ok, "norm drift %.2e over %d steps (< 1e-10), "
                   "Ehrenfest error %.2e (< 1e-4)"
                   % (rep.norm_drift, rep.steps, err))


def test_criterion_5_faquad_speedup_and_plateau(faquad_scan, linear_scan):
    """FAQUAD reaches F_n >= 0.9 ten times sooner than linear; plateau.

    Red on the mini preset, and kept red with its bound on purpose: the
    measured ratio is 5.85, and no numerical fault was found behind it.
    On the default 16-point grid (t_f = 10 ... 2000, ratio 1.424 a step)
    FAQUAD first reaches 0.9 at t_f = 58.48 (F_n = 0.9407; 0.7769 at
    41.08), linear at 342.0 (0.9510; 0.8338 at 240.2).  That is five grid
    steps; a ratio >= 10 needs seven.  The plateau half passes (0.999892).

    Ruled out as causes:
    - time step: Strang stepping is second order, and F_n at t_f = 20
      moves 6.3e-7 between dt = 0.005 and 0.0025;
    - profile resolution: F_n moves by <= 4e-6;
    - spatial grid: 1024 points instead of 512 move these F_n by
      <= 1.1e-4;
    - four-neighbour truncation of g: summing over all nine other
      levels gives FAQUAD 0.798 at 41.08 and 0.923 at 58.48, so the
      threshold row stays the same.

    Cause, as far as can be told: FAQUAD spends 55% of its time in
    A in [-0.1, -0.02], where the avoided crossing is, against 11% for
    the linear ramp, and that reallocation is worth about 5x here.  The
    paper's "more than two orders of magnitude" is about the ion trap
    (criterion 8); the README promises the mini preset only the
    qualitative features.  The 10x bound for mini is not settled by any
    text in the repository, so it stays until the paper's full text can
    settle it.
    """
    t_fa = faquad_scan.threshold_tf(0.9)
    t_lin = linear_scan.threshold_tf(0.9)
    if math.isnan(t_fa):
        ratio = 0.0
    elif math.isnan(t_lin):
        ratio = math.inf
    else:
        ratio = t_lin / t_fa
    plateau = faquad_scan.rows[-1].F_n
    ok = ratio >= 10.0 and plateau > 0.999
    assert _report(5, ok, "threshold t_f: faquad %.4g, linear %.4g, ratio "
                   "%.3g (want >= 10); plateau F = %.6f (want > 0.999)"
                   % (t_fa, t_lin, ratio, plateau))


def test_criterion_6_demultiplexing_matches_multiplexing(mini, profile_cache):
    # t_f = 150 is an exact multiple of dt, so the reversed stepping
    # retraces the forward steps instead of straddling them
    F_fwd, F_bwd = tm.run_demultiplexing(mini, "faquad", 150.0,
                                         cache_dir=profile_cache)
    diff = abs(F_fwd - F_bwd)
    ok = diff < 1e-6
    assert _report(6, ok, "F_forward = %.8f, F_backward = %.8f, "
                   "|diff| = %.2e (< 1e-6)" % (F_fwd, F_bwd, diff))


def test_criterion_7_superposition_quality(faquad_scan):
    """The same FAQUAD ramp prepares |0> and |n> together, and balanced.

    Balance |F_0 - F_n| <= 0.05 is checked on the rows where the
    superposition is prepared, (F_0 + F_n)/2 >= 0.9: the preparation
    level criteria 5 and 8 use.  Shorter ramps prepare neither component
    (at t_f = 14.24, F_n = 0.066 and F_0 = 0.312), and nothing promises
    that two unprepared fidelities track each other.
    """
    rows = [r for r in faquad_scan.rows if r.error is None]
    assert rows
    best = max(rows, key=lambda r: r.F_avg)
    prepared = [r for r in rows if r.F_avg >= 0.9]
    worst_track, worst_tf = max(((abs(r.F_0 - r.F_n), r.t_f)
                                 for r in prepared),
                                default=(math.inf, math.nan))
    ok = best.F_avg >= 0.99 and best in prepared and worst_track <= 0.05
    assert _report(7, ok, "best (F_0+F_n)/2 = %.6f at t_f = %.4g "
                   "(want >= 0.99); max |F_0 - F_n| over the %d prepared "
                   "rows ((F_0+F_n)/2 >= 0.9) = %.4f at t_f = %.4g "
                   "(want <= 0.05)"
                   % (best.F_avg, best.t_f, len(prepared), worst_track,
                      worst_tf))


@pytest.mark.skipif(os.environ.get("TRAPMORPH_FULL_SCALE") != "1",
                    reason="ion-trap-scale scan (not timed); set "
                           "TRAPMORPH_FULL_SCALE=1 to run")
def test_criterion_8_ion_trap_scale_thresholds():
    preset = tm.beryllium_preset()
    tfs = tm.default_tf_grid(preset)  # 20..200 us in internal units
    fa = tm.run_scan(preset, "faquad", tfs)
    lin = tm.run_scan(preset, "linear", tfs)
    fa_best = fa.best_row()
    lin_best = lin.best_row()
    ok = fa_best.F_n >= 0.9 and lin_best.F_n < 0.9
    t_us = fa.threshold_tf(0.9) * preset.time_to_SI / 1e-6
    assert _report(8, ok, "faquad best F4 = %.4f (>= 0.9 reached at "
                   "t_f = %.3g us), linear best F4 = %.4f (want < 0.9 "
                   "throughout 20..200 us)"
                   % (fa_best.F_n, t_us, lin_best.F_n))


def test_criterion_9_faquad_beats_la_best(faquad_scan, la_scan):
    """FAQUAD's best F_n over the scan is at least LA's.

    Red on the mini preset, and kept red with its comparison on purpose:
    no numerical fault was found.  Both best rows are the last one,
    t_f = 2000: FAQUAD 0.999892, LA 0.999982 (the linear ramp beats
    both there, 0.999994).  At that duration the loss comes from the
    ramp's sudden start and stop.  The first-order amplitude
    Adot |<m|dH/dA|n>| / dE^2 at the two ends predicts 1 - F in
    [2.3e-5, 1.1e-4] for FAQUAD, [1.7e-5, 3.0e-5] for LA and
    [9.7e-6, 1.1e-5] for linear: the observed order.  FAQUAD ends
    fastest because its c is constant along the whole ramp, so
    Adot(t_f) = c / g(A_f) = 9.8e-3, against 2.2e-3 for LA.

    Ruled out as causes: time step and profile resolution (see
    criterion 5); a 1024-point grid (0.999874 against 0.999973) and g
    summed over all levels (0.999826 against 0.999966) keep the order.

    At reaching a fidelity level FAQUAD does beat LA: F_n >= 0.9 at
    t_f = 58.5 against 83.3, and >= 0.99 at 168.7 against 240.2.  Which
    of the two comparisons this criterion means is not settled by any
    text in the repository, so the best-row comparison stays.
    """
    fa = faquad_scan.best_row()
    la = la_scan.best_row()
    ok = fa.F_n >= la.F_n
    assert _report(9, ok, "best fidelity: faquad %.6f at t_f = %.4g, "
                   "la %.6f at t_f = %.4g (want faquad >= la)"
                   % (fa.F_n, fa.t_f, la.F_n, la.t_f))
