"""Ramp design: adiabaticity profiles, inversion, serialization."""

import concurrent.futures
import gc
import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph import schedule
from trapmorph.errors import (ConfinementError, FlatDirectionError,
                              ScheduleError)
from trapmorph.schedule import (QUADRATURE_REFINE_TOL, AdiabaticityProfile,
                                Schedule)


# --- profiles -----------------------------------------------------------

def test_profile_basics(mini, faquad_profile):
    prof = faquad_profile
    assert np.all(prof.g > 0.0)
    assert prof.integral > 0.0
    # the avoided-crossing bottleneck sits between A0 and the switch center
    assert mini.path.A0 < prof.peak_lambda < mini.path.eps
    assert prof.cumulative[0] == 0.0
    assert_allclose(prof.cumulative[-1], prof.integral, rtol=1e-15)
    assert np.all(np.diff(prof.cumulative) > 0.0)


def test_la_profile_is_gap_only(mini, la_profile, faquad_profile):
    # LA weighs every neighbor equally, FAQUAD by matrix element; on the
    # same path they must disagree visibly
    assert la_profile.integral != pytest.approx(faquad_profile.integral,
                                                rel=0.05)


def test_harmonic_stretch_oracle():
    # with beta ~ 0 the well is harmonic, omega = sqrt(2A): the only
    # allowed neighbor is n+2 and g = sqrt(2)/(8 omega^3)
    path = tm.DeformationPath(A0=-0.25, Af=0.5, B0=1e-18,
                              kappa=-400.0 / 3.0, eps=0.05, C=0.0,
                              n_target=0)
    grid = tm.SpatialGrid(-10.0, 10.0, 2048)
    eig = tm.eigensolve(path.params_at(0.4), grid, 3, refine=True)
    nc = tm.couplings(eig, path, 0)
    om = np.sqrt(0.8)
    assert_allclose(np.sum(nc.couplings / nc.gaps**2),
                    np.sqrt(2.0) / (8.0 * om**3), rtol=1e-4)
    # LA counterpart: 1/om^2 + 1/(2 om)^2 = 1.25/om^2
    assert_allclose(np.sum(1.0 / nc.gaps**2), 1.25 / om**2, rtol=1e-6)


def test_profile_rejects_flat_directions():
    lam = np.linspace(-0.25, 0.5, 16)
    with pytest.raises(FlatDirectionError):
        AdiabaticityProfile(lam, np.zeros(16), "faquad")
    g = np.ones(16)
    g[7] = -1.0
    with pytest.raises(FlatDirectionError):
        AdiabaticityProfile(lam, g, "faquad")
    with pytest.raises(ScheduleError):
        AdiabaticityProfile(lam[::-1].copy(), np.ones(16), "faquad")


def test_build_profile_argument_validation(mini, monkeypatch):
    with pytest.raises(ScheduleError):
        tm.build_profile(mini.path, mini.grid, 2, method="steepest")
    # cap below what this path needs: refinement refuses, not stalls
    monkeypatch.setattr(schedule, "PROFILE_NODES_MAX", 2048)
    with pytest.raises(ScheduleError):
        tm.build_profile(mini.path, mini.grid, 2)


def test_build_profile_small_start_converges(mini, la_profile, monkeypatch):
    # starting from few nodes must refine to the same integral
    monkeypatch.setattr(schedule, "PROFILE_NODES_DEFAULT", 512)
    prof = tm.build_profile(mini.path, mini.grid, mini.n_target, method="la")
    assert_allclose(prof.integral, la_profile.integral, rtol=1e-3)


def test_fresh_profile_reports_its_build(mini, monkeypatch):
    # a 256-point grid and 128 start nodes keep these builds short
    grid = replace(mini.grid, n=256)
    monkeypatch.setattr(schedule, "PROFILE_NODES_DEFAULT", 128)
    store = {}
    la = tm.build_profile(mini.path, grid, 2, method="la", store=store)
    faquad = tm.build_profile(mini.path, grid, 2, method="faquad",
                              store=store)
    alone = tm.build_profile(mini.path, grid, 2, method="faquad")
    # a standalone build solves every node once and drops none
    for prof in (la, alone):
        assert prof.evaluations == len(prof.lambda_grid)
    # sharing LA's nodes, FAQUAD solves only the ones LA lacked ...
    assert faquad.evaluations == len(
        np.setdiff1d(faquad.lambda_grid, la.lambda_grid)) > 0
    # ... and still yields the standalone profile bit for bit
    assert np.array_equal(faquad.lambda_grid, alone.lambda_grid)
    assert np.array_equal(faquad.g, alone.g)
    for prof in (la, faquad, alone):
        assert prof.max_deviation <= QUADRATURE_REFINE_TOL


@pytest.fixture()
def pooled(mini, monkeypatch):
    """Small builds (256-point grid, 128 start nodes) that solve their
    nodes on 3 worker processes, whatever this machine has; returns the
    grid and the list of pools opened."""
    monkeypatch.setattr(schedule, "PROFILE_NODES_DEFAULT", 128)
    monkeypatch.setattr(schedule, "_cpus", lambda: 3)
    pools = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    # the name _g_values imports when it opens a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return replace(mini.grid, n=256), pools


def test_pooled_build_matches_in_process_solves(mini, pooled, monkeypatch):
    grid, pools = pooled
    mask = os.sched_getaffinity(0)
    store = {}
    faquad = tm.build_profile(mini.path, grid, 2, method="faquad",
                              store=store)
    la = tm.build_profile(mini.path, grid, 2, method="la", store=store)
    # a round solves one chunk here and opens one worker for each other
    # CPU, or for each other new node if that is fewer
    assert pools[0] == (2,) and all(1 <= w <= 2 for w, in pools)
    assert not multiprocessing.active_children()
    assert os.sched_getaffinity(0) == mask
    # each column is what the per-node function gives here, bit for bit
    for prof, column in ((faquad, 0), (la, 1)):
        here = schedule._g_pairs(mini.path, grid, 2, prof.lambda_grid)
        assert np.array_equal(prof.g, here[:, column])
    # and the builds count the same eigensolves as in-process builds
    monkeypatch.setattr(schedule, "_cpus", lambda: 1)
    opened = len(pools)
    serial = {}
    counts = [tm.build_profile(mini.path, grid, 2, method=m,
                               store=serial).evaluations
              for m in ("faquad", "la")]
    assert counts == [faquad.evaluations, la.evaluations]
    assert faquad.evaluations == len(faquad.lambda_grid)
    assert len(pools) == opened  # one CPU: no pool


@pytest.mark.skipif(schedule._this_cpu() is None,
                    reason="the running CPU cannot be read here")
def test_pooled_build_holds_this_thread_on_its_cpu(mini, pooled, monkeypatch,
                                                   tmp_path):
    # this thread solves its chunks held on one CPU of its mask; the
    # workers run on the other CPUs (on a one-CPU machine, on that one)
    grid, pools = pooled
    here = os.getpid()
    mask = os.sched_getaffinity(0)
    eigensolve = schedule.eigensolve
    seen = tmp_path / "masks"

    def recorded(p, *args, **kwargs):
        with open(seen, "a") as fp:
            fp.write("%s %s\n" % ("main" if os.getpid() == here else "worker",
                                   ",".join(map(str, os.sched_getaffinity(0)))))
        return eigensolve(p, *args, **kwargs)

    monkeypatch.setattr(schedule, "eigensolve", recorded)
    tm.build_profile(mini.path, grid, 2)
    masks = {"main": set(), "worker": set()}
    for line in seen.read_text().splitlines():
        who, cpus = line.split()
        masks[who].add(frozenset(map(int, cpus.split(","))))
    assert pools and masks["worker"]
    assert all(len(m) == 1 and m <= mask for m in masks["main"])
    held = set().union(*masks["main"])
    for m in masks["worker"]:
        assert m == mask if len(mask) == 1 else m in [mask - {c} for c in held]
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("error", [ConfinementError, KeyboardInterrupt])
def test_pooled_build_raises_the_lowest_failing_node(mini, pooled,
                                                     monkeypatch, error):
    # every start node above the middle of the path fails: two of the
    # three chunks hold failing nodes, each raising its own message
    grid, pools = pooled
    threshold = 0.5 * (mini.path.A0 + mini.path.Af)
    eigensolve = schedule.eigensolve

    def failing(p, *args, **kwargs):
        if p.A > threshold:
            raise error("no eigensolve at A=%r" % p.A)
        return eigensolve(p, *args, **kwargs)

    monkeypatch.setattr(schedule, "eigensolve", failing)
    start = np.linspace(mini.path.A0, mini.path.Af, 128)
    first = float(start[start > threshold][0])
    mask = os.sched_getaffinity(0)
    raised = []
    for cpus in (3, 1):  # pooled, then the in-process loop
        monkeypatch.setattr(schedule, "_cpus", lambda: cpus)
        with pytest.raises(error) as exc:
            tm.build_profile(mini.path, grid, 2)
        raised.append((type(exc.value), str(exc.value)))
        assert not multiprocessing.active_children()
        assert os.sched_getaffinity(0) == mask
    assert len(pools) == 1
    assert raised == [(error, "no eigensolve at A=%r" % first)] * 2


def test_interrupted_pooled_build_leaves_no_worker(mini, pooled,
                                                   monkeypatch):
    # the first node a worker solves interrupts this process, which is
    # then solving its own chunk or waiting for the workers
    grid, pools = pooled
    here = os.getpid()
    eigensolve = schedule.eigensolve

    def slow(p, *args, **kwargs):
        if os.getpid() != here:
            os.kill(here, signal.SIGUSR1)
            time.sleep(0.01)
        return eigensolve(p, *args, **kwargs)

    interrupts = []

    def interrupt(signum, frame):
        if not interrupts:  # once: a second one would cut the clean-up
            interrupts.append(signum)
            raise KeyboardInterrupt

    monkeypatch.setattr(schedule, "eigensolve", slow)
    mask = os.sched_getaffinity(0)
    # an interrupt raised inside a collection's callback (hypothesis
    # installs one) is swallowed as unraisable: no collection runs here
    gc.disable()
    previous = signal.signal(signal.SIGUSR1, interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            tm.build_profile(mini.path, grid, 2)
    finally:
        signal.signal(signal.SIGUSR1, previous)
        gc.enable()
    assert interrupts and len(pools) == 1
    assert not multiprocessing.active_children()
    assert os.sched_getaffinity(0) == mask


def _peak_g(lam):
    # a narrow peak on a flat floor
    return 1.0 + 50.0 * np.exp(-0.5 * ((lam - 0.1) / 0.002) ** 2)


@pytest.fixture()
def peak_calls(monkeypatch):
    """Replace the eigensolves behind g with _peak_g; record batch sizes."""
    calls = []

    def g_values(path, grid, n, lam, store):
        calls.append(len(lam))
        g = _peak_g(lam)
        store.update(zip(lam.tolist(), zip(g.tolist(), g.tolist())))
        return np.column_stack((g, g))

    monkeypatch.setattr(schedule, "_g_values", g_values)
    return calls


def test_refinement_splits_only_failing_intervals(mini, peak_calls,
                                                  monkeypatch):
    monkeypatch.setattr(schedule, "PROFILE_NODES_DEFAULT", 128)
    prof = tm.build_profile(mini.path, mini.grid, 2)
    lam = prof.lambda_grid
    assert prof.evaluations == sum(peak_calls) == len(lam)
    assert lam[0] == mini.path.A0 and lam[-1] == mini.path.Af
    # every final interval meets the test the builder applies
    mid = 0.5 * (lam[1:] + lam[:-1])
    dev = np.abs(_peak_g(mid) / (0.5 * (prof.g[1:] + prof.g[:-1])) - 1.0)
    assert np.max(dev) <= QUADRATURE_REFINE_TOL
    assert prof.max_deviation <= QUADRATURE_REFINE_TOL
    # refined near the peak only: doubling the whole grid down to the
    # finest spacing would take (Af - A0) / min(dA) + 1 = 8129 nodes
    step = np.diff(lam)
    assert np.max(step) / np.min(step) == pytest.approx(32.0)
    assert len(lam) < 400


def test_node_cap_refuses_before_solving(mini, peak_calls, monkeypatch):
    monkeypatch.setattr(schedule, "PROFILE_NODES_DEFAULT", 128)
    monkeypatch.setattr(schedule, "PROFILE_NODES_MAX", 300)
    with pytest.raises(ScheduleError):
        tm.build_profile(mini.path, mini.grid, 2)
    assert sum(peak_calls) <= 300


# --- inversion ----------------------------------------------------------

def test_constant_g_inverts_to_linear_ramp(mini):
    lam = np.linspace(mini.path.A0, mini.path.Af, 257)
    prof = AdiabaticityProfile(lam, np.ones(257), "faquad")
    sched = tm.invert_profile(prof, mini.path, 10.0)
    tt = np.linspace(0.0, 10.0, 101)
    want = mini.path.A0 + (mini.path.Af - mini.path.A0) * tt / 10.0
    assert_allclose(sched.A_of_t(tt), want, atol=1e-12)


def test_invert_endpoints_and_c(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 123.0)
    assert sched.times[0] == 0.0
    assert sched.times[-1] == 123.0
    assert sched.A_values[0] == mini.path.A0
    assert sched.A_values[-1] == mini.path.Af
    assert_allclose(sched.c, faquad_profile.integral / 123.0, rtol=1e-15)
    with pytest.raises(ScheduleError):
        tm.invert_profile(faquad_profile, mini.path, -5.0)


def test_self_similarity_under_duration_rescale(mini, faquad_profile):
    s1 = tm.invert_profile(faquad_profile, mini.path, 40.0)
    s2 = tm.invert_profile(faquad_profile, mini.path, 80.0)
    tt = np.linspace(0.0, 40.0, 501)
    assert np.max(np.abs(s2.A_of_t(2.0 * tt) - s1.A_of_t(tt))) < 1e-9
    assert_allclose(s1.c / s2.c, 2.0, rtol=1e-14)


def test_schedule_slows_down_where_g_peaks(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 100.0)
    dA = np.diff(sched.A_values)
    dt = np.diff(sched.times)
    i = int(np.argmin(np.abs(dA / dt)))  # slowest point of the ramp
    a_slow = 0.5 * (sched.A_values[i] + sched.A_values[i + 1])
    assert abs(a_slow - faquad_profile.peak_lambda) < 0.01


def test_faquad_and_la_ramps_differ(mini, faquad_profile, la_profile):
    s_fa = tm.invert_profile(faquad_profile, mini.path, 100.0)
    s_la = tm.invert_profile(la_profile, mini.path, 100.0)
    tt = np.linspace(0.0, 100.0, 401)
    gap = np.max(np.abs(s_fa.A_of_t(tt) - s_la.A_of_t(tt)))
    assert gap > 0.01 * (mini.path.Af - mini.path.A0)


def test_linear_schedule():
    path = tm.mini_preset().path
    sched = tm.linear_schedule(path, 50.0)
    assert sched.c is None
    assert sched.method == "linear"
    tt = np.linspace(0.0, 50.0, 77)
    assert_allclose(sched.A_of_t(tt),
                    path.A0 + (path.Af - path.A0) * tt / 50.0, atol=1e-13)
    # interpolation clamps outside [0, t_f]
    assert sched.A_of_t(-1.0) == path.A0
    assert sched.A_of_t(51.0) == path.Af


def test_schedule_validation(mini, faquad_profile):
    path = mini.path
    t = np.array([0.0, 1.0, 2.0])
    a = np.array([path.A0, 0.0, path.Af])
    Schedule(path=path, t_f=2.0, times=t, A_values=a, method="linear")
    with pytest.raises(ScheduleError):
        Schedule(path=path, t_f=2.0, times=t[::-1].copy(), A_values=a,
                 method="linear")
    with pytest.raises(ScheduleError):  # non-monotone control
        Schedule(path=path, t_f=2.0, times=t,
                 A_values=np.array([path.A0, 0.3, 0.1]), method="linear")
    with pytest.raises(ScheduleError):  # does not reach t_f
        Schedule(path=path, t_f=3.0, times=t, A_values=a, method="linear")
    # so short that the PCHIP slopes are not finite: scipy's ValueError
    # must not leak
    with pytest.raises(ScheduleError):
        tm.linear_schedule(path, 1e-200)
    # below about 1e-100 (FAQUAD) or 1e-105 (linear) the slopes are finite
    # but the PCHIP coefficients overflow, so A_of_t would return NaN; above
    # about 1e154 they overflow too.  The refusal carries no scipy warning.
    for make in (lambda t_f: tm.linear_schedule(path, t_f),
                 lambda t_f: tm.invert_profile(faquad_profile, path, t_f)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_f in (1e-120, 1e250):
                with pytest.raises(ScheduleError):
                    make(t_f)
            sched = make(1e-100)
        assert np.all(np.isfinite(sched.A_of_t(np.linspace(0.0, 1e-100, 101))))


def test_non_finite_durations_are_refused(mini):
    path = mini.path
    t = np.array([0.0, 1.0, 2.0])
    a = np.array([path.A0, 0.0, path.Af])
    prof = AdiabaticityProfile(np.linspace(path.A0, path.Af, 5), np.ones(5),
                               "la")
    for t_f in (np.nan, np.inf):
        with pytest.raises(ScheduleError):
            Schedule(path=path, t_f=t_f, times=t, A_values=a, method="linear")
        with pytest.raises(ScheduleError):
            tm.invert_profile(prof, path, t_f)
        with pytest.raises(ScheduleError):
            tm.linear_schedule(path, t_f)


# --- reversal -----------------------------------------------------------

def test_reversal(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 60.0)
    rev = sched.reversed()
    assert rev.A_values[0] == mini.path.Af
    assert rev.A_values[-1] == mini.path.A0
    assert rev.t_f == sched.t_f
    assert rev.c == sched.c
    assert rev.method == "reversed(faquad)"
    # mirror symmetry of the interpolant
    tt = np.linspace(0.0, 60.0, 301)
    assert_allclose(rev.A_of_t(tt), sched.A_of_t(60.0 - tt), atol=1e-12)
    # reversing twice gives back the very same object
    assert rev.reversed() is sched


# durations over seven decades, through both session profiles
durations = st.floats(1e-3, 1e4)


@settings(deadline=None)
@given(t_f=durations)
def test_reversal_properties(mini, faquad_profile, la_profile, t_f):
    for prof in (faquad_profile, la_profile):
        sched = tm.invert_profile(prof, mini.path, t_f)
        rev = sched.reversed()
        assert rev.times[0] == 0.0 and rev.times[-1] == t_f
        assert np.all(np.diff(rev.times) > 0.0)
        assert np.array_equal(rev.A_values, sched.A_values[::-1])
        assert rev.reversed() is sched


# --- serialization ------------------------------------------------------

def test_text_round_trip_is_exact(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 77.5)
    text = sched.to_text()
    back = Schedule.from_text(text)
    assert np.array_equal(back.times, sched.times)
    assert np.array_equal(back.A_values, sched.A_values)
    assert back.t_f == sched.t_f
    assert back.c == sched.c
    assert back.method == sched.method
    for f in ("A0", "Af", "B0", "kappa", "eps", "C", "n_target"):
        assert getattr(back.path, f) == getattr(sched.path, f)
    assert text.startswith("# trapmorph schedule v1")


@settings(deadline=None)
@given(t_f=durations)
def test_text_round_trip_properties(mini, faquad_profile, la_profile, t_f):
    for prof in (faquad_profile, la_profile):
        sched = tm.invert_profile(prof, mini.path, t_f)
        back = Schedule.from_text(sched.to_text())
        assert np.array_equal(back.times, sched.times)
        assert np.array_equal(back.A_values, sched.A_values)
        assert back.t_f == sched.t_f == t_f
        assert back.c == sched.c


def test_from_text_rejects_garbage():
    with pytest.raises(ScheduleError):
        Schedule.from_text("# trapmorph schedule v1\n0 0\n1 1\n")
    with pytest.raises(ScheduleError):
        Schedule.from_text("")
    good = tm.linear_schedule(tm.mini_preset().path, 10.0).to_text()
    for line in ("garbage line", "1 2 3", "1.0"):
        for text in (line, good + line + "\n"):
            with pytest.raises(ScheduleError):
                Schedule.from_text(text)
    # path values that the path type refuses are unparseable text too
    af = "Af = %.17g" % tm.mini_preset().path.Af
    for bad in (good.replace(af, "Af = 0.4"),
                good.replace("n_target = 2", "n_target = -1")):
        assert bad != good
        with pytest.raises(ScheduleError):
            Schedule.from_text(bad)
    # readable samples that the schedule refuses keep the schedule's message
    wrong_span = good.replace("# t_f = 10\n", "# t_f = 11\n")
    assert wrong_span != good
    with pytest.raises(ScheduleError, match="^sample times must span"):
        Schedule.from_text(wrong_span)
