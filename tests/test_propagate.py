"""Split-operator propagation: conservation laws, accuracy, reporting."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph import schedule
from trapmorph.errors import ConfinementError, GridError, PropagationError

HARMONIC = tm.PotentialParams(0.5, 0.0, 0.0)  # omega = 1
FLAT = tm.PotentialParams(0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def grid():
    return tm.SpatialGrid(-20.0, 20.0, 512)


@pytest.fixture(scope="module")
def harmonic_eig(grid):
    return tm.eigensolve(HARMONIC, grid, 4, refine=False)


def test_wavefunction_construction(grid, harmonic_eig):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    assert abs(psi.norm() - 1.0) < 1e-10
    assert abs(psi.mean_x()) < 1e-12
    with pytest.raises(GridError):
        tm.Wavefunction(grid, np.ones(grid.n, dtype=complex))  # not normalized
    with pytest.raises(GridError):
        tm.Wavefunction(grid, np.zeros(7, dtype=complex))
    with pytest.raises(GridError):
        tm.Wavefunction.normalized(grid, np.zeros(grid.n))
    with pytest.raises(GridError):
        tm.Wavefunction(grid, np.full(grid.n, np.nan, dtype=complex))


def test_stationary_states_stay_put(grid, harmonic_eig):
    # static harmonic drive: |0> and |2> pick up only a phase
    for j in (0, 2):
        psi = tm.Wavefunction.from_eigenstate(harmonic_eig, j)
        rep = tm.propagate(psi, tm.Drive.static(HARMONIC, 50.0), dt=0.005)
        assert tm.fidelity(rep.final_state, psi) > 1.0 - 1e-6


def test_energy_phase_evolution(grid, harmonic_eig):
    # the propagated ground state accrues exp(-i E t): check against the
    # refined eigenvalue over one period
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    t_f = 2.0  # keeps E t = 1 rad, clear of the +/- pi wrap
    rep = tm.propagate(psi, tm.Drive.static(HARMONIC, t_f), dt=0.001)
    ov = np.sum(np.conj(psi.values) * rep.final_state.values) * grid.dx
    phase = -float(np.angle(ov))  # E t for E = 1/2
    assert_allclose(phase, 1.0, atol=1e-6)


def test_norm_conservation_short(grid, harmonic_eig):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 2)
    rep = tm.propagate(psi, tm.Drive.static(HARMONIC, 100.0), dt=0.005)
    assert rep.norm_drift < 1e-10
    assert abs(rep.final_state.norm() - 1.0) < 1e-12


def test_coherent_state_oscillates(grid):
    # <x>(t) sampled by chaining 100 calls of 0.1; the chain lands on the
    # state that one call of 10 reaches, up to the per-call renormalization
    x0 = 2.0
    psi0 = tm.Wavefunction.normalized(grid, np.exp(-0.5 * (grid.x - x0) ** 2))
    step = tm.Drive.static(HARMONIC, 0.1)
    psi, ts, mx = psi0, [0.0], [psi0.mean_x()]
    for i in range(1, 101):
        rep = tm.propagate(psi, step, dt=0.005)
        assert rep.steps == 20 and rep.norm_drift < 1e-10
        psi = rep.final_state
        ts.append(0.1 * i)
        mx.append(psi.mean_x())
    assert np.max(np.abs(np.array(mx) - x0 * np.cos(ts))) < 1e-4
    once = tm.propagate(psi0, tm.Drive.static(HARMONIC, 10.0), dt=0.005)
    assert once.steps == 2000
    assert np.max(np.abs(psi.values - once.final_state.values)) <= 1e-12


def test_partial_final_step_lands_exactly(grid, harmonic_eig):
    # t_f deliberately not a multiple of dt
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    rep = tm.propagate(psi, tm.Drive.static(HARMONIC, 1.2345), dt=0.01)
    assert rep.steps == 124  # 123 of dt, then one of the remainder 0.0045
    assert tm.fidelity(rep.final_state, psi) > 1.0 - 1e-6


def test_partial_final_step_matches_reference(mini, mini_eigs,
                                              faquad_profile,
                                              perfbench_module):
    # t_f off the step grid: 2469 merged steps, then one step of the
    # remainder, against perfbench's unmerged textbook Strang stepper
    ref = perfbench_module("reference")
    eig0, eigf = mini_eigs
    psi0 = tm.Wavefunction.from_eigenstate(eig0, 2)
    target = tm.Wavefunction.from_eigenstate(eigf, 2)
    t_f = 12.3457
    sched = tm.invert_profile(faquad_profile, mini.path, t_f)
    rep = tm.propagate(psi0, sched, mini.dt)
    assert rep.steps == 2470
    dx = mini.grid.dx
    psi_ref = ref.strang(psi0.values, mini.grid.x, sched.times,
                         sched.A_values, mini.path, mini.dt, t_f)
    assert abs(ref.norm(psi_ref, dx) - 1.0) <= 1e-9
    assert 1.0 - ref.overlap(psi_ref, rep.final_state.values, dx) <= 1e-9
    F = tm.fidelity(rep.final_state, target)
    assert abs(F - ref.overlap(target.values, psi_ref, dx)) <= 1e-9


def test_matches_reference_on_an_asymmetric_grid(mini, faquad_profile,
                                                 perfbench_module):
    # a grid not symmetric about 0 takes the unfolded potential phase; one
    # run crosses the step-5000 checkpoint and ends on a partial step
    ref = perfbench_module("reference")
    grid = tm.SpatialGrid(-20.0, 24.0, 512)
    eig0 = tm.eigensolve(mini.path.initial, grid, mini.k, refine=False)
    eigf = tm.eigensolve(mini.path.final, grid, mini.k, refine=False)
    psi0 = tm.Wavefunction.from_eigenstate(eig0, 2)
    target = tm.Wavefunction.from_eigenstate(eigf, 2)
    t_f = 25.0123
    sched = tm.invert_profile(faquad_profile, mini.path, t_f)
    rep = tm.propagate(psi0, sched, mini.dt)
    assert rep.steps == 5003 > sys.modules["trapmorph.propagate"].CHECK_STRIDE
    psi_ref = ref.strang(psi0.values, grid.x, sched.times, sched.A_values,
                         mini.path, mini.dt, t_f)
    F = tm.fidelity(rep.final_state, target)
    assert abs(F - ref.overlap(target.values, psi_ref, grid.dx)) <= 1e-10
    assert 1.0 - ref.overlap(psi_ref, rep.final_state.values, grid.dx) <= 1e-10


def test_report_wall_time(grid, harmonic_eig):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    rep = tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=0.01)
    assert 0.0 < rep.wall_s < float("inf")


def test_dt_guard(grid, harmonic_eig, mini):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    with pytest.raises(PropagationError):
        tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=0.3)
    with pytest.raises(PropagationError):
        tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(PropagationError, match="outside"):
            tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=bad)


# --- the checks inside propagate: at a checkpoint and at the end ----------

@pytest.mark.parametrize("stride, where", [(10, "0.6"), (5000, "1")])
def test_nan_drive_fails(harmonic_eig, monkeypatch, stride, where):
    # NaN compares false with everything: the norm check must still fire,
    # at the first checkpoint after the NaN (step 60) or at t_f
    monkeypatch.setattr(sys.modules["trapmorph.propagate"], "CHECK_STRIDE",
                        stride)
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    # harmonic trap whose coefficient turns NaN from t = 0.5 on
    nan_drive = tm.Drive(lambda t: np.where(t < 0.5, 0.5, np.nan),
                         lambda A: np.zeros_like(A), 0.0, 1.0, 1.0)
    with pytest.raises(PropagationError, match="norm drift nan at t = %s$"
                       % where):
        tm.propagate(psi, nan_drive, dt=0.01)


@pytest.mark.parametrize("t_f, stride, where", [(10.0, 50, "2.5"),
                                                (4.0, 5000, "4")])
def test_kicked_packet_reaches_the_edge(grid, monkeypatch, t_f, stride,
                                        where):
    # a Gaussian moving at speed 5 through a flat trap reaches the outer 5%
    # of [-20, 20]: caught at a checkpoint long before t_f, or at t_f
    monkeypatch.setattr(sys.modules["trapmorph.propagate"], "CHECK_STRIDE",
                        stride)
    kick = tm.Wavefunction.normalized(
        grid, np.exp(-0.5 * grid.x**2 + 5j * grid.x))
    with pytest.raises(ConfinementError, match="at t = %s:" % where):
        tm.propagate(kick, tm.Drive.static(FLAT, t_f), dt=0.01)


# --- a stack of states in lock-step against one-row calls ------------------

def _assert_rows_match(stack, states, drives, dt):
    # every row of the stack against a one-row propagate of its job:
    # the same error, or states (and so fidelities) within 1e-12
    assert len(stack.rows) == len(states)
    finished = 0
    for got, psi0, drive in zip(stack.rows, states, drives):
        try:
            alone = tm.propagate(psi0, drive, dt)
        except tm.TrapMorphError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert isinstance(got, tm.PropagationReport)
        assert got.steps == alone.steps
        assert got.norm_drift == pytest.approx(alone.norm_drift, abs=1e-14)
        assert np.max(np.abs(got.final_state.values
                             - alone.final_state.values)) <= 1e-12
        assert abs(tm.fidelity(got.final_state, psi0)
                   - tm.fidelity(alone.final_state, psi0)) <= 1e-12
        finished += got.steps
    assert stack.steps == finished
    assert 0.0 < stack.wall_s < float("inf")


def test_stack_matches_one_row_calls(mini, mini_eigs, faquad_profile,
                                     monkeypatch):
    # rows of different lengths, off-grid durations that end on a partial
    # step, checkpoints crossed (every 40 steps here) and a forward plus
    # reversed pair, in one stack
    monkeypatch.setattr(sys.modules["trapmorph.propagate"], "CHECK_STRIDE",
                        40)
    eig0, eigf = mini_eigs
    up = [tm.Wavefunction.from_eigenstate(eig0, j) for j in (2, 0)]
    down = tm.Wavefunction.from_eigenstate(eigf, 2)
    fwd = tm.invert_profile(faquad_profile, mini.path, 1.5)
    states, drives = [], []
    for t_f in (0.5, 1.2345, 0.0021, 1.0):
        sched = tm.linear_schedule(mini.path, t_f)
        states += up
        drives += [sched, sched]
    states += [up[0], down]
    drives += [fwd, fwd.reversed()]
    stack = tm.propagate(states, drives, mini.dt)
    assert [r.steps for r in stack.rows[:8]] == [100, 100, 247, 247,
                                                 1, 1, 200, 200]
    _assert_rows_match(stack, states, drives, mini.dt)


def test_stack_retires_a_failing_middle_row(harmonic_eig, monkeypatch):
    # the middle row's trap turns NaN at t = 0.5: the checkpoint at step 60
    # retires it with the error its one-row run raises, and the rows on
    # either side, one longer and one shorter, run on
    monkeypatch.setattr(sys.modules["trapmorph.propagate"], "CHECK_STRIDE",
                        10)
    psi = [tm.Wavefunction.from_eigenstate(harmonic_eig, j) for j in range(3)]
    nan_drive = tm.Drive(lambda t: np.where(t < 0.5, 0.5, np.nan),
                         lambda A: np.zeros_like(A), 0.0, 1.0, 1.0)
    drives = [tm.Drive.static(HARMONIC, 1.5), nan_drive,
              tm.Drive.static(HARMONIC, 0.7)]
    stack = tm.propagate(psi, drives, 0.01)
    assert isinstance(stack.rows[1], PropagationError)
    assert str(stack.rows[1]) == "norm drift nan at t = 0.6"
    assert stack.steps == 150 + 70
    _assert_rows_match(stack, psi, drives, 0.01)


def test_stack_rejects_mismatched_inputs(grid, harmonic_eig):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    other = tm.SpatialGrid(-10.0, 10.0, 256)
    far = tm.Wavefunction.normalized(other, np.exp(-0.5 * other.x**2))
    drive = tm.Drive.static(HARMONIC, 1.0)
    with pytest.raises(GridError):
        tm.propagate([psi, far], [drive, drive], 0.01)
    with pytest.raises(PropagationError):
        tm.propagate([psi, psi], [drive], 0.01)
    empty = tm.propagate([], [], 0.01)
    assert empty.rows == () and empty.steps == 0
    # a row that fails before its first step is retired alone
    stack = tm.propagate([psi, psi], [drive, tm.Drive.static(HARMONIC, 1.0)],
                         0.3)
    assert all(isinstance(r, PropagationError) for r in stack.rows)
    stack = tm.propagate([psi, psi], [HARMONIC, drive], 0.01)
    assert isinstance(stack.rows[0], PropagationError)
    assert stack.rows[1].steps == 100


@settings(max_examples=20, deadline=None)
@given(t_fs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
       stride=st.integers(5, 80))
def test_stack_property(mini, mini_eigs, t_fs, stride):
    # any set of durations, each row |2> and |0> under its linear ramp,
    # with checkpoints every `stride` steps
    eig0, _ = mini_eigs
    up = [tm.Wavefunction.from_eigenstate(eig0, j) for j in (2, 0)]
    states, drives = [], []
    for t_f in t_fs:
        sched = tm.linear_schedule(mini.path, t_f)
        states += up
        drives += [sched, sched]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules["trapmorph.propagate"], "CHECK_STRIDE", stride)
        stack = tm.propagate(states, drives, mini.dt)
        _assert_rows_match(stack, states, drives, mini.dt)


def test_schedule_convergence_in_dt(mini, mini_eigs, faquad_profile):
    # halving dt must not move the fidelity at the 1e-6 level
    eig0, eigf = mini_eigs
    psi0 = tm.Wavefunction.from_eigenstate(eig0, 2)
    target = tm.Wavefunction.from_eigenstate(eigf, 2)
    sched = tm.invert_profile(faquad_profile, mini.path, 30.0)
    F1 = tm.fidelity(tm.propagate(psi0, sched, 0.005).final_state, target)
    F2 = tm.fidelity(tm.propagate(psi0, sched, 0.0025).final_state, target)
    assert abs(F1 - F2) < 1e-6


def test_error_budget(mini, mini_eigs, faquad_profile, monkeypatch):
    # how far FAQUAD F_2 at t_f = 20 moves when the time step halves, the
    # profile's refinement tolerance halves and the grid doubles
    def F(profile, preset, eigs, dt):
        psi0, target = (tm.Wavefunction.from_eigenstate(e, preset.n_target)
                        for e in eigs)
        sched = tm.invert_profile(profile, preset.path, 20.0)
        return tm.fidelity(tm.propagate(psi0, sched, dt).final_state, target)

    F0 = F(faquad_profile, mini, mini_eigs, mini.dt)
    d_dt = abs(F(faquad_profile, mini, mini_eigs, mini.dt / 2) - F0)
    fine = replace(mini, grid=mini.grid.refined(2))
    fine_eigs = [tm.eigensolve(p, fine.grid, fine.k, refine=False)
                 for p in (fine.path.initial, fine.path.final)]
    fine_profile = schedule.build_profile(fine.path, fine.grid, fine.n_target)
    d_grid = abs(F(fine_profile, fine, fine_eigs, fine.dt) - F0)
    monkeypatch.setattr(schedule, "QUADRATURE_REFINE_TOL",
                        schedule.QUADRATURE_REFINE_TOL / 2)
    tight = schedule.build_profile(mini.path, mini.grid, mini.n_target)
    d_profile = abs(F(tight, mini, mini_eigs, mini.dt) - F0)
    print("error budget: F_2(t_f = 20) = %.6f; dt/2 %.1e, refine tol/2 %.1e "
          "(%d -> %d nodes), grid x2 %.1e"
          % (F0, d_dt, d_profile, len(faquad_profile.lambda_grid),
             len(tight.lambda_grid), d_grid))
    assert d_dt <= 1e-5 and d_profile <= 1e-5 and d_grid <= 2e-3


def test_drive_adapters(mini, faquad_profile):
    sched = tm.invert_profile(faquad_profile, mini.path, 20.0)
    drive = tm.Drive.from_schedule(sched)
    assert drive.t_f == 20.0
    A, B = drive.coeffs(0.0)
    assert_allclose(A, mini.path.A0, rtol=1e-12)
    assert_allclose(B, mini.path.B0, rtol=1e-6)
    assert drive.C == mini.path.C
    st = tm.Drive.static(HARMONIC, 5.0)
    A0, B0 = st.coeffs(0.0)
    A3, B3 = st.coeffs(3.0)
    assert float(A0) == float(A3) == 0.5
    assert float(B0) == float(B3) == 0.0
    assert st.C == 0.0
    # a schedule's step bound is the static rule at the stiffer end
    ends = [tm.Drive.static(p, 1.0).omega_max
            for p in (mini.path.initial, mini.path.final)]
    assert drive.omega_max == max(ends)
    # a duration must be finite and >= 0, omega_max finite and > 0
    for t_f, w in ((-1.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
                   (5.0, float("nan")), (5.0, float("inf")), (5.0, 0.0),
                   (5.0, -1.0)):
        with pytest.raises(PropagationError):
            tm.Drive(lambda t: t, lambda A: A, 0.0, t_f, w)
    with pytest.raises(PropagationError, match="t_f = -1"):
        tm.Drive.static(HARMONIC, -1.0)
    # bare potential parameters are not a drive: Drive.static holds them
    eig = tm.eigensolve(mini.path.initial, mini.grid, 3, refine=False)
    psi = tm.Wavefunction.from_eigenstate(eig, 0)
    with pytest.raises(PropagationError):
        tm.propagate(psi, HARMONIC, 0.005)


def test_fidelity_properties(grid, harmonic_eig):
    a = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    b = tm.Wavefunction.from_eigenstate(harmonic_eig, 1)
    assert_allclose(tm.fidelity(a, a), 1.0, atol=1e-12)
    assert tm.fidelity(a, b) < 1e-8  # orthogonal
    # fidelity is |<a|b>|, phase-blind
    rot = tm.Wavefunction(grid, a.values * np.exp(1j * 0.7))
    assert_allclose(tm.fidelity(rot, a), 1.0, atol=1e-12)
    other = tm.SpatialGrid(-10.0, 10.0, 256)
    c = tm.Wavefunction.normalized(other, np.exp(-0.5 * other.x**2))
    with pytest.raises(GridError):
        tm.fidelity(a, c)


def test_superposition_fidelity():
    assert tm.superposition_fidelity(1.0, 1.0) == 1.0
    assert tm.superposition_fidelity(0.9, 0.7) == pytest.approx(0.8)
    with pytest.raises(PropagationError):
        tm.superposition_fidelity(1.2, 0.5)
    with pytest.raises(PropagationError):
        tm.superposition_fidelity(-0.1, 0.5)
