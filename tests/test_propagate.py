"""Split-operator propagation: conservation laws, accuracy, reporting."""

import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph.errors import GridError, PropagationError

HARMONIC = tm.PotentialParams(0.5, 0.0, 0.0)  # omega = 1


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
    x0 = 2.0
    psi = tm.Wavefunction.normalized(grid, np.exp(-0.5 * (grid.x - x0) ** 2))
    buf = io.StringIO()
    tm.propagate(psi, tm.Drive.static(HARMONIC, 2.0 * np.pi), dt=0.005,
                 trajectory=buf, traj_stride=10)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,norm,mean_x,fidelity"
    rows = [ln.split(",") for ln in lines[1:]]
    ts = np.array([float(r[0]) for r in rows])
    mx = np.array([float(r[2]) for r in rows])
    assert ts[0] == 0.0
    assert_allclose(ts[-1], 2.0 * np.pi, rtol=1e-12)
    assert np.max(np.abs(mx - x0 * np.cos(ts))) < 1e-4
    norms = np.array([float(r[1]) for r in rows])
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_trajectory_fidelity_column(grid, harmonic_eig):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    buf = io.StringIO()
    tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=0.01, target=psi,
                 trajectory=buf, traj_stride=25)
    rows = [ln.split(",") for ln in buf.getvalue().splitlines()[1:]]
    fids = np.array([float(r[3]) for r in rows])
    # a stationary state only loses O(dt^2) overlap to splitting error
    assert np.all(fids > 1.0 - 1e-6)


def test_partial_final_step_lands_exactly(grid, harmonic_eig):
    # t_f deliberately not a multiple of dt
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    t_f = 1.2345
    buf = io.StringIO()
    rep = tm.propagate(psi, tm.Drive.static(HARMONIC, t_f), dt=0.01,
                       trajectory=buf, traj_stride=10**9)
    last_t = float(buf.getvalue().splitlines()[-1].split(",")[0])
    assert last_t == t_f
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


def test_dt_guard(grid, harmonic_eig, mini):
    psi = tm.Wavefunction.from_eigenstate(harmonic_eig, 0)
    with pytest.raises(PropagationError):
        tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=0.3)
    with pytest.raises(PropagationError):
        tm.propagate(psi, tm.Drive.static(HARMONIC, 1.0), dt=-0.1)


def test_schedule_convergence_in_dt(mini, mini_eigs, faquad_profile):
    # halving dt must not move the fidelity at the 1e-6 level
    eig0, eigf = mini_eigs
    psi0 = tm.Wavefunction.from_eigenstate(eig0, 2)
    target = tm.Wavefunction.from_eigenstate(eigf, 2)
    sched = tm.invert_profile(faquad_profile, mini.path, 30.0)
    F1 = tm.fidelity(tm.propagate(psi0, sched, 0.005).final_state, target)
    F2 = tm.fidelity(tm.propagate(psi0, sched, 0.0025).final_state, target)
    assert abs(F1 - F2) < 1e-6


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
