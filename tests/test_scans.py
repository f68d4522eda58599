"""Presets and fidelity-vs-duration experiments (CSV lane included)."""

import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph import kernels, scans
from trapmorph.errors import PropagationError, UsageError
from trapmorph.scans import (ScanResult, ScanRow, csv_preamble, csv_row_line,
                             emit_plot_script, read_csv)


# --- presets --------------------------------------------------------------

def test_mini_preset_constants(mini):
    assert mini.name == "mini"
    assert mini.units is None
    assert mini.n_target == 2
    assert mini.path.C == 0.09375
    assert mini.time_to_SI == 1.0
    assert mini.tf_window == (10.0, 2000.0)


def test_beryllium_preset_is_si():
    p = tm.beryllium_preset()
    assert p.units is not None
    assert_allclose(p.time_to_SI, 2.8213e-8, rtol=1e-4)
    assert p.n_target == 4
    assert_allclose(p.path.A0, -0.25, rtol=1e-12)
    # scan window is 20..200 us expressed internally
    assert_allclose(p.tf_window[0] * p.time_to_SI, 20e-6, rtol=1e-12)
    assert_allclose(p.tf_window[1] * p.time_to_SI, 200e-6, rtol=1e-12)


def test_with_target_rebuilds_bias(mini):
    p3 = tm.get_preset("mini", 3)
    assert p3.n_target == 3
    assert_allclose(p3.path.C, tm.bias_for_target(3, -0.25, 0.5 / 256.0),
                    rtol=1e-14)
    assert p3.k == 6
    with pytest.raises(UsageError):
        tm.get_preset("mini", 0)


def test_get_preset(mini):
    assert tm.get_preset("mini").path.C == mini.path.C
    assert tm.get_preset("mini", 4).n_target == 4
    with pytest.raises(UsageError):
        tm.get_preset("jumbo")


def test_default_tf_grid(mini):
    tfs = tm.default_tf_grid(mini)
    assert len(tfs) == 16
    assert tfs[0] == pytest.approx(10.0)
    assert tfs[-1] == pytest.approx(2000.0)
    # log-spaced: constant ratio
    r = tfs[1:] / tfs[:-1]
    assert_allclose(r, r[0], rtol=1e-12)


# --- scan results on the session fixtures ----------------------------------

def test_scan_rows_are_ordered_and_complete(faquad_scan, tf_grid):
    assert len(faquad_scan.rows) == len(tf_grid)
    ts = [r.t_f for r in faquad_scan.rows]
    assert ts == sorted(ts)
    assert all(r.error is None for r in faquad_scan.rows)
    assert faquad_scan.method == "faquad"
    assert "t_f_unit=dimensionless" in csv_preamble(faquad_scan.preset,
                                                    faquad_scan.method)


def test_scan_c_scales_inversely_with_duration(faquad_scan):
    prods = [r.c * r.t_f for r in faquad_scan.rows]
    assert_allclose(prods, prods[0], rtol=1e-12)


def test_superposition_average_column(faquad_scan):
    for r in faquad_scan.rows:
        assert_allclose(r.F_avg, 0.5 * (r.F_0 + r.F_n), rtol=1e-15)
        assert 0.0 <= r.F_n <= 1.0 and 0.0 <= r.F_0 <= 1.0


def test_linear_scan_has_no_c(linear_scan):
    assert all(math.isnan(r.c) for r in linear_scan.rows)
    assert all(math.isnan(r.F_0) for r in linear_scan.rows)  # no ground run


def test_fidelity_improves_with_adiabaticity(faquad_scan):
    # crude but physical: the longest run beats the shortest by a lot
    assert faquad_scan.rows[-1].F_n > 0.99
    assert faquad_scan.rows[0].F_n < 0.5


def test_best_row_and_threshold_semantics(mini):
    rows = (ScanRow(t_f=1.0, F_n=0.2), ScanRow(t_f=2.0, error="boom"),
            ScanRow(t_f=3.0, F_n=0.95), ScanRow(t_f=4.0, F_n=0.91))
    res = ScanResult(mini, "faquad", rows)
    assert res.best_row().t_f == 3.0
    assert res.threshold_tf(0.9) == 3.0
    assert math.isnan(res.threshold_tf(0.99))
    empty = ScanResult(mini, "faquad", (ScanRow(t_f=1.0, error="x"),))
    with pytest.raises(tm.TrapMorphError):
        empty.best_row()


# --- running scans ----------------------------------------------------------

def test_scan_rejects_bad_durations(mini):
    with pytest.raises(UsageError):
        tm.run_scan(mini, "linear", [])
    for bad in ([-3.0, 10.0], [math.nan, 10.0], [10.0, math.inf]):
        with pytest.raises(UsageError):
            tm.run_scan(mini, "linear", bad)
    with pytest.raises(UsageError):
        tm.run_scan(mini, "warp", [10.0])


@pytest.mark.parametrize("t_f", [-5.0, 0.0, math.nan, math.inf])
def test_demux_rejects_the_durations_a_scan_rejects(mini, t_f):
    with pytest.raises(UsageError) as scan_error:
        tm.run_scan(mini, "linear", [t_f])
    with pytest.raises(UsageError) as demux_error:
        tm.run_demultiplexing(mini, "linear", t_f)
    assert str(demux_error.value) == str(scan_error.value)


def test_scan_survives_row_failures(mini, mini_eigs, monkeypatch):
    # the t_f = 12 row fails inside the stack, then before it: a real
    # propagation failure is recorded with the message that a one-row
    # propagate of that job raises; any other exception with its type as
    # well; and the other rows of the stack go on in both cases
    real = scans.linear_schedule

    def nan_late(path, tf):
        # the real ramp, whose coefficient turns NaN from t = 6 on
        sched = real(path, tf)
        return tm.Drive(lambda t: np.where(t < 6.0, sched.A_of_t(t), np.nan),
                        path.beta, path.C, tf,
                        tm.Drive.from_schedule(sched).omega_max)

    psi0 = tm.Wavefunction.from_eigenstate(mini_eigs[0], mini.n_target)
    with pytest.raises(PropagationError) as alone:
        tm.propagate(psi0, nan_late(mini.path, 12.0), mini.dt)

    def zero_division(path, tf):
        raise ZeroDivisionError("synthetic failure")

    for broken, recorded in ((nan_late, str(alone.value)),
                             (zero_division,
                              "ZeroDivisionError: synthetic failure")):
        monkeypatch.setattr(
            scans, "linear_schedule",
            lambda path, tf: broken(path, tf) if tf == 12.0 else real(path, tf))
        res = tm.run_scan(mini, "linear", [10.0, 12.0, 15.0])
        assert [r.error is None for r in res.rows] == [True, False, True]
        assert res.rows[1].error == recorded
        assert res.best_row().t_f == 15.0


def test_scan_rows_report_their_work(linear_scan, faquad_scan, tf_grid, mini):
    # a row's steps are the state-steps of its propagations: one state
    # for F_n alone, two with the ground state; an off-grid t_f ends on
    # a partial step
    per_state = [math.ceil(t / mini.dt - 1e-9) for t in tf_grid]
    assert [r.steps for r in linear_scan.rows] == per_state
    assert [r.steps for r in faquad_scan.rows] == [2 * m for m in per_state]
    for r in linear_scan.rows + faquad_scan.rows:
        assert 0.0 <= r.norm_drift <= 1e-8


def test_progress_callback_streams_rows(mini):
    seen = []
    tm.run_scan(mini, "linear", [10.0, 12.0], progress=seen.append)
    assert [r.t_f for r in seen] == [10.0, 12.0]


def test_progress_sees_a_row_while_longer_rows_still_step(mini, monkeypatch):
    # count the stack's steps: the 1-unit row retires after a third of
    # the steps that the 3-unit row takes
    steps = []
    quartic = kernels.apply_quartic_phase

    def counted(*args):
        steps.append(None)
        return quartic(*args)

    monkeypatch.setattr(kernels, "apply_quartic_phase", counted)
    at_progress = []
    result = tm.run_scan(mini, "linear", [3.0, 1.0],
                         progress=lambda row: at_progress.append(
                             (row.t_f, len(steps))))
    short, long = (round(t / mini.dt) for t in (1.0, 3.0))
    assert at_progress == [(1.0, short), (3.0, long)] and len(steps) == long
    assert [r.t_f for r in result.rows] == [1.0, 3.0]


def test_errors_from_outside_a_row(mini, monkeypatch):
    # an exception from progress ends the scan, and progress sees no
    # more rows; one from the stack itself fails every row that it had
    # not settled, with that exception's message
    seen = []

    def stop(row):
        seen.append(row.t_f)
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        tm.run_scan(mini, "linear", [1.0, 2.0, 3.0], progress=stop)
    assert seen == [1.0]

    [alone] = tm.run_scan(mini, "linear", [1.0]).rows
    real = scans.propagate

    def settle_one_then_raise(states, drives, dt, on_row):
        on_row(0, real(states[0], drives[0], dt))
        raise RuntimeError("stack broke")

    monkeypatch.setattr(scans, "propagate", settle_one_then_raise)
    res = tm.run_scan(mini, "linear", [1.0, 2.0, 3.0])
    assert res.rows[0].error is None and res.rows[0].F_n == alone.F_n
    assert [r.error for r in res.rows[1:]] == ["RuntimeError: stack broke"] * 2


def test_designing_once_equals_designing_per_duration(mini, mini_eigs,
                                                      faquad_profile):
    # rescaling a designed schedule to a new duration gives the same
    # fidelity as inverting the profile directly at that duration
    eig0, eigf = mini_eigs
    psi0 = tm.Wavefunction.from_eigenstate(eig0, 2)
    target = tm.Wavefunction.from_eigenstate(eigf, 2)
    direct = tm.invert_profile(faquad_profile, mini.path, 30.0)
    double = tm.invert_profile(faquad_profile, mini.path, 60.0)
    rescaled = tm.Schedule(path=mini.path, t_f=30.0,
                           times=double.times * 0.5,
                           A_values=double.A_values.copy(),
                           method="faquad", c=double.c * 2.0)
    F1 = tm.fidelity(tm.propagate(psi0, direct, mini.dt).final_state, target)
    F2 = tm.fidelity(tm.propagate(psi0, rescaled, mini.dt).final_state,
                     target)
    assert abs(F1 - F2) < 1e-9


def test_demultiplexing_le_unity_and_adiabatic(mini, profile_cache):
    F_fwd, F_bwd = tm.run_demultiplexing(mini, "la", 120.0,
                                         cache_dir=profile_cache)
    assert 0.0 <= F_fwd <= 1.0 and 0.0 <= F_bwd <= 1.0
    assert abs(F_fwd - F_bwd) < 1e-6


# --- CSV ----------------------------------------------------------------

def test_csv_round_trip(faquad_scan):
    buf = io.StringIO()
    tm.emit_csv(faquad_scan, buf)
    text = buf.getvalue()
    assert text.splitlines()[1] == scans.CSV_HEADER
    meta, rows = read_csv(io.StringIO(text))
    assert "preset=mini" in meta and "method=faquad" in meta
    assert len(rows) == len(faquad_scan.rows)
    for got, row in zip(rows, faquad_scan.rows):
        # values are serialized at 12 significant digits
        assert_allclose(got[0], row.t_f, rtol=1e-11)
        assert_allclose(got[1], row.F_n, rtol=1e-11)
        assert_allclose(got[2], row.F_0, rtol=1e-11)
        assert_allclose(got[3], row.F_avg, rtol=1e-11)
        assert_allclose(got[4], row.c, rtol=1e-11)


def test_csv_deterministic(faquad_scan):
    a, b = io.StringIO(), io.StringIO()
    tm.emit_csv(faquad_scan, a)
    tm.emit_csv(faquad_scan, b)
    assert a.getvalue() == b.getvalue()


def test_csv_failed_rows_become_comments(mini):
    rows = (ScanRow(t_f=1.0, F_n=0.5, F_0=0.4, F_avg=0.45, c=2.0),
            ScanRow(t_f=2.0, error="synthetic failure"))
    res = ScanResult(mini, "faquad", rows)
    buf = io.StringIO()
    tm.emit_csv(res, buf)
    lines = buf.getvalue().splitlines()
    assert lines[-1].startswith("# t_f=2 failed: synthetic failure")
    meta, parsed = read_csv(io.StringIO(buf.getvalue()))
    assert len(parsed) == 1  # comment row skipped on parse


def test_csv_si_scaling():
    rows = (ScanRow(t_f=1000.0, F_n=0.5, c=2.0),)
    res = ScanResult(tm.beryllium_preset(), "faquad", rows)
    line = csv_row_line(rows[0], res.preset.time_to_SI)
    assert line.startswith("2.82134512885e-05,")  # seconds, 12 digits
    pre = csv_preamble(res.preset, res.method)
    assert "t_f_unit=s" in pre


def test_missing_fields_stay_empty():
    line = csv_row_line(ScanRow(t_f=10.0, F_n=0.25, c=1.5), 1.0)
    assert line == "10,0.25,,,1.5\n"


def test_plot_script_mentions_csv():
    buf = io.StringIO()
    emit_plot_script("scan.csv", buf, title="demo")
    s = buf.getvalue()
    assert "'scan.csv' using 1:2" in s and "logscale x" in s
