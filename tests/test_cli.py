"""Command-line interface: parsing, exit codes, file outputs."""

import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph import cli, scans
from trapmorph.errors import PropagationError, UsageError
from trapmorph.schedule import Schedule


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- presets ----------------------------------------------------------------

def test_presets_list(capsys):
    code, out, _ = run(["presets", "list"], capsys)
    assert code == 0
    names = [ln.split()[0] for ln in out.splitlines()]
    assert "mini" in names and "beryllium" in names
    assert any("dimensionless" in ln for ln in out.splitlines())
    assert any("(SI)" in ln for ln in out.splitlines())


def test_presets_unknown_action(capsys):
    code, _, err = run(["presets", "frobnicate"], capsys)
    assert code == 2


# --- eigen -------------------------------------------------------------------

def test_eigen_inline_harmonic(capsys):
    code, out, _ = run(["eigen", "--inline", "A=0.5,B=0,C=0", "--k", "3"],
                       capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    vals = np.array([[float(v) for v in ln.split()] for ln in lines])
    assert_allclose(vals[:, 1], [0.5, 1.5, 2.5], rtol=1e-6)
    assert out.splitlines()[0].startswith("# j E mean_x")


def test_eigen_custom_grid(capsys):
    code, out, _ = run(["eigen", "--inline", "A=0.5,B=0,C=0", "--k", "2",
                        "--grid=-10:10:1024"], capsys)
    assert code == 0
    e0 = float(out.splitlines()[1].split()[1])
    assert_allclose(e0, 0.5, rtol=1e-6)


def test_eigen_bad_inputs(capsys):
    assert run(["eigen", "--preset", "nope"], capsys)[0] == 2
    assert run(["eigen", "--inline", "A=0.5"], capsys)[0] == 2
    assert run(["eigen", "--inline", "A=0.5,B=0", "--grid", "bogus"],
               capsys)[0] == 2
    # a grid that SpatialGrid refuses is a bad flag value too
    for grid in ("20:-20:512", "-20:20:8", "-inf:20:512", "nan:20:512"):
        code, _, err = run(["eigen", "--grid=" + grid], capsys)
        assert code == 2 and err.startswith("usage error: bad --grid"), grid
    # so is a trap that PotentialParams refuses, or a repeated key
    for spec in ("A=nan,B=1", "A=1,B=-1", "A=1,A=2,B=0"):
        code, _, err = run(["eigen", "--inline", spec], capsys)
        assert code == 2 and err.startswith("usage error: bad --inline"), spec
    # a trap with no bound states is refused before any eigensolve, for
    # that reason and not the grid's size
    for spec in ("A=-0.5,B=0", "A=0,B=0", "A=0,B=0,C=0.1", "A=-0.5,B=-0"):
        code, _, err = run(["eigen", "--inline", spec], capsys)
        assert code == 2 and err.startswith("usage error: bad --inline"), spec
        assert "no bound states" in err and "grid" not in err, spec
    # a double well and a quartic well with A = 0 are bound
    for spec in ("A=-0.5,B=0.01", "A=0,B=0.01"):
        assert run(["eigen", "--inline", spec], capsys)[0] == 0, spec
    # presets are retargeted to n >= 1 only; --inline holds unbiased traps
    for n in ("0", "-1"):
        code, _, err = run(["eigen", "--n", n], capsys)
        assert code == 2 and "usage error:" in err
    # more levels than the grid holds is a bad flag too (512 // 4 = 128)
    for k in ("0", "200"):
        code, _, err = run(["eigen", "--k", k], capsys)
        assert code == 2 and "usage error:" in err
    # eigen reads no profile cache, so it takes no --cache-dir
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigen", "--k", "2", "--cache-dir", "cache"])
    assert exc.value.code == 2


# --- design -------------------------------------------------------------------

def test_design_writes_schedule(tmp_path, capsys, profile_cache):
    out_path = str(tmp_path / "sched.txt")
    code, out, _ = run(["design", "--preset", "mini", "--tf", "200",
                        "--out", out_path, "--cache-dir", profile_cache],
                       capsys)
    assert code == 0
    assert "method=faquad" in out and "t_f=200" in out
    text = open(out_path).read()
    sched = Schedule.from_text(text)
    assert sched.t_f == 200.0
    assert sched.A_values[0] == -0.25 and sched.A_values[-1] == 0.5
    assert_allclose(sched.c, float(out.split("c=")[1].split()[0]), rtol=1e-10)


def test_design_self_similarity_via_files(tmp_path, capsys, profile_cache):
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    run(["design", "--preset", "mini", "--tf", "100", "--out", p1,
         "--cache-dir", profile_cache], capsys)
    run(["design", "--preset", "mini", "--tf", "200", "--out", p2,
         "--cache-dir", profile_cache], capsys)
    s1 = Schedule.from_text(open(p1).read())
    s2 = Schedule.from_text(open(p2).read())
    assert np.array_equal(s1.A_values, s2.A_values)
    assert_allclose(s2.times, 2.0 * s1.times, rtol=1e-12, atol=1e-12)


def test_design_linear(tmp_path, capsys):
    out_path = str(tmp_path / "lin.txt")
    code, out, _ = run(["design", "--preset", "mini", "--method", "linear",
                        "--tf", "50", "--out", out_path], capsys)
    assert code == 0
    assert "c=none" in out
    sched = Schedule.from_text(open(out_path).read())
    assert sched.c is None


def test_design_prints_t_f_in_the_preset_unit(tmp_path, capsys):
    # printed in seconds, as scan and --demux print it; the schedule file
    # keeps internal units, as its header does
    out_path = str(tmp_path / "be.txt")
    code, out, _ = run(["design", "--preset", "beryllium", "--method",
                        "linear", "--tf", "20us", "--out", out_path], capsys)
    assert code == 0
    assert_allclose(float(out.split("t_f=")[1].split()[0]), 2e-05,
                     rtol=1e-12)
    sched = Schedule.from_text(open(out_path).read())
    assert_allclose(sched.t_f * tm.beryllium_preset().time_to_SI, 2e-05,
                    rtol=1e-12)


def test_design_si_suffix_rejected_for_dimensionless(tmp_path, capsys):
    code, _, err = run(["design", "--preset", "mini", "--tf", "20us",
                        "--out", str(tmp_path / "x.txt")], capsys)
    assert code == 2


def test_design_too_short_exits_1(tmp_path, capsys):
    code, _, err = run(["design", "--preset", "mini", "--method", "linear",
                        "--tf", "1e-200", "--out", str(tmp_path / "x.txt")],
                       capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_duration_parsing_for_si_presets():
    be = tm.beryllium_preset()
    tf = cli._parse_duration("20us", be)
    assert_allclose(tf * be.time_to_SI, 20e-6, rtol=1e-12)
    assert_allclose(cli._parse_duration("1ms", be) * be.time_to_SI,
                    1e-3, rtol=1e-12)
    mini = tm.mini_preset()
    assert cli._parse_duration("150", mini) == 150.0
    for bad in ("abc", "nan", "inf", "-inf", "0", "-3", "1e999"):
        with pytest.raises(UsageError):
            cli._parse_duration(bad, mini)
    for bad in ("nanus", "0us", "1e999us"):
        with pytest.raises(UsageError):
            cli._parse_duration(bad, be)


def test_non_finite_durations_exit_2(tmp_path, capsys):
    for argv in (["design", "--tf", "nan"], ["design", "--tf", "inf"],
                 ["design", "--method", "linear", "--tf", "nan"],
                 ["scan", "--method", "linear", "--tf", "nan,10"],
                 ["scan", "--method", "linear", "--tf-range", "nan:10:3"],
                 ["scan", "--method", "linear", "--demux", "--tf", "inf"]):
        out = str(tmp_path / "out.txt")
        code, _, err = run(argv + ["--preset", "mini", "--out", out], capsys)
        assert code == 2, argv
        assert err.startswith("usage error: ")


def test_empty_tf_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an empty list is not "no list": it must not fall back to the default grid
    def never(*args, **kwargs):
        raise AssertionError("run_scan called")
    monkeypatch.setattr(cli, "run_scan", never)
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[scan]\ntf =\n")
    for argv in (["scan", "--tf", ""], ["scan", "--tf-range", ""],
                 ["scan", "--tf", "", "--tf-range", "10:20:3"],
                 ["--config", str(cfg), "scan"]):
        out = str(tmp_path / "out.csv")
        code, _, err = run(argv + ["--preset", "mini", "--method", "linear",
                                   "--out", out], capsys)
        assert code == 2, argv
        assert err.startswith("usage error: ")


# --- scan ---------------------------------------------------------------------

def test_scan_writes_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "scan.csv")
    code, out, err = run(["scan", "--preset", "mini", "--method", "linear",
                          "--tf", "10,15", "--out", out_csv], capsys)
    assert code == 0
    assert "best t_f=" in out
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("# trapmorph scan: preset=mini method=linear")
    assert lines[1] == "t_f,F_n,F_0,F_avg,c"
    assert len(lines) == 4
    assert "row t_f=10" in err  # progress is streamed to stderr


def test_scan_writes_the_library_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "scan.csv")
    code, _, _ = run(["scan", "--preset", "mini", "--method", "linear",
                      "--tf", "10,12.3457,15", "--out", out_csv], capsys)
    assert code == 0
    buf = io.StringIO()
    scans.emit_csv(scans.run_scan(tm.mini_preset(), "linear",
                                  [10, 12.3457, 15]), buf)
    assert open(out_csv).read() == buf.getvalue()


def test_scan_jobs_flag_is_accepted(tmp_path, capsys):
    # rows always run serially; --jobs N changes nothing in the output
    texts = []
    for jobs in ("1", "2"):
        out_csv = str(tmp_path / ("jobs%s.csv" % jobs))
        code, _, _ = run(["scan", "--preset", "mini", "--method", "linear",
                          "--tf", "10,12", "--jobs", jobs, "--out", out_csv],
                         capsys)
        assert code == 0
        texts.append(open(out_csv).read())
    assert texts[0] == texts[1]


def test_scan_tf_range(tmp_path, capsys):
    out_csv = str(tmp_path / "r.csv")
    code, _, _ = run(["scan", "--preset", "mini", "--method", "linear",
                      "--tf-range", "10:20:3", "--out", out_csv], capsys)
    assert code == 0
    rows = [ln for ln in open(out_csv).read().splitlines()
            if ln and not ln.startswith("#") and ln != "t_f,F_n,F_0,F_avg,c"]
    ts = [float(r.split(",")[0]) for r in rows]
    assert_allclose(ts, np.geomspace(10.0, 20.0, 3), rtol=1e-10)
    # --tf beside --tf-range is refused, not dropped
    code, _, err = run(["scan", "--preset", "mini", "--method", "linear",
                        "--tf", "15", "--tf-range", "10:20:3",
                        "--out", out_csv], capsys)
    assert code == 2 and "usage error:" in err


def test_scan_plot_script(tmp_path, capsys):
    out_csv = str(tmp_path / "p.csv")
    gp = str(tmp_path / "p.gp")
    code, _, _ = run(["scan", "--preset", "mini", "--method", "linear",
                      "--tf", "12", "--out", out_csv, "--plot-script", gp],
                     capsys)
    assert code == 0
    assert out_csv in open(gp).read()


def test_scan_demux(capsys, mini, profile_cache):
    # an off-grid t_f runs, and prints, rounded to whole steps of the
    # preset's dt, so the backward run retraces the forward one
    off_grid = "%.12g" % scans.on_step_grid(41.0837, mini.dt)
    assert off_grid != "41.0837"
    for tf, ran in (("90", "90"), ("41.0837", off_grid)):
        code, out, _ = run(["scan", "--preset", "mini", "--method", "la",
                            "--demux", "--tf", tf, "--cache-dir",
                            profile_cache], capsys)
        assert code == 0
        assert out.startswith("demux t_f=%s " % ran)
        parts = dict(kv.split("=") for kv in out.split() if "=" in kv)
        assert abs(float(parts["F_forward"])
                   - float(parts["F_backward"])) <= 1e-12


def test_scan_demux_wants_single_tf(capsys):
    code, _, _ = run(["scan", "--preset", "mini", "--demux",
                      "--tf", "10,20"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag", [["--out", "x.csv"],
                                  ["--plot-script", "x.gp"],
                                  ["--superposition"]])
def test_scan_demux_refuses_flags_it_ignores(tmp_path, monkeypatch, capsys,
                                             flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["scan", "--preset", "mini", "--method", "linear",
                          "--demux", "--tf", "15"] + flag, capsys)
    assert code == 2 and out == ""
    assert err == ("usage error: --demux prints its result and takes no %s\n"
                   % flag[0])
    assert list(tmp_path.iterdir()) == []


def test_scan_superposition_columns(tmp_path, capsys):
    out_csv = str(tmp_path / "s.csv")
    code, _, _ = run(["scan", "--preset", "mini", "--method", "linear",
                      "--tf", "15", "--superposition", "--out", out_csv],
                     capsys)
    assert code == 0
    row = open(out_csv).read().splitlines()[-1].split(",")
    F_n, F_0, F_avg = float(row[1]), float(row[2]), float(row[3])
    assert_allclose(F_avg, 0.5 * (F_0 + F_n), rtol=1e-10)


def test_scan_with_every_row_failed_exits_1(tmp_path, capsys, monkeypatch):
    def broken(psi0, drive, dt, on_row=None):
        raise PropagationError("synthetic failure")

    monkeypatch.setattr(scans, "propagate", broken)
    out_csv = str(tmp_path / "f.csv")
    code, out, err = run(["scan", "--preset", "mini", "--method", "linear",
                          "--tf", "10,12", "--out", out_csv], capsys)
    assert code == 1 and out == ""
    assert err.endswith("error: scan produced no successful rows\n")
    comments = [ln for ln in open(out_csv).read().splitlines()
                if ln.startswith("# t_f=")]
    assert comments == ["# t_f=10 failed: synthetic failure",
                        "# t_f=12 failed: synthetic failure"]


@pytest.mark.parametrize("argv", [
    ["scan", "--method", "linear", "--tf", "10", "--out", "{missing}/x.csv"],
    ["scan", "--method", "linear", "--tf", "10", "--out", "{tmp}/x.csv",
     "--plot-script", "{missing}/x.gp"],
    ["design", "--tf", "20", "--out", "{missing}/s.txt",
     "--cache-dir", "{cache}"],
])
def test_unwritable_output_is_an_error_not_a_traceback(argv, tmp_path, capsys,
                                                       profile_cache):
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path,
                     cache=profile_cache) for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.splitlines()[-1].startswith("error: ")
    assert "No such file or directory" in err
    if "--plot-script" in argv:  # refused before any row ran
        assert "row t_f=" not in err
        assert not (tmp_path / "x.csv").exists()


# --- config file ---------------------------------------------------------------

def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "trapmorph.ini"
    out_csv = str(tmp_path / "c.csv")
    cfg.write_text("[scan]\nmethod = linear\ntf = 11,14\n")
    for config in (["--config", str(cfg)], ["--config=%s" % cfg]):
        code, out, _ = run(config + ["scan", "--preset", "mini",
                                     "--out", out_csv], capsys)
        assert code == 0
        rows = [ln for ln in open(out_csv).read().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("t_f")]
        assert len(rows) == 2
        assert float(rows[0].split(",")[0]) == 11.0


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "trapmorph.ini"
    out_csv = str(tmp_path / "d.csv")
    cfg.write_text("[scan]\nmethod = linear\ntf = 11,14\n")
    code, _, _ = run(["--config", str(cfg), "scan", "--preset", "mini",
                      "--tf", "16", "--out", out_csv], capsys)
    assert code == 0
    rows = [ln for ln in open(out_csv).read().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("t_f")]
    assert len(rows) == 1
    assert float(rows[0].split(",")[0]) == 16.0


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[scan]\nwarp_factor = 9\n")
    code, _, _ = run(["--config", str(cfg), "scan", "--preset", "mini",
                      "--tf", "10"], capsys)
    assert code == 2
    # a value of the wrong type fails like the same bad flag
    for argv, line in ((["eigen"], "k = abc"),
                       (["scan", "--tf", "10"], "superposition = maybe")):
        cfg.write_text("[%s]\n%s\n" % (argv[0], line))
        code, _, err = run(["--config", str(cfg)] + argv, capsys)
        assert code == 2 and err.startswith("usage error:")
        assert line in err
    # a file that is not INI fails the same way; '%' is an ordinary character
    cfg.write_text("k = 3\n")
    assert run(["--config", str(cfg), "eigen"], capsys)[0] == 2
    out_csv = tmp_path / "100%.csv"
    cfg.write_text("[scan]\nout = %s\n" % out_csv)
    code, _, _ = run(["--config", str(cfg), "scan", "--method", "linear",
                      "--tf", "10"], capsys)
    assert code == 0 and out_csv.exists()


def test_config_supplies_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "design.ini"
    from_cfg, from_flags = tmp_path / "cfg.txt", tmp_path / "flags.txt"
    cfg.write_text("[design]\ntf = 120\nmethod = linear\nout = %s\n"
                   % from_cfg)
    code, _, err = run(["--config", str(cfg), "design"], capsys)
    assert code == 0, err
    code, _, _ = run(["design", "--tf", "120", "--method", "linear",
                      "--out", str(from_flags)], capsys)
    assert code == 0
    assert from_cfg.read_bytes() == from_flags.read_bytes()
    with pytest.raises(SystemExit) as exc:  # still required without it
        cli.main(["design", "--out", str(from_flags)])
    assert exc.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    for config in (["--config", missing], ["--config=" + missing],
                   ["--config="]):
        code, _, err = run(config + ["presets", "list"], capsys)
        assert code == 2, config
        assert "not found" in err


def test_config_anywhere_and_last_wins(tmp_path, capsys):
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    out_csv = tmp_path / "a.csv"
    good.write_text("[scan]\nmethod = linear\ntf = 11\n")
    code, _, _ = run(["scan", "--config", str(good), "--preset", "mini",
                      "--out", str(out_csv)], capsys)
    assert code == 0
    assert "method=linear" in out_csv.read_text()
    assert out_csv.read_text().splitlines()[-1].startswith("11,")
    good.write_text("[eigen]\nk = 2\n")
    bad.write_text("[eigen]\nk = abc\n")
    for argv in (["eigen", "--config=%s" % good],
                 ["--config", str(bad), "eigen", "--config", str(good)]):
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert len(out.splitlines()) == 3  # header and k = 2 levels
    code, _, err = run(["--config", str(good), "eigen", "--config", str(bad)],
                       capsys)
    assert code == 2 and "k = abc" in err


def test_config_without_a_path(capsys):
    for argv in (["eigen", "--config"], ["--config", "--k", "3", "eigen"]):
        code, _, err = run(argv, capsys)
        assert code == 2, argv
        assert err == "usage error: --config needs a file path\n"


def test_config_is_not_abbreviated(tmp_path, capsys):
    cfg = tmp_path / "x.ini"
    cfg.write_text("[presets]\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--conf", str(cfg), "presets"])
    assert exc.value.code == 2
    # a subcommand's own options still abbreviate
    ap, _ = cli._build_parser()
    assert ap.parse_args(["scan", "--c", "d"]).cache_dir == "d"
