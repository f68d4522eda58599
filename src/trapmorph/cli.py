"""Command-line front end.

Subcommands:

  eigen    - print eigenenergies and localization of a preset or inline trap
  design   - design a schedule, write its text serialization, print c
  scan     - fidelity-vs-duration scans (optionally superposition / demux),
             CSV rows written in ascending t_f once the scan's stack ends
  presets  - list the shipped presets

Exit codes: 0 success, 1 runtime/model error or an output file that
cannot be written, 2 usage error.  Standard output carries
machine-readable results; progress goes to standard error.

A config file (--config FILE, INI-style ``[subcommand]`` sections with
``key = value`` lines named after the long options) supplies defaults;
explicit flags override it.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import numpy as np

from .eigen import eigensolve, localization, max_levels
from .errors import GridError, TrapMorphError, UsageError
from .grid import SpatialGrid
from .potential import PotentialParams
from .scans import (METHODS, PRESETS, csv_preamble, csv_row_line,
                    default_tf_grid, emit_plot_script, get_preset,
                    on_step_grid, run_demultiplexing, run_scan,
                    schedule_factory)

_TIME_SUFFIXES = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def _parse_duration(token: str, preset) -> float:
    """One positive, finite duration; SI presets also take a time suffix."""
    token = token.strip()
    body, suffix = token, None
    for suf in _TIME_SUFFIXES:  # "s" comes last, after the longer suffixes
        if token.endswith(suf) and token[: -len(suf)].strip():
            body, suffix = token[: -len(suf)], suf
            break
    try:
        val = float(body)
    except ValueError:
        raise UsageError("cannot parse duration %r" % token) from None
    if suffix is not None:
        if preset.units is None:
            raise UsageError(
                "preset %r is dimensionless; give plain durations"
                % preset.name
            )
        val = val * _TIME_SUFFIXES[suffix] / preset.time_to_SI
    if not (math.isfinite(val) and val > 0.0):
        raise UsageError("duration %r must be positive and finite" % token)
    return val


def _parse_tf_spec(args, preset) -> list:
    if args.tf_range is not None:
        parts = args.tf_range.split(":")
        if len(parts) != 3:
            raise UsageError("--tf-range wants START:STOP:COUNT")
        lo = _parse_duration(parts[0], preset)
        hi = _parse_duration(parts[1], preset)
        try:
            count = int(parts[2])
        except ValueError:
            raise UsageError("--tf-range COUNT must be an integer") from None
        if not (0 < lo < hi) or count < 2:
            raise UsageError("--tf-range needs 0 < START < STOP and COUNT >= 2")
        return list(np.geomspace(lo, hi, count))  # log-spaced, as documented
    if args.tf is not None:
        return [_parse_duration(t, preset) for t in args.tf.split(",")]
    return list(default_tf_grid(preset))


def _parse_inline(spec: str) -> PotentialParams:
    vals = {}
    for part in spec.split(","):
        key, _, val = part.partition("=")
        key = key.strip().upper()
        if key not in ("A", "B", "C") or not val:
            raise UsageError("--inline wants A=..,B=..[,C=..], got %r" % spec)
        try:
            vals[key] = float(val)
        except ValueError:
            raise UsageError("bad number in --inline: %r" % part) from None
    if "A" not in vals or "B" not in vals:
        raise UsageError("--inline needs at least A= and B=")
    return PotentialParams(vals["A"], vals["B"], vals.get("C", 0.0))


def _parse_grid(spec: str) -> SpatialGrid:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError("--grid wants XMIN:XMAX:NPOINTS")
    try:
        return SpatialGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        raise UsageError("bad --grid %r" % spec) from None
    except GridError as exc:
        raise UsageError("bad --grid %r: %s" % (spec, exc)) from None


def cmd_eigen(args) -> int:
    if args.inline:
        params = _parse_inline(args.inline)
        grid = _parse_grid(args.grid) if args.grid else SpatialGrid(-20.0, 20.0, 512)
    else:
        preset = get_preset(args.preset, args.n)
        params = preset.path.initial
        grid = preset.grid if not args.grid else _parse_grid(args.grid)
    k = args.k
    if not 1 <= k <= max_levels(grid):
        raise UsageError("--k must be in 1..%d for %d grid points, got %d"
                         % (max_levels(grid), grid.n, k))
    eig = eigensolve(params, grid, k, refine=True)
    print("# j E mean_x prob_right")
    for j in range(k):
        mx, pr = localization(eig, j)
        print("%d %.12g %.12g %.12g" % (j, eig.energies[j], mx, pr))
    return 0


def cmd_design(args) -> int:
    preset = get_preset(args.preset, args.n)
    tf = _parse_duration(args.tf, preset)
    sched = schedule_factory(preset, args.method, args.cache_dir)(tf)
    with open(args.out, "w") as fp:
        fp.write(sched.to_text())  # internal units, as its header records
    print("method=%s t_f=%.12g c=%s out=%s"
          % (sched.method, sched.t_f * preset.time_to_SI,
             "none" if sched.c is None else "%.12g" % sched.c, args.out))
    return 0


def cmd_scan(args) -> int:
    preset = get_preset(args.preset, args.n)
    if args.tf is not None and args.tf_range is not None:
        raise UsageError("give --tf or --tf-range, not both")
    if args.demux:
        for flag, given in (("--out", args.out),
                            ("--plot-script", args.plot_script),
                            ("--superposition", args.superposition)):
            if given:
                raise UsageError("--demux prints its result and takes no %s"
                                 % flag)
        if not args.tf or "," in args.tf:
            raise UsageError("--demux wants a single --tf value")
        tf = on_step_grid(_parse_duration(args.tf, preset), preset.dt)
        F_fwd, F_bwd = run_demultiplexing(preset, args.method, tf,
                                          cache_dir=args.cache_dir)
        print("demux t_f=%.12g F_forward=%.12g F_backward=%.12g"
              % (tf * preset.time_to_SI, F_fwd, F_bwd))
        return 0

    tfs = _parse_tf_spec(args, preset)
    out = args.out or ("scan_%s_%s.csv" % (preset.name, args.method))
    if args.plot_script:  # names only the CSV path, so it fails before any row
        with open(args.plot_script, "w") as pfp:
            emit_plot_script(out, pfp,
                             title="%s / %s" % (preset.name, args.method))
    with open(out, "w") as fp:
        fp.write(csv_preamble(preset, args.method))
        fp.flush()

        def progress(row):
            fp.write(csv_row_line(row, preset.time_to_SI))
            fp.flush()  # keep partial CSV valid if interrupted
            if row.error is None:
                sys.stderr.write("row t_f=%.6g F_n=%.6g\n" % (row.t_f, row.F_n))
            else:
                sys.stderr.write("row t_f=%.6g FAILED: %s\n"
                                 % (row.t_f, row.error))
            sys.stderr.flush()

        result = run_scan(preset, args.method, tfs,
                          include_ground=args.superposition,
                          cache_dir=args.cache_dir,
                          progress=progress)
    best = result.best_row()  # raises when every row failed
    print("best t_f=%.12g F_n=%.12g out=%s"
          % (best.t_f * preset.time_to_SI, best.F_n, out))
    return 0


def cmd_presets(args) -> int:
    if args.action != "list":
        raise UsageError("unknown presets action %r (try: list)" % args.action)
    for name in sorted(PRESETS):
        p = PRESETS[name]()
        unit = "SI" if p.units is not None else "dimensionless"
        print("%s n=%d grid=[%g,%g]x%d dt=%g window=[%g,%g] (%s)"
              % (name, p.n_target, p.grid.x_min, p.grid.x_max, p.grid.n,
                 p.dt, p.tf_window[0], p.tf_window[1], unit))
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="trapmorph",
        description="Trap-deformation schedule design and verification.",
        allow_abbrev=False,
    )
    ap.add_argument("--config", help="INI config file; flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", default="mini",
                       help="preset name (see `presets list`)")
        p.add_argument("--n", type=int, default=None,
                       help="override the preset target level (n >= 1)")
        p.add_argument("--cache-dir", default=None,
                       help="profile cache directory (default: "
                            "$TRAPMORPH_CACHE_DIR or ~/.cache/trapmorph)")

    pe = sub.add_parser("eigen", help="print energies and localization")
    common(pe)
    pe.add_argument("--k", type=int, default=6, help="number of levels")
    pe.add_argument("--inline", default=None,
                    help="inline trap A=..,B=..[,C=..] instead of a preset")
    pe.add_argument("--grid", default=None,
                    help="XMIN:XMAX:NPOINTS (write --grid=-20:20:512)")
    pe.set_defaults(fn=cmd_eigen)

    pd = sub.add_parser("design", help="design and serialize a schedule")
    common(pd)
    pd.add_argument("--method", default="faquad", choices=METHODS)
    pd.add_argument("--tf", required=True, help="duration (SI suffix ok)")
    pd.add_argument("--out", default="schedule.txt")
    pd.set_defaults(fn=cmd_design)

    ps = sub.add_parser("scan", help="fidelity vs duration")
    common(ps)
    ps.add_argument("--method", default="faquad", choices=METHODS)
    ps.add_argument("--tf", default=None,
                    help="comma list of durations, or single value for --demux")
    ps.add_argument("--tf-range", default=None,
                    help="START:STOP:COUNT, log-spaced (SI suffixes ok)")
    ps.add_argument("--superposition", action="store_true",
                    help="also propagate the ground state (F_0 column)")
    ps.add_argument("--demux", action="store_true",
                    help="forward/backward fidelity pair at a single --tf")
    ps.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; rows run as one stack")
    ps.add_argument("--out", default=None, help="CSV path")
    ps.add_argument("--plot-script", default=None,
                    help="write a gnuplot command file referencing the CSV")
    ps.set_defaults(fn=cmd_scan)

    pp = sub.add_parser("presets", help="list shipped presets")
    pp.add_argument("action", nargs="?", default="list")
    pp.set_defaults(fn=cmd_presets)
    return ap, sub


def _apply_config(sub, argv) -> list:
    """Inject config-file values as subparser defaults (flags still win;
    a required flag that the config sets is no longer required).
    Takes `--config FILE` and `--config=FILE` anywhere; the last one wins."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    try:
        opts, rest = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        raise UsageError("--config needs a file path") from None
    if opts.config is None:
        return rest
    cp = configparser.ConfigParser(interpolation=None)  # values as typed
    try:
        read = cp.read(opts.config)
    except configparser.Error as exc:
        raise UsageError("config file %r: %s" % (opts.config, exc)) from None
    if not read:
        raise UsageError("config file %r not found" % opts.config)
    if not rest:
        raise UsageError("--config needs a subcommand")
    command = rest[0]
    if command not in sub.choices or not cp.has_section(command):
        return rest
    actions = {opt.lstrip("-"): action
               for action in sub.choices[command]._actions
               for opt in action.option_strings}
    unknown = set(cp.options(command)) - actions.keys()
    if unknown:
        raise UsageError("unknown config keys in [%s]: %s"
                         % (command, ", ".join(sorted(unknown))))
    for key in cp.options(command):
        action, value = actions[key], cp.get(command, key)
        try:
            if isinstance(action, argparse._StoreTrueAction):
                action.default = cp.getboolean(command, key)
            elif action.type is int:
                action.default = int(value)
            else:
                action.default = value
        except ValueError:
            raise UsageError("bad value in config [%s]: %s = %s"
                             % (command, key, value)) from None
        action.required = False  # the config supplies it
    return rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, sub = _build_parser()
    try:
        argv = _apply_config(sub, argv)
        args = ap.parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be >= 1")
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 2
    except (TrapMorphError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
