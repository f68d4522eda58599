"""trapmorph benchmark: one workload, metrics as JSON.

    python3 perfbench/run.py --workload design-cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; trapmorph is imported from its
``src`` directory, nothing is installed.  Workloads, metric names and units
come from BENCHMARK.json next to ``perfbench``.  With ``--trace 0`` the
last line of standard output carries every end-to-end metric, with
``--trace 1`` every per-layer metric from a traced run:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

An untraced run starts three worker processes of this script, one after
the other.  Each sets the workload up from process start and reports when
it is ready; ``setup_s`` is the median of those three times, and a figure
the workload takes during set-up (``design_s`` on scan-warm) is the median
of the three workers' values.  The first two
then exit, the third goes on to the timed passes and the checks.  A traced
run does everything in this process.

Lines before the result give the run environment and a readable summary.
Each run also leaves ``.perfbench_out/runs/<workload>-seed<S>-trace<T>-<pid>/``
with ``result.json`` (environment, metrics, per-pass figures, failures;
what compare.py reads) and, when traced, ``spans.npz``.  The profile caches
the run creates there are deleted at exit.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 3  # worker processes per untraced run; setup_s is their median
DEADLINE_S = 170.0  # an untraced run gives up (exit 3) after this long
READY = "#ready"


def parse_args(argv):
    ap = argparse.ArgumentParser(description="trapmorph benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (smoke test); figures not comparable")
    ap.add_argument("--worker", action="store_true",
                    help="be one worker of an untraced run: set up, print "
                         + READY + " and the set-up figures, then measure "
                         "(no setup_s)")
    ap.add_argument("--setup-only", action="store_true",
                    help="as a worker, exit once set up")
    ap.add_argument("--rundir", help="as a worker, the run directory to use")
    return ap.parse_args(argv)


def environment():
    import numpy
    import scipy
    import trapmorph

    return {
        "kernel_backend": trapmorph.kernel_backend,
        "TRAPMORPH_KERNELS": os.environ.get("TRAPMORPH_KERNELS"),
        "TRAPMORPH_CACHE_DIR": os.environ.get("TRAPMORPH_CACHE_DIR"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_passes(workload, seconds):
    """Whole passes while the next one is expected to fit; at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        res = workload.run_pass()
        res["wall_s"] = time.perf_counter() - p0
        passes.append(res)
        if time.perf_counter() - t0 + res["wall_s"] > seconds:
            return passes


def measure(w, args):
    """Untraced worker: set up, say so, then the end-to-end metrics other
    than setup_s (which the launching process times)."""
    w.setup()
    print(READY, json.dumps(w.setup_metrics), flush=True)
    if args.setup_only:
        return None, [], {}
    passes = timed_passes(w, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: statistics.median(v for p in passes for v in p[name])
               for name in ("design_s", "scan_s", "steps_per_s")}
    metrics["peak_rss_mb"] = rss_mb
    return metrics, passes, {}


def traced(w, args, rundir):
    """Traced run: one set-up and the timed passes traced, with one
    untraced pass in between to measure the tracing overhead."""
    import spans

    tracer = spans.Tracer()
    w.ctx.tracer = tracer
    tracer.install()
    with tracer.span("bench.setup"):
        w.setup()
    tracer.uninstall()
    w.ctx.tracer = spans.NullTracer()
    untraced = timed_passes(w, 0.0)[0]
    w.ctx.tracer = tracer
    tracer.phase = "pass"

    class TracedPass:
        def run_pass(self):
            with tracer.span("bench.pass"):
                return w.run_pass()

    tracer.install()
    passes = timed_passes(TracedPass(), args.seconds)
    tracer.uninstall()
    metrics, extra = spans.layer_metrics(tracer, len(passes), w.jobs)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in passes) - untraced["wall_s"])
    extra["untraced_pass"] = untraced
    tracer.write(rundir / "spans.npz")
    return metrics, passes, extra


def result_of(spec, names, ops, metrics):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = set(names) - set(metrics)
    if missing:
        raise RuntimeError("metrics not produced: %s" % sorted(missing))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                    for n in names},
    }


def run(args, spec, rundir):
    import spans
    import workloads

    ctx = workloads.Context(seed=args.seed, workdir=rundir / "work",
                            ops=workloads.Ops(), tracer=spans.NullTracer(),
                            steps=spans.StepCounter(), tiny=args.tiny)
    w = workloads.WORKLOADS[args.workload](ctx)
    ctx.steps.install()
    if args.trace:
        metrics, passes, extra = traced(w, args, rundir)
    else:
        metrics, passes, extra = measure(w, args)
        if metrics is None:
            return None, None
    ctx.steps.uninstall()
    extra["checks"] = w.check(slow=bool(args.trace))
    extra["passes"] = passes
    extra["failures"] = ctx.ops.failures
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
    else:  # setup_s is timed by the launching process
        names = [m["name"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
    return result_of(spec, names, ctx.ops, metrics), extra


def report(record):
    """Summary lines, then the result object as the last line."""
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print("# %s seed=%d passes=%d attempted=%d failed=%d ops_failed_frac=%.6g"
          % (record["workload"], record["seed"], len(record["passes"]),
             record["attempted"], record["failed"],
             record["failed"] / record["attempted"]))
    for name, m in record["metrics"].items():
        print("#   %-36s %.6g %s" % (name, m["value"], m["unit"]))
    for line in record["failures"]:
        print("# FAILED " + line)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def in_process(args, spec):
    """A traced run, or one worker of an untraced run."""
    for var in THREAD_VARS:  # the pool's threads are the only parallelism
        os.environ.setdefault(var, "1")
    if args.rundir:
        rundir = Path(args.rundir)
    else:
        rundir = ROOT / ".perfbench_out" / "runs" / (
            "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
        shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "work").mkdir(parents=True)
    # a profile cache outside the run (~/.cache/trapmorph) must never be hit
    os.environ["TRAPMORPH_CACHE_DIR"] = str(rundir / "work" / "default-cache")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trapmorph

    if Path(trapmorph.__file__).resolve().parent != (src / "trapmorph").resolve():
        sys.stderr.write("perfbench: imported trapmorph from %s, not %s\n"
                         % (trapmorph.__file__, src))
        return 2
    try:
        result, extra = run(args, spec, rundir)
    finally:
        shutil.rmtree(rundir / "work", ignore_errors=True)
    if result is None:  # a set-up-only worker
        return 0
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, tiny=args.tiny,
                  env=environment(), **extra)
    (rundir / "result.json").write_text(json.dumps(record, indent=1, default=float))
    report(record)
    return 0


def launch(args, spec):
    """Untraced run: SETUP_RUNS workers in turn, each timed from its start
    until it is set up; the last one also measures."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    rundir = ROOT / ".perfbench_out" / "runs" / (
        "%s-seed%d-trace0-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
            "--worker"] + (["--tiny"] if args.tiny else [])
    deadline = time.monotonic() + DEADLINE_S
    setup_times, setup_metrics = [], []
    for i in range(SETUP_RUNS):
        last = i == SETUP_RUNS - 1
        wdir = rundir if last else rundir / ("setup-%d" % i)
        cmd = base + ["--rundir", str(wdir)] + ([] if last else ["--setup-only"])
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = False
            for line in proc.stdout:  # the worker's own report is not needed
                if not ready and line.startswith(READY + " "):
                    setup_times.append(time.perf_counter() - t0)
                    setup_metrics.append(json.loads(line[len(READY):]))
                    ready = True
            rc = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if rc != 0 or not ready:
            sys.stderr.write("perfbench: worker %d exited %d%s\n" % (
                i, rc, "" if ready else " before it was set up"))
            return 3
    for i in range(SETUP_RUNS - 1):
        shutil.rmtree(rundir / ("setup-%d" % i), ignore_errors=True)

    record = json.loads((rundir / "result.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    setup_s = {"value": statistics.median(setup_times), "unit": units["setup_s"]}
    metrics = dict(record["metrics"], setup_s=setup_s)
    for name in setup_metrics[0]:
        metrics[name] = {"value": statistics.median(m[name] for m in setup_metrics),
                         "unit": units[name]}
    record["metrics"] = {n: metrics[n] for n in units}
    record["setup_times_s"] = setup_times
    record["setup_metrics"] = setup_metrics
    (rundir / "result.json").write_text(json.dumps(record, indent=1, default=float))
    report(record)
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "trapmorph" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no trapmorph sources under %s\n" % src)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %r\n" % args.workload)
        return 2
    if args.trace or args.worker:
        return in_process(args, spec)
    return launch(args, spec)


if __name__ == "__main__":
    sys.exit(main())
