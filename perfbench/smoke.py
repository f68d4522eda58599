"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/smoke.py

1. Runs every workload at its tiny size, untraced and traced, and checks
   that the last line is the result object with every metric that
   BENCHMARK.json names, no failed operation, and correct = true.
2. Perturbs one fidelity by 1e-6 and checks that exactly one operation
   is then reported failed and the run is marked incorrect: once on a
   direct propagation (fullscale-linear) and once behind the CLI, where
   only the scan CSV carries the fidelity (scan-warm).  Then makes the
   CLI's demultiplexing raise an exception trapmorph does not expect and
   checks that the run finishes with one failed operation (the demux
   run) per timed pass.

The perturbed runs are single untraced workers (``run.py --worker``), so
the perturbation is in the process that measures.

Exit code 0 when every check holds.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Runs run.main in a child process with trapmorph.<module>.<name>
# replaced by the function `perturbed` that `body` defines (`real` is the
# original, `seen` a list it may use).
PERTURB = r"""
import sys
sys.path[:0] = [{here!r}, {src!r}]
import trapmorph.{module}
target = sys.modules["trapmorph.{module}"]  # the package shadows some module names
real = getattr(target, {name!r})
seen = []
{body}
setattr(target, {name!r}, perturbed)
import run
sys.exit(run.main({argv!r}))
"""

# fidelity + 1e-6 on the first value (every value when `every` is true)
SHIFT_FIDELITY = """
def perturbed(psi, ref):
    F = real(psi, ref)
    seen.append(F)
    return F + 1e-6 if ({every} or len(seen) == 1) else F
"""

RAISE = """
def perturbed(*args, **kwargs):
    raise ZeroDivisionError("injected by the smoke test")
"""


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError("%s: exit %d\n%s" % (what, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_tiny(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def run_perturbed(workload, module, name, body):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny",
            "--worker"]
    code = PERTURB.format(here=str(HERE), src=str(ROOT / "src"), module=module,
                          name=name, body=body, argv=argv)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = "%s trace=%d" % (w["name"], trace)
            try:
                res = result_of(run_tiny(w["name"], trace), what)
            except AssertionError as exc:
                problems.append(str(exc))
                continue
            want = [m["name"] for m in spec[group]]
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (what, sorted(res)))
            if list(res["metrics"]) != want:
                problems.append("%s: metrics %s, want %s" % (what, list(res["metrics"]), want))
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: %s" % (what, {k: res[k] for k in ("correct", "attempted", "failed")}))
            print("ok   %-28s %d metrics, %d operations" % (what, len(res["metrics"]), res["attempted"]))

    # the last field: one failed operation per run, or one per timed pass
    for workload, module, name, body, per_pass in (
            ("fullscale-linear", "propagate", "fidelity", SHIFT_FIDELITY.format(every=False), False),
            ("scan-warm", "scans", "fidelity", SHIFT_FIDELITY.format(every=True), False),
            ("scan-warm", "cli", "run_demultiplexing", RAISE, True)):
        what = "%s, trapmorph.%s.%s perturbed" % (workload, module, name)
        proc = run_perturbed(workload, module, name, body)
        try:
            res = result_of(proc, what)
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        passes = int(re.search(r" passes=(\d+) ", proc.stdout).group(1))
        if res["correct"] or res["failed"] != (passes if per_pass else 1):
            problems.append("%s: not caught: %s" % (what, {k: res[k] for k in ("correct", "attempted", "failed")}))
        else:
            print("ok   %s: %d of %d operations failed" % (what, res["failed"], res["attempted"]))

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
