"""Summarize one set of benchmark results, or compare two.

    python3 perfbench/compare.py RUNS                # spread of each metric
    python3 perfbench/compare.py BASE_RUNS NEW_RUNS  # median change vs bound

RUNS is a result.json written by run.py or a directory searched for them
(``.perfbench_out/runs`` by default layout).  For each workload and metric
the table gives the median, the quartiles and the spread (interquartile
distance over the median) next to the metric's bound from BENCHMARK.json.
With two sets it also gives the change of the median in the direction
that counts as worse.

Results whose environments differ in kernel backend (or in
TRAPMORPH_KERNELS, numpy or scipy version) are not comparable: the
command refuses, exit code 2.  Traced and untraced results are kept
apart.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("kernel_backend", "TRAPMORPH_KERNELS", "numpy", "scipy")


def load(path):
    p = Path(path)
    files = [p] if p.is_file() else sorted(p.rglob("result.json"))
    return [json.loads(f.read_text()) for f in files]


def environments(results):
    return {tuple((k, r["env"].get(k)) for k in MUST_MATCH) for r in results}


def table(results):
    """{(workload, trace): {metric: [values]}}, leaving out --tiny runs."""
    out = defaultdict(lambda: defaultdict(list))
    for r in results:
        if r.get("tiny"):
            continue
        for name, m in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+", help="one or two result sets")
    args = ap.parse_args(argv)
    if len(args.runs) > 2:
        ap.error("give one or two result sets")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(p) for p in args.runs]
    for s, p in zip(sets, args.runs):
        if not s:
            sys.stderr.write("compare: no result.json under %s\n" % p)
            return 2
    envs = [environments(s) for s in sets]
    if any(len(e) != 1 for e in envs) or len(set.union(*envs)) != 1:
        sys.stderr.write("compare: refusing, the result sets ran on different "
                         "environments:\n")
        for e in set.union(*envs):
            sys.stderr.write("  %s\n" % dict(e))
        return 2

    tables = [table(s) for s in sets]
    failed = sum(r["failed"] for s in sets for r in s)
    print("%-18s %-34s %5s %12s %12s %12s %8s %7s%s"
          % ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
             "   change" if len(sets) == 2 else ""))
    for key in sorted(tables[-1]):
        workload, trace = key
        for name, new in tables[-1][key].items():
            q1, med, q3 = quartiles(new)
            bound = meta.get(name, {}).get("bound")
            spread = (q3 - q1) / abs(med) if med else float("nan")
            line = "%-18s %-34s %5d %12.6g %12.6g %12.6g %8.3g %7s" % (
                workload + (" (trace)" if trace else ""), name, len(new),
                q1, med, q3, spread, "-" if bound is None else "%.3g" % bound)
            if len(sets) == 2 and tables[0][key].get(name):
                base = statistics.median(tables[0][key][name])
                worse = med / base - 1.0 if base else float("nan")
                if meta[name]["better"] == "higher":
                    worse = -worse
                flag = "  REGRESSION" if bound is not None and worse > bound else ""
                line += " %+8.3g%s" % (worse, flag)
            print(line)
    print("failed operations in these runs: %d" % failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
