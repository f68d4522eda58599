"""In-memory span tracing around trapmorph's public layer functions.

`Tracer.install` replaces every binding of a layer function inside the
loaded ``trapmorph`` modules (the defining module and each module that
imported the name) with a wrapper that records one span per call: name,
start, end, parent span and thread.  Spans go to per-thread arrays, so
the hot path takes no lock, and are written out once at the end.

A span opened on a thread with no open span of its own (a thread-pool
worker) takes as parent the innermost open span of the thread that
installed the tracer: the call that is waiting for the pool.

The wrappers also keep counts at the same boundaries (propagation steps,
profile nodes, bytes written to the cache, bytes the phase kernels
touch), split by the benchmark phase they happen in.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from functools import wraps

import numpy as np

# (defining module, function name, span name)
LAYER_FUNCTIONS = (
    ("trapmorph.cli", "main", "cli.main"),
    ("trapmorph.scans", "run_scan", "scans.run_scan"),
    ("trapmorph.scans", "run_demultiplexing", "scans.run_demultiplexing"),
    ("trapmorph.cache", "cached_profile", "cache.cached_profile"),
    ("trapmorph.cache", "read_profile", "cache.read_profile"),
    ("trapmorph.cache", "write_profile", "cache.write_profile"),
    ("trapmorph.schedule", "build_profile", "schedule.build_profile"),
    ("trapmorph.schedule", "invert_profile", "schedule.invert_profile"),
    ("trapmorph.schedule", "linear_schedule", "schedule.linear_schedule"),
    ("trapmorph.eigen", "eigensolve", "eigen.eigensolve"),
    ("trapmorph.eigen", "couplings", "eigen.couplings"),
    ("trapmorph.propagate", "propagate", "propagate.propagate"),
    ("trapmorph.kernels", "apply_quartic_phase", "kernels.apply_quartic_phase"),
    ("trapmorph.kernels", "apply_phase_table", "kernels.apply_phase_table"),
)


def _trapmorph_modules():
    return [m for k, m in sorted(sys.modules.items())
            if (k == "trapmorph" or k.startswith("trapmorph.")) and m is not None]


def rebind(modname, attr, make_wrapper):
    """Replace every binding of trapmorph function `modname.attr` in the
    loaded trapmorph modules by make_wrapper(fn); returns the undo list."""
    fn = getattr(sys.modules[modname], attr)
    wrapper = make_wrapper(fn)
    saved = []
    for mod in _trapmorph_modules():
        if getattr(mod, attr, None) is fn:
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
    return saved


def restore(saved):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


class StepCounter:
    """Sums PropagationReport.steps over every propagate call.

    This one wrapper stays installed in untraced runs too: the CLI does
    not hand its reports back, and one call per propagation costs nothing
    next to the propagation itself."""

    def __init__(self):
        self.steps = 0
        self._lock = threading.Lock()
        self._saved = []

    def install(self):
        def make(fn):
            @wraps(fn)
            def counted(*args, **kwargs):
                report = fn(*args, **kwargs)
                with self._lock:
                    self.steps += report.steps
                return report
            return counted
        self._saved = rebind("trapmorph.propagate", "propagate", make)

    def uninstall(self):
        restore(self._saved)
        self._saved = []


def _count_result(tracer, name, args, result):
    """Counts recorded at the layer boundary, from arguments and results."""
    if name == "propagate.propagate":
        tracer.count("propagate.steps", result.steps)
    elif name == "schedule.build_profile":
        tracer.count("schedule.profile_nodes", len(result.lambda_grid))
    elif name == "cache.write_profile":
        tracer.count("cache.bytes_written", args[0].tell())
    elif name == "kernels.apply_quartic_phase":
        psi, x, x2, x4 = args[:4]
        # computed, not measured: psi read and written, three tables read
        tracer.count("kernels.bytes_computed",
                     2 * psi.nbytes + x.nbytes + x2.nbytes + x4.nbytes)
    elif name == "kernels.apply_phase_table":
        psi, table = args[:2]
        tracer.count("kernels.bytes_computed", 2 * psi.nbytes + table.nbytes)
    elif name == "scans.run_scan":
        tracer.count("scans.rows", len(result.rows))
        tracer.count("scans.rows_failed",
                     sum(1 for r in result.rows if r.error is not None))


class _ThreadBuffer:
    def __init__(self, thread_index):
        self.thread = thread_index
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []


class Tracer:
    """Records spans and counts; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.phase = "setup"
        self.counts = {"setup": defaultdict(int), "pass": defaultdict(int)}
        self._counts_lock = threading.Lock()
        self._names = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self._saved = []
        self._root = None

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._buffers_lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def count(self, name, value):
        with self._counts_lock:  # pool threads count concurrently
            self.counts[self.phase][name] += value

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        buf = self._buffer()
        sid = next(self._ids)
        root = self._root
        if buf.stack:
            parent = buf.stack[-1]
        elif root is not None and root is not buf and root.stack:
            parent = root.stack[-1]
        else:
            parent = 0
        buf.stack.append(sid)
        nid = self._names.setdefault(name, len(self._names))
        return buf, sid, parent, nid, time.perf_counter()

    def _close(self, token):
        end = time.perf_counter()
        buf, sid, parent, nid, start = token
        buf.stack.pop()
        buf.ids.append(sid)
        buf.names.append(nid)
        buf.parents.append(parent)
        buf.starts.append(start)
        buf.ends.append(end)

    def _make_wrapper(self, name):
        def make(fn):
            @wraps(fn)
            def traced(*args, **kwargs):
                token = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(token)
                _count_result(self, name, args, result)
                return result
            return traced
        return make

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._root = self._buffer()
        for modname, attr, name in LAYER_FUNCTIONS:
            self._saved += rebind(modname, attr, self._make_wrapper(name))

    def uninstall(self):
        restore(self._saved)
        self._saved = []

    @property
    def names(self):
        return sorted(self._names, key=self._names.get)

    def spans(self):
        """All closed spans, ordered by id, as equal-length numpy arrays."""
        cols = defaultdict(list)
        for buf in self._buffers:
            cols["id"].append(np.frombuffer(buf.ids, np.int64))
            cols["name"].append(np.frombuffer(buf.names, np.int32))
            cols["parent"].append(np.frombuffer(buf.parents, np.int64))
            cols["start"].append(np.frombuffer(buf.starts, np.float64))
            cols["end"].append(np.frombuffer(buf.ends, np.float64))
            cols["thread"].append(np.full(len(buf.ids), buf.thread, np.int32))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        return {k: v[order] for k, v in out.items()}

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())


class _Span:
    """Context manager for the spans the benchmark opens around its steps."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.token = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.token)
        return False


class NullTracer:
    """Stands in for Tracer in untraced runs: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()


def self_times(spans):
    """Per-span self time: its duration minus the union of its children's
    intervals clipped to it (children on pool threads may overlap)."""
    ids, parents = spans["id"], spans["parent"]
    starts, ends = spans["start"], spans["end"]
    dur = ends - starts
    index = {int(s): i for i, s in enumerate(ids)}
    children = defaultdict(list)
    for i, p in enumerate(parents.tolist()):
        if p:
            j = index.get(p)
            if j is not None:
                children[j].append(i)
    out = dur.copy()
    for j, kids in children.items():
        lo, hi = starts[j], ends[j]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(lo, starts[i]), min(hi, ends[i])) for i in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[j] = dur[j] - covered
    return out


def descendants_of(spans, roots):
    """Boolean mask of the spans that have one of `roots` (row indices) as
    an ancestor."""
    parent_row = {int(i): r for r, i in enumerate(spans["id"].tolist())}
    inside = np.zeros(len(spans["id"]), dtype=bool)
    inside[roots] = True
    # ids grow with the start of a span, so a parent precedes its children
    for r, p in enumerate(spans["parent"].tolist()):
        j = parent_row.get(p)
        if j is not None and inside[j]:
            inside[r] = True
    inside[roots] = False
    return inside


def layer_metrics(tracer, n_passes, jobs):
    """Per-layer numbers for one unit of the workload: one set-up plus
    one timed pass (pass totals divided by the number of traced passes).

    Counts repeat exactly between runs of the same inputs; times do not.
    """
    s = tracer.spans()
    names = np.array(tracer.names, dtype=object)[s["name"]]
    dur = s["end"] - s["start"]
    own = self_times(s)

    # phase of each span: the top-level bench.setup / bench.pass interval
    # that contains its start
    phase = np.full(len(dur), -1)
    for label, code in (("bench.setup", 0), ("bench.pass", 1)):
        for i in np.flatnonzero(names == label):
            inside = (s["start"] >= s["start"][i]) & (s["start"] <= s["end"][i])
            phase[inside] = code
    weight = np.where(phase == 0, 1.0, np.where(phase == 1, 1.0 / n_passes, 0.0))

    def calls(name):
        return float(np.sum(weight[names == name]))

    def busy(name):
        return float(np.sum((dur * weight)[names == name]))

    def self_s(name):
        return float(np.sum((own * weight)[names == name]))

    def count(name):
        return (tracer.counts["setup"].get(name, 0)
                + tracer.counts["pass"].get(name, 0) / n_passes)

    # a cached_profile call that had to build is a miss
    builds = names == "schedule.build_profile"
    building_parents = set(s["parent"][builds].tolist())
    is_lookup = names == "cache.cached_profile"
    missed = is_lookup & np.isin(s["id"], list(building_parents))
    ids_of_builds = set(s["id"][builds].tolist())
    profile_evals = (names == "eigen.eigensolve") & np.isin(
        s["parent"], list(ids_of_builds))

    nodes = count("schedule.profile_nodes")
    steps = count("propagate.steps")
    # the pool: propagations under run_scan against its wall time
    in_pass = phase == 1
    scans = (names == "scans.run_scan") & in_pass
    scan_wall = float(np.sum(dur[scans]))
    under_scan = descendants_of(s, np.flatnonzero(scans))
    prop_busy = float(np.sum(dur[(names == "propagate.propagate") & under_scan]))

    m = {
        "eigen.eigensolve.calls": calls("eigen.eigensolve"),
        "eigen.eigensolve.busy_s": busy("eigen.eigensolve"),
        "eigen.couplings.calls": calls("eigen.couplings"),
        "eigen.couplings.busy_s": busy("eigen.couplings"),
        "schedule.build_profile.self_s": self_s("schedule.build_profile"),
        "schedule.profile_nodes": nodes,
        "schedule.evals_per_node":
            float(np.sum(weight[profile_evals])) / nodes if nodes else 0.0,
        "schedule.invert_profile.busy_s": busy("schedule.invert_profile"),
        "cache.hits": float(np.sum(weight[is_lookup & ~missed])),
        "cache.misses": float(np.sum(weight[missed])),
        "cache.read_s": busy("cache.read_profile"),
        "cache.write_s": busy("cache.write_profile"),
        "cache.bytes_written": count("cache.bytes_written"),
        "propagate.calls": calls("propagate.propagate"),
        "propagate.steps": steps,
        "propagate.self_s": self_s("propagate.propagate"),
        "propagate.us_per_step":
            1e6 * busy("propagate.propagate") / steps if steps else 0.0,
        "kernels.apply_quartic_phase.calls": calls("kernels.apply_quartic_phase"),
        "kernels.apply_quartic_phase.busy_s": busy("kernels.apply_quartic_phase"),
        "kernels.apply_phase_table.calls": calls("kernels.apply_phase_table"),
        "kernels.apply_phase_table.busy_s": busy("kernels.apply_phase_table"),
        "kernels.bytes_computed": count("kernels.bytes_computed"),
        "scans.rows": count("scans.rows"),
        "scans.rows_failed": count("scans.rows_failed"),
        "scans.pool_efficiency":
            prop_busy / (scan_wall * jobs) if scan_wall else 0.0,
        "cli.main.self_s": self_s("cli.main"),
    }
    return m, {"spans": int(len(dur))}
