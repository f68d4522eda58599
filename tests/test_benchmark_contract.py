"""The names the benchmark in perfbench/ reaches into trapmorph by.

perfbench/ wraps or replaces these functions by module and name, so a
rename in src/ would break the benchmark without failing any other test.
The files under perfbench/ are only read here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import trapmorph as tm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _smoke_targets():
    """(module, name) of every function smoke.py perturbs: the tuples
    (workload, module, name, body, per_pass) in its source."""
    tree = ast.parse((PERFBENCH / "smoke.py").read_text())
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 5
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.elts[:3])):
            targets.append((node.elts[1].value, node.elts[2].value))
    return targets


def test_benchmark_names_resolve(perfbench_module):
    spans = perfbench_module("spans")
    assert spans.LAYER_FUNCTIONS
    for modname, attr, _ in spans.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr)), attr
    # spans.py reads the bytes written from the first argument
    write = importlib.import_module("trapmorph.cache").write_profile
    assert next(iter(inspect.signature(write).parameters)) == "fp"

    targets = _smoke_targets()
    assert sorted(targets) == [("cli", "run_demultiplexing"),
                               ("propagate", "fidelity"),
                               ("scans", "fidelity")]
    for module, name in targets:
        mod = importlib.import_module("trapmorph." + module)
        assert callable(getattr(mod, name)), (module, name)
    assert tm.kernel_backend == "numpy"
