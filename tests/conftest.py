"""Shared fixtures.

The expensive objects (adiabaticity profiles, the 16-point fidelity scans
on the mini preset) are built once per session and shared between the
experiment tests and the acceptance gate.  Everything is deterministic,
so session scope is safe.
"""

import types
from pathlib import Path

import pytest

import trapmorph as tm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_module():
    """load(name) runs perfbench/<name>.py into a fresh module object.
    Executing the source, rather than importing it, leaves no bytecode
    files under perfbench/."""
    def load(name):
        path = PERFBENCH / (name + ".py")
        mod = types.ModuleType("perfbench_" + name)
        mod.__file__ = str(path)
        exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
        return mod
    return load


@pytest.fixture(scope="session")
def profile_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("profile-cache"))


@pytest.fixture(scope="session")
def mini():
    return tm.mini_preset()


@pytest.fixture(scope="session")
def mini_eigs(mini):
    """(initial, final) eigensets of the mini preset endpoints."""
    eig0 = tm.eigensolve(mini.path.initial, mini.grid, mini.k, refine=False)
    eigf = tm.eigensolve(mini.path.final, mini.grid, mini.k, refine=False)
    return eig0, eigf


@pytest.fixture(scope="session")
def faquad_profile(mini, profile_cache):
    return tm.cached_profile(mini.path, mini.grid, mini.n_target,
                             method="faquad", directory=profile_cache)


@pytest.fixture(scope="session")
def la_profile(mini, profile_cache):
    return tm.cached_profile(mini.path, mini.grid, mini.n_target,
                             method="la", directory=profile_cache)


@pytest.fixture(scope="session")
def tf_grid(mini):
    return tm.default_tf_grid(mini)


@pytest.fixture(scope="session")
def faquad_scan(mini, tf_grid, profile_cache):
    """FAQUAD scan carrying both F_n and F_0 (superposition protocol)."""
    return tm.run_scan(mini, "faquad", tf_grid, include_ground=True,
                       cache_dir=profile_cache)


@pytest.fixture(scope="session")
def la_scan(mini, tf_grid, profile_cache):
    return tm.run_scan(mini, "la", tf_grid, cache_dir=profile_cache)


@pytest.fixture(scope="session")
def linear_scan(mini, tf_grid, profile_cache):
    return tm.run_scan(mini, "linear", tf_grid, cache_dir=profile_cache)
