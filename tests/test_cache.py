"""Profile disk cache: round trips, invalidation, corruption recovery."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trapmorph as tm
from trapmorph import cache
from trapmorph.errors import CacheError
from trapmorph.schedule import QUADRATURE_REFINE_TOL, AdiabaticityProfile


@pytest.fixture()
def fake_build(monkeypatch):
    """Replace the expensive profile build with a counted handmade one."""
    calls = {"n": 0}

    def build(path, grid, n, method="faquad"):
        calls["n"] += 1
        lam = np.linspace(path.A0, path.Af, 257)
        g = 1.0 + np.exp(-0.5 * ((lam - path.eps) / 0.05) ** 2)
        return AdiabaticityProfile(lam, g, method)

    monkeypatch.setattr(cache, "build_profile", build)
    return calls


def test_read_through_and_reuse(tmp_path, mini, fake_build):
    d = str(tmp_path)
    p1 = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 1
    p2 = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 1  # served from disk
    assert np.array_equal(p1.lambda_grid, p2.lambda_grid)
    assert np.array_equal(p1.g, p2.g)
    assert p1.method == p2.method


def test_key_separates_configurations(tmp_path, mini, fake_build):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    cache.cached_profile(mini.path, mini.grid, 2, method="la", directory=d)
    other = mini.with_target(3)
    cache.cached_profile(other.path, other.grid, 3, directory=d)
    assert fake_build["n"] == 3
    assert len(list(tmp_path.glob("profile-*.bin"))) == 3
    # distinct keys, stable names
    k1 = cache.profile_key(mini.path, mini.grid, 2, "faquad")
    k2 = cache.profile_key(mini.path, mini.grid, 2, "la")
    k3 = cache.profile_key(other.path, other.grid, 3, "faquad")
    assert len({k1, k2, k3}) == 3
    assert k1 == cache.profile_key(mini.path, mini.grid, 2, "faquad")


def test_corrupt_entry_recovers(tmp_path, mini, fake_build):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    entry = next(tmp_path.glob("profile-*.bin"))
    entry.write_bytes(entry.read_bytes()[:40])  # truncate mid-header
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2  # recomputed
    assert len(p.lambda_grid) == 257
    # and the overwritten entry is healthy again
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2


def _entry(tmp_path):
    return next(tmp_path.glob("profile-*.bin"))


def _assert_recomputed(tmp_path, mini, fake_build, builds_before):
    d = str(tmp_path)
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == builds_before + 1
    want = np.linspace(mini.path.A0, mini.path.Af, 257)
    assert np.array_equal(p.lambda_grid, want)


def _assert_refused_and_rebuilt(tmp_path, mini, fake_build, corrupt):
    """Write an entry, let `corrupt` edit its bytes in place, then require
    read_profile to refuse it and cached_profile to rebuild it."""
    cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    entry = _entry(tmp_path)
    blob = bytearray(entry.read_bytes())
    corrupt(blob)
    entry.write_bytes(bytes(blob))
    with open(entry, "rb") as fp:
        with pytest.raises(CacheError):
            cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    _assert_recomputed(tmp_path, mini, fake_build, 1)


def test_version_1_entry_is_recomputed(tmp_path, mini, fake_build):
    # an entry in the format of the whole-grid doubling builder, under
    # the current key, must be refused and rebuilt
    def write_v1(blob):
        v1 = struct.Struct("<6sHddddddIIddIIQ").pack(
            cache.MAGIC, 1, mini.path.A0, mini.path.Af, mini.path.B0,
            mini.path.kappa, mini.path.eps, mini.path.C, mini.path.n_target,
            0, mini.grid.x_min, mini.grid.x_max, mini.grid.n, 2, 1024)
        lam = np.linspace(mini.path.A0, mini.path.Af, 300)
        blob[:] = (v1 + struct.pack("<Q", 300) + lam.tobytes()
                   + np.ones(300).tobytes())

    _assert_refused_and_rebuilt(tmp_path, mini, fake_build, write_v1)


def test_writing_removes_superseded_entries(tmp_path, mini, fake_build):
    d = str(tmp_path)
    other = mini.with_target(3)
    cache.cached_profile(other.path, other.grid, 3, directory=d)
    current = _entry(tmp_path)  # the current format, other inputs
    v1 = struct.Struct("<6sHddddddIIddIIQQ").pack(
        cache.MAGIC, 1, mini.path.A0, mini.path.Af, mini.path.B0,
        mini.path.kappa, mini.path.eps, mini.path.C, mini.path.n_target, 0,
        mini.grid.x_min, mini.grid.x_max, mini.grid.n, 2, 1024, 2)
    superseded = tmp_path / ("profile-%s.bin" % ("1" * 24))
    superseded.write_bytes(v1 + np.array([-0.25, 0.5, 1.0, 1.0]).tobytes())
    survivors = {current.name: current.read_bytes()}
    for name, blob in (("profile-%s.bin" % ("f" * 24), b"not a profile"),
                       ("profile-short.bin", cache.MAGIC),
                       ("profile-newer.bin",
                        struct.pack("<6sH", cache.MAGIC, cache.VERSION + 1))):
        (tmp_path / name).write_bytes(blob)
        survivors[name] = blob
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2
    assert not superseded.exists()
    for name, blob in survivors.items():
        assert (tmp_path / name).read_bytes() == blob
    written = tmp_path / cache.profile_key(mini.path, mini.grid, 2, "faquad")
    assert written.exists()
    assert len(list(tmp_path.iterdir())) == len(survivors) + 1


def test_key_and_header_carry_refine_tolerance(tmp_path, mini, fake_build,
                                              monkeypatch):
    cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    fields = cache._HEADER.unpack(
        _entry(tmp_path).read_bytes()[:cache._HEADER.size])
    assert fields[1] == cache.VERSION == 2
    assert fields[15] == QUADRATURE_REFINE_TOL
    key = cache.profile_key(mini.path, mini.grid, 2, "faquad")
    monkeypatch.setattr(cache, "QUADRATURE_REFINE_TOL", 0.02)
    assert cache.profile_key(mini.path, mini.grid, 2, "faquad") != key


def test_swapped_lambdas_are_recomputed(tmp_path, mini, fake_build):
    def swap(blob):
        i = cache._HEADER.size + 8 * 10  # lambda[10] and lambda[11]
        blob[i:i + 8], blob[i + 8:i + 16] = blob[i + 8:i + 16], blob[i:i + 8]

    _assert_refused_and_rebuilt(tmp_path, mini, fake_build, swap)


def test_flipped_g_bit_is_recomputed(tmp_path, mini, fake_build):
    def flip(blob):
        # lowest mantissa bit of g[100]; the fake profile has 257 nodes
        blob[cache._HEADER.size + 8 * 257 + 8 * 100] ^= 0x01

    _assert_refused_and_rebuilt(tmp_path, mini, fake_build, flip)


# tmp_path and fake_build are shared by the examples on purpose: every
# example rewrites the one entry and counts builds relative to the start
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_truncation_or_byte_flip_is_recomputed(tmp_path, mini,
                                                   fake_build, data):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    entry = _entry(tmp_path)
    blob = bytearray(entry.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    entry.write_bytes(bytes(blob))
    _assert_recomputed(tmp_path, mini, fake_build, fake_build["n"])


def test_mismatched_parameters_are_refused(tmp_path, mini, fake_build):
    d = str(tmp_path)
    prof = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    entry = next(tmp_path.glob("profile-*.bin"))
    other = mini.with_target(3)
    with open(entry, "rb") as fp:
        with pytest.raises(CacheError):
            cache.read_profile(fp, other.path, mini.grid, 3, "faquad")
    # the honest read still works
    with open(entry, "rb") as fp:
        back = cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    assert np.array_equal(back.g, prof.g)


def test_cache_dir_resolution(tmp_path, monkeypatch):
    explicit = cache.cache_dir(str(tmp_path / "x"))
    assert str(explicit).endswith("x")
    monkeypatch.setenv("TRAPMORPH_CACHE_DIR", str(tmp_path / "env"))
    assert str(cache.cache_dir(None)).endswith("env")
    # explicit argument beats the environment
    assert str(cache.cache_dir(str(tmp_path / "x"))).endswith("x")
    monkeypatch.delenv("TRAPMORPH_CACHE_DIR")
    assert ".cache" in str(cache.cache_dir(None))


def test_session_profile_cache_round_trips_real_data(mini, faquad_profile,
                                                     profile_cache):
    # the session fixture wrote a real profile; reading it back must be
    # bit-for-bit identical
    again = cache.cached_profile(mini.path, mini.grid, mini.n_target,
                                 method="faquad", directory=profile_cache)
    assert np.array_equal(again.lambda_grid, faquad_profile.lambda_grid)
    assert np.array_equal(again.g, faquad_profile.g)
    # build statistics describe a build, so a read-back carries none
    assert again.evaluations is None and again.max_deviation is None
