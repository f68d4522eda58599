"""Profile disk cache: round trips, invalidation, corruption recovery."""

import errno
import hashlib
import io
import os
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trapmorph as tm
from trapmorph import cache, schedule
from trapmorph.errors import CacheError, FlatDirectionError, ScheduleError
from trapmorph.schedule import QUADRATURE_REFINE_TOL, AdiabaticityProfile


@pytest.fixture()
def fake_build(monkeypatch):
    """Replace the expensive profile build with a counted handmade one.
    A miss builds the requested method and then its companion, so one
    cold lookup counts two builds."""
    calls = {"n": 0}

    def build(path, grid, n, method="faquad", store=None):
        calls["n"] += 1
        lam = np.linspace(path.A0, path.Af, 257)
        g = 1.0 + np.exp(-0.5 * ((lam - path.eps) / 0.05) ** 2)
        return AdiabaticityProfile(lam, g, method)

    monkeypatch.setattr(cache, "build_profile", build)
    return calls


def test_read_through_and_reuse(tmp_path, mini, fake_build):
    d = str(tmp_path)
    p1 = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2  # FAQUAD and its LA companion
    p2 = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2  # served from disk
    assert np.array_equal(p1.lambda_grid, p2.lambda_grid)
    assert np.array_equal(p1.g, p2.g)
    assert p1.method == p2.method


def test_key_separates_configurations(tmp_path, mini, fake_build):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    cache.cached_profile(mini.path, mini.grid, 2, method="la", directory=d)
    other = tm.mini_preset(3)
    cache.cached_profile(other.path, other.grid, 3, directory=d)
    # each FAQUAD miss also stored LA; the LA lookup was a hit
    assert fake_build["n"] == 4
    assert len(list(tmp_path.glob("profile-*.bin"))) == 4
    # distinct keys, stable names
    k1 = cache.profile_key(mini.path, mini.grid, 2, "faquad")
    k2 = cache.profile_key(mini.path, mini.grid, 2, "la")
    k3 = cache.profile_key(other.path, other.grid, 3, "faquad")
    assert len({k1, k2, k3}) == 3
    assert k1 == cache.profile_key(mini.path, mini.grid, 2, "faquad")


def test_corrupt_entry_recovers(tmp_path, mini, fake_build):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    entry = _entry(tmp_path, mini)
    entry.write_bytes(entry.read_bytes()[:40])  # truncate mid-header
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 3  # recomputed; the LA entry was intact
    assert len(p.lambda_grid) == 257
    # and the overwritten entry is healthy again
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 3


def _entry(tmp_path, preset, method="faquad"):
    return tmp_path / cache.profile_key(preset.path, preset.grid,
                                        preset.n_target, method)


def _assert_recomputed(tmp_path, mini, fake_build, builds_before):
    d = str(tmp_path)
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == builds_before + 1
    want = np.linspace(mini.path.A0, mini.path.Af, 257)
    assert np.array_equal(p.lambda_grid, want)


def _assert_refused_and_rebuilt(tmp_path, mini, fake_build, corrupt,
                                match=None):
    """Write an entry, let `corrupt` edit its bytes in place, then require
    read_profile to refuse it (with a message matching `match`, if given)
    and cached_profile to rebuild it."""
    cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    entry = _entry(tmp_path, mini)
    blob = bytearray(entry.read_bytes())
    corrupt(blob)
    entry.write_bytes(bytes(blob))
    with open(entry, "rb") as fp:
        with pytest.raises(CacheError, match=match):
            cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    _assert_recomputed(tmp_path, mini, fake_build, 2)


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


def test_writing_removes_superseded_entries(tmp_path, mini, fake_build,
                                            monkeypatch):
    d = str(tmp_path)
    other = tm.mini_preset(3)
    cache.cached_profile(other.path, other.grid, 3, directory=d)
    # the two current-format entries of other inputs
    survivors = {e.name: e.read_bytes() for e in tmp_path.iterdir()}
    assert len(survivors) == 2
    v1 = struct.Struct("<6sHddddddIIddIIQQ").pack(
        cache.MAGIC, 1, mini.path.A0, mini.path.Af, mini.path.B0,
        mini.path.kappa, mini.path.eps, mini.path.C, mini.path.n_target, 0,
        mini.grid.x_min, mini.grid.x_max, mini.grid.n, 2, 1024, 2)
    superseded = tmp_path / ("profile-%s.bin" % ("1" * 24))
    superseded.write_bytes(v1 + np.array([-0.25, 0.5, 1.0, 1.0]).tobytes())
    for name, blob in (("profile-%s.bin" % ("f" * 24), b"not a profile"),
                       ("profile-short.bin", cache.MAGIC),
                       ("profile-newer.bin",
                        struct.pack("<6sH", cache.MAGIC, cache.VERSION + 1))):
        (tmp_path / name).write_bytes(blob)
        survivors[name] = blob
    sweeps = []
    sweep = cache._remove_superseded

    def counted_sweep(directory):
        sweeps.append({e.name for e in directory.iterdir()})
        sweep(directory)

    monkeypatch.setattr(cache, "_remove_superseded", counted_sweep)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 4
    # one sweep, after the requested entry is written and before the
    # companion's check, which an older version's entry must not satisfy
    assert len(sweeps) == 1
    assert _entry(tmp_path, mini).name in sweeps[0]
    assert _entry(tmp_path, mini, "la").name not in sweeps[0]
    assert not superseded.exists()
    for name, blob in survivors.items():
        assert (tmp_path / name).read_bytes() == blob
    for method in ("faquad", "la"):
        assert _entry(tmp_path, mini, method).exists()
    assert len(list(tmp_path.iterdir())) == len(survivors) + 2


def test_key_and_header_carry_refine_tolerance(tmp_path, mini, fake_build,
                                              monkeypatch):
    cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    fields = cache._HEADER.unpack(
        _entry(tmp_path, mini).read_bytes()[:cache._HEADER.size])
    assert fields[1] == cache.VERSION == 4
    assert fields[15] == QUADRATURE_REFINE_TOL
    key = cache.profile_key(mini.path, mini.grid, 2, "faquad")
    monkeypatch.setattr(cache, "QUADRATURE_REFINE_TOL", 0.02)
    assert cache.profile_key(mini.path, mini.grid, 2, "faquad") != key


def test_entry_names_hash_their_header_inputs(tmp_path, mini, fake_build):
    d = str(tmp_path)
    other = tm.mini_preset(3)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    cache.cached_profile(other.path, other.grid, 3, method="la", directory=d)
    entries = sorted(tmp_path.glob("profile-*.bin"))
    assert len(entries) == 4
    # the inputs follow magic and version (8 bytes) and precede the node
    # count and the checksum (12 bytes)
    start, stop = 8, cache._HEADER.size - 12
    for entry in entries:
        inputs = entry.read_bytes()[start:stop]
        digest = hashlib.sha256(inputs).hexdigest()[:24]
        assert entry.name == "profile-%s.bin" % digest
    assert {e.name for e in entries} == {
        cache.profile_key(p.path, p.grid, p.n_target, m)
        for p in (mini, other) for m in ("faquad", "la")}


def test_unknown_method_is_a_schedule_error(tmp_path, mini, fake_build):
    with pytest.raises(ScheduleError):
        cache.cached_profile(mini.path, mini.grid, 2, method="steepest",
                             directory=str(tmp_path))
    assert fake_build["n"] == 0
    assert not list(tmp_path.iterdir())


def _version_2_name(path, grid, n, method):
    """The entry name that format version 2 hashed from text."""
    parts = ["%.17g" % v for v in (path.A0, path.Af, path.B0, path.kappa,
                                   path.eps, path.C, grid.x_min, grid.x_max)]
    parts += [str(path.n_target), str(grid.n), str(n), method, "1024",
              "%.17g" % QUADRATURE_REFINE_TOL]
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:24]
    return "profile-%s.bin" % digest


def test_version_2_entry_is_never_served_and_is_deleted(tmp_path, mini,
                                                        fake_build):
    # version 2 had the layout of version 3 under a name hashed from text
    buf = io.BytesIO()
    lam = np.linspace(mini.path.A0, mini.path.Af, 300)
    cache.write_profile(buf, AdiabaticityProfile(lam, np.ones(300), "faquad"),
                        mini.path, mini.grid, 2)
    blob = bytearray(buf.getvalue())
    blob[6:8] = struct.pack("<H", 2)
    old = tmp_path / _version_2_name(mini.path, mini.grid, 2, "faquad")
    old.write_bytes(bytes(blob))
    assert old.name != _entry(tmp_path, mini).name
    with open(old, "rb") as fp:
        with pytest.raises(CacheError):
            cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    assert fake_build["n"] == 2
    assert len(p.lambda_grid) == 257
    assert not old.exists()
    assert sorted(tmp_path.iterdir()) == sorted(
        _entry(tmp_path, mini, m) for m in ("faquad", "la"))


def _version_3_bytes(preset, method, count=300):
    """An entry in today's layout, stamped with format version 3."""
    buf = io.BytesIO()
    lam = np.linspace(preset.path.A0, preset.path.Af, count)
    cache.write_profile(buf, AdiabaticityProfile(lam, np.ones(count), method),
                        preset.path, preset.grid, preset.n_target)
    blob = bytearray(buf.getvalue())
    blob[6:8] = struct.pack("<H", 3)
    return bytes(blob)


def test_version_3_entry_is_never_served_and_is_deleted(tmp_path, mini,
                                                        fake_build):
    # version 3 had today's layout and names; its profiles came from the
    # full-precision bisection energies
    old = _entry(tmp_path, mini)
    old.write_bytes(_version_3_bytes(mini, "faquad"))
    other = tm.mini_preset(3)
    stale = _entry(tmp_path, other)
    stale.write_bytes(_version_3_bytes(other, "faquad"))
    with open(old, "rb") as fp:
        with pytest.raises(CacheError):
            cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    p = cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    assert fake_build["n"] == 2
    assert len(p.lambda_grid) == 257
    assert cache._PREFIX.unpack(old.read_bytes()[:8]) == (cache.MAGIC,
                                                          cache.VERSION)
    assert not stale.exists()
    assert sorted(tmp_path.iterdir()) == sorted(
        _entry(tmp_path, mini, m) for m in ("faquad", "la"))


def test_old_version_companion_is_replaced_on_a_miss(tmp_path, mini,
                                                     fake_build):
    # the LA entry of an older version has the name of today's LA entry:
    # the FAQUAD miss must write the companion, so LA is then a hit
    companion = _entry(tmp_path, mini, "la")
    companion.write_bytes(_version_3_bytes(mini, "la"))
    cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    assert fake_build["n"] == 2
    with open(companion, "rb") as fp:
        assert len(cache.read_profile(fp, mini.path, mini.grid, 2,
                                      "la").lambda_grid) == 257
    la = cache.cached_profile(mini.path, mini.grid, 2, method="la",
                              directory=str(tmp_path))
    assert fake_build["n"] == 2
    assert len(la.lambda_grid) == 257


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


@pytest.mark.parametrize("g", [0.0, -1.0])
def test_checksummed_invalid_profile_is_recomputed(tmp_path, mini, fake_build,
                                                   g):
    # g[100] <= 0 under a checksum rewritten to match: the read passes
    # every byte check and refuses the profile itself
    def write_g(blob):
        body = cache._HEADER.size
        struct.pack_into("<d", blob, body + 8 * 257 + 8 * 100, g)
        cache._TAIL.pack_into(blob, body - cache._TAIL.size, 257,
                              zlib.crc32(blob[body:]))

    _assert_refused_and_rebuilt(tmp_path, mini, fake_build, write_g,
                                match="^cache entry holds an invalid profile: "
                                      "adiabaticity integrand vanishes")


# tmp_path and fake_build are shared by the examples on purpose: every
# example rewrites the one entry and counts builds relative to the start
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_truncation_or_byte_flip_is_recomputed(tmp_path, mini,
                                                   fake_build, data):
    d = str(tmp_path)
    cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    entry = _entry(tmp_path, mini)
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
    entry = _entry(tmp_path, mini)
    other = tm.mini_preset(3)
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


def test_cold_design_stores_both_methods_from_one_sweep(tmp_path, mini,
                                                       monkeypatch):
    # real eigensolves on a 256-point grid: the same refinement as the
    # preset's 512 points at half the cost
    coarse = replace(mini, grid=replace(mini.grid, n=256))
    path, grid, n = coarse.path, coarse.grid, coarse.n_target
    alone = tm.build_profile(path, grid, n, method="la")
    buf = io.BytesIO()
    cache.write_profile(buf, alone, path, grid, n)
    la_bytes = buf.getvalue()

    # the nodes _g_values hands out to be solved, counted here: the
    # solves themselves may run in worker processes
    solves = []
    g_values = schedule._g_values

    def counted(path, grid, n, lam, store):
        solves.extend(a for a in lam if a not in store)
        return g_values(path, grid, n, lam, store)

    monkeypatch.setattr(schedule, "_g_values", counted)
    cold = tmp_path / "cold"
    faquad = cache.cached_profile(path, grid, n, method="faquad",
                                  directory=str(cold))
    assert sorted(cold.iterdir()) == sorted(
        _entry(cold, coarse, m) for m in ("faquad", "la"))
    assert _entry(cold, coarse, "la").read_bytes() == la_bytes
    # no node of either profile was solved twice
    assert len(solves) == len(np.union1d(faquad.lambda_grid,
                                         alone.lambda_grid))

    # a valid LA entry already there is neither rebuilt nor rewritten
    warm = tmp_path / "warm"
    warm.mkdir()
    la_entry = _entry(warm, coarse, "la")
    la_entry.write_bytes(la_bytes)
    os.utime(la_entry, ns=(10**18, 10**18))
    solves.clear()
    cache.cached_profile(path, grid, n, method="faquad", directory=str(warm))
    assert la_entry.read_bytes() == la_bytes
    assert la_entry.stat().st_mtime_ns == 10**18
    assert len(solves) == len(faquad.lambda_grid)
    assert (_entry(warm, coarse).read_bytes()
            == _entry(cold, coarse).read_bytes())


def test_failed_companion_keeps_requested_profile(tmp_path, mini, fake_build,
                                                  monkeypatch):
    d = str(tmp_path)
    companion = _entry(tmp_path, mini, "la")
    # a directory where the companion's temporary file would be opened
    blocker = companion.with_suffix(".tmp.%d" % os.getpid())
    blocker.mkdir()
    prof = cache.cached_profile(mini.path, mini.grid, 2, directory=d)
    assert fake_build["n"] == 2
    assert not companion.exists() and blocker.is_dir()
    with open(_entry(tmp_path, mini), "rb") as fp:
        back = cache.read_profile(fp, mini.path, mini.grid, 2, "faquad")
    assert np.array_equal(back.lambda_grid, prof.lambda_grid)
    assert np.array_equal(back.g, prof.g)

    # a companion whose build fails is skipped the same way
    build = cache.build_profile

    def no_la(path, grid, n, method="faquad", store=None):
        if method == "la":
            raise FlatDirectionError("LA integrand vanishes")
        return build(path, grid, n, method=method, store=store)

    monkeypatch.setattr(cache, "build_profile", no_la)
    other = tm.mini_preset(3)
    prof = cache.cached_profile(other.path, other.grid, 3, directory=d)
    assert len(prof.lambda_grid) == 257
    assert _entry(tmp_path, other).exists()
    assert not _entry(tmp_path, other, "la").exists()


def test_failed_write_leaves_no_temporary_file(tmp_path, mini, fake_build,
                                               monkeypatch):
    def disk_full(fp, *args):
        fp.write(b"partial")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cache, "write_profile", disk_full)
    prof = cache.cached_profile(mini.path, mini.grid, 2, directory=str(tmp_path))
    assert len(prof.lambda_grid) == 257
    assert list(tmp_path.iterdir()) == []


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
