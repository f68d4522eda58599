"""On-disk cache of adiabaticity profiles.

Designing a profile costs one eigensolve per node; the result is a pair
of small arrays that depend only on (path, grid, target index, method,
start nodes, refinement tolerance).  This module stores them in a
versioned little-endian binary format whose header packs those inputs,
names each entry by a hash of those bytes and adds a CRC-32 of the body,
so repeated CLI scans skip straight to propagation.

FAQUAD and LA read the same spectrum along the path, so a miss builds
both from one set of eigensolves and stores the other method's entry
too, unless it already exists: one cold design of the mini preset costs
about 2 000 eigensolves for both methods.

Cache directory resolution: explicit argument, else $TRAPMORPH_CACHE_DIR,
else ~/.cache/trapmorph.  Corrupt or stale-format entries raise CacheError
from the low-level reader; the high-level entry point treats that as a
miss and recomputes.  Whenever it writes entries it also deletes the
entries that an older format version left in the same directory.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import CacheError, TrapMorphError
from .grid import SpatialGrid
from .potential import DeformationPath
from .schedule import (PROFILE_METHODS, PROFILE_NODES_DEFAULT,
                       QUADRATURE_REFINE_TOL, AdiabaticityProfile,
                       build_profile, profile_column)

MAGIC = b"TMPROF"
VERSION = 3
_PREFIX = struct.Struct("<6sH")  # magic and version: every format starts so
_INPUTS = struct.Struct("<ddddddIIddIIQd")
# A0, Af, B0, kappa, eps, C, n_target, method (index in PROFILE_METHODS),
# x_min, x_max, grid_n, target_n, start nodes, refine_tol
_TAIL = struct.Struct("<QI")  # count, body crc32
_HEADER = struct.Struct(_PREFIX.format + _INPUTS.format[1:] + _TAIL.format[1:])
# the body is count lambda values then count g values, float64


def cache_dir(explicit: Optional[str] = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("TRAPMORPH_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "trapmorph"


def _inputs(path: DeformationPath, grid: SpatialGrid, n: int,
            method: str) -> bytes:
    """The header bytes that name an entry and must match to serve it."""
    return _INPUTS.pack(path.A0, path.Af, path.B0, path.kappa, path.eps,
                        path.C, path.n_target, profile_column(method),
                        grid.x_min, grid.x_max, grid.n, n,
                        PROFILE_NODES_DEFAULT, QUADRATURE_REFINE_TOL)


def profile_key(path: DeformationPath, grid: SpatialGrid, n: int,
                method: str) -> str:
    digest = hashlib.sha256(_inputs(path, grid, n, method)).hexdigest()[:24]
    return "profile-%s.bin" % digest


def write_profile(fp, profile: AdiabaticityProfile, path: DeformationPath,
                  grid: SpatialGrid, n: int) -> None:
    body = np.array([profile.lambda_grid, profile.g], "<f8").tobytes()
    fp.write(_PREFIX.pack(MAGIC, VERSION)
             + _inputs(path, grid, n, profile.method)
             + _TAIL.pack(len(profile.lambda_grid), zlib.crc32(body)) + body)


def read_profile(fp, path: DeformationPath, grid: SpatialGrid, n: int,
                 method: str) -> AdiabaticityProfile:
    raw = fp.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise CacheError("truncated cache header")
    if _PREFIX.unpack_from(raw) != (MAGIC, VERSION):
        raise CacheError("cache magic/version mismatch")
    if raw[_PREFIX.size:-_TAIL.size] != _inputs(path, grid, n, method):
        raise CacheError("cache entry was written for different parameters")
    count, crc = _TAIL.unpack(raw[-_TAIL.size:])
    body = fp.read()
    if len(body) != 2 * 8 * count:
        raise CacheError("cache body holds %d bytes, header promises %d nodes"
                         % (len(body), count))
    if zlib.crc32(body) != crc:
        raise CacheError("cache body checksum mismatch")
    lam, g = np.frombuffer(body, "<f8").reshape(2, count).copy()
    try:
        return AdiabaticityProfile(lam, g, method)
    except TrapMorphError as exc:
        raise CacheError("cache entry holds an invalid profile: %s" % exc) from exc


def _remove_superseded(d: Path) -> None:
    """Delete the entries in `d` that an older format version wrote."""
    for entry in d.glob("profile-*.bin"):
        with open(entry, "rb") as fp:
            head = fp.read(_PREFIX.size)
        if len(head) == _PREFIX.size:
            magic, version = _PREFIX.unpack(head)
            if magic == MAGIC and version < VERSION:
                entry.unlink()


def _write_entry(entry: Path, profile: AdiabaticityProfile,
                 path: DeformationPath, grid: SpatialGrid, n: int) -> None:
    tmp = entry.with_suffix(".tmp.%d" % os.getpid())
    fp = open(tmp, "wb")  # a failed open made no file, so none is unlinked
    try:
        with fp:
            write_profile(fp, profile, path, grid, n)
        os.replace(tmp, entry)
    except BaseException:
        tmp.unlink(missing_ok=True)  # a failed write leaves no partial file
        raise


def cached_profile(path: DeformationPath, grid: SpatialGrid, n: int,
                   method: str = "faquad",
                   directory: Optional[str] = None) -> AdiabaticityProfile:
    """build_profile with a read-through disk cache.

    A miss also builds the other method's profile, from the eigensolves
    of the requested build, and stores it if its entry is absent.
    """
    d = cache_dir(directory)
    entry = d / profile_key(path, grid, n, method)
    try:
        with open(entry, "rb") as fp:
            return read_profile(fp, path, grid, n, method)
    except (CacheError, OSError):
        pass  # absent or unusable: recompute below and overwrite
    store = {}  # A -> (g_faquad, g_la), for the builds of this call only
    profile = build_profile(path, grid, n, method=method, store=store)
    try:
        d.mkdir(parents=True, exist_ok=True)
        _write_entry(entry, profile, path, grid, n)
    except OSError:
        return profile  # cache is best-effort; the computed profile is still good
    for other in PROFILE_METHODS:
        companion = d / profile_key(path, grid, n, other)
        if other == method or companion.exists():
            continue
        try:
            _write_entry(companion,
                         build_profile(path, grid, n, method=other, store=store),
                         path, grid, n)
        except (OSError, TrapMorphError):
            pass  # a request for that method builds it again and reports why
    try:
        _remove_superseded(d)
    except OSError:
        pass
    return profile
