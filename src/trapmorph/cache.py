"""On-disk cache of adiabaticity profiles.

Designing a profile costs one eigensolve per node, about 2 000 on the
mini preset; the result is a pair of small arrays that depend only on
(path, grid, target index, method, start nodes, refinement tolerance).
This module stores them in a versioned little-endian binary format keyed
by a hash of those inputs, so repeated CLI scans skip straight to
propagation.  The header carries a CRC-32 of the body.

Cache directory resolution: explicit argument, else $TRAPMORPH_CACHE_DIR,
else ~/.cache/trapmorph.  Corrupt or stale-format entries raise CacheError
from the low-level reader; the high-level entry point treats that as a
miss and recomputes.  Whenever it writes an entry it also deletes the
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
from .schedule import (PROFILE_NODES_DEFAULT, QUADRATURE_REFINE_TOL,
                       AdiabaticityProfile, build_profile)

MAGIC = b"TMPROF"
VERSION = 2
_METHOD_CODES = {"faquad": 0, "la": 1}
_HEADER = struct.Struct("<6sHddddddIIddIIQdQI")
# magic, version, A0, Af, B0, kappa, eps, C, n_target, method,
# x_min, x_max, grid_n, target_n, nodes, refine_tol, count, body crc32;
# the body is count lambda values then count g values, float64
_PREFIX = struct.Struct("<6sH")  # magic and version: every format starts so


def cache_dir(explicit: Optional[str] = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("TRAPMORPH_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "trapmorph"


def profile_key(path: DeformationPath, grid: SpatialGrid, n: int,
                method: str) -> str:
    parts = [
        "%.17g" % v
        for v in (path.A0, path.Af, path.B0, path.kappa, path.eps, path.C,
                  grid.x_min, grid.x_max)
    ]
    parts += [str(path.n_target), str(grid.n), str(n), method,
              str(PROFILE_NODES_DEFAULT),
              "%.17g" % QUADRATURE_REFINE_TOL]
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:24]
    return "profile-%s.bin" % digest


def _inputs(path: DeformationPath, grid: SpatialGrid, n: int,
            method: str) -> tuple:
    """The header fields that must match for an entry to be served."""
    return (path.A0, path.Af, path.B0, path.kappa, path.eps, path.C,
            path.n_target, _METHOD_CODES[method], grid.x_min, grid.x_max,
            grid.n, n, PROFILE_NODES_DEFAULT, QUADRATURE_REFINE_TOL)


def write_profile(fp, profile: AdiabaticityProfile, path: DeformationPath,
                  grid: SpatialGrid, n: int) -> None:
    body = (np.ascontiguousarray(profile.lambda_grid, "<f8").tobytes()
            + np.ascontiguousarray(profile.g, "<f8").tobytes())
    fp.write(_HEADER.pack(MAGIC, VERSION,
                          *_inputs(path, grid, n, profile.method),
                          len(profile.lambda_grid), zlib.crc32(body)))
    fp.write(body)


def read_profile(fp, path: DeformationPath, grid: SpatialGrid, n: int,
                 method: str) -> AdiabaticityProfile:
    raw = fp.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise CacheError("truncated cache header")
    fields = _HEADER.unpack(raw)
    if fields[0] != MAGIC or fields[1] != VERSION:
        raise CacheError("cache magic/version mismatch")
    if fields[2:-2] != _inputs(path, grid, n, method):
        raise CacheError("cache entry was written for different parameters")
    count, crc = fields[-2:]
    body = fp.read()
    if len(body) != 2 * 8 * count:
        raise CacheError("cache body holds %d bytes, header promises %d nodes"
                         % (len(body), count))
    if zlib.crc32(body) != crc:
        raise CacheError("cache body checksum mismatch")
    lam = np.frombuffer(body[: 8 * count], "<f8").copy()
    g = np.frombuffer(body[8 * count:], "<f8").copy()
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


def cached_profile(path: DeformationPath, grid: SpatialGrid, n: int,
                   method: str = "faquad",
                   directory: Optional[str] = None) -> AdiabaticityProfile:
    """build_profile with a read-through disk cache."""
    d = cache_dir(directory)
    entry = d / profile_key(path, grid, n, method)
    if entry.exists():
        try:
            with open(entry, "rb") as fp:
                return read_profile(fp, path, grid, n, method)
        except (CacheError, OSError):
            pass  # recompute below and overwrite
    profile = build_profile(path, grid, n, method=method)
    try:
        d.mkdir(parents=True, exist_ok=True)
        tmp = entry.with_suffix(".tmp.%d" % os.getpid())
        with open(tmp, "wb") as fp:
            write_profile(fp, profile, path, grid, n)
        os.replace(tmp, entry)
        _remove_superseded(d)
    except OSError:
        pass  # cache is best-effort; the computed profile is still good
    return profile
