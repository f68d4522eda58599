"""Uniform spatial grid shared by the eigensolver and the propagator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError


@dataclass(frozen=True)
class SpatialGrid:
    """Nodes x_i = x_min + i dx, i = 0..n-1 (right endpoint excluded,
    matching the periodic convention of the FFT propagator)."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise GridError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise GridError("need x_min < x_max")
        if self.n < 16:
            raise GridError("grid too small (n >= 16)")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT angular wavenumbers matching numpy's transform layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)

    def refined(self, factor: int = 2) -> "SpatialGrid":
        """Same domain, `factor` times more nodes."""
        return SpatialGrid(self.x_min, self.x_max, self.n * factor)

    def boundary_mass(self, psi: np.ndarray):
        """Probability in the outer 5% of the domain on each side: one
        figure for a state, an array of them for states held as columns."""
        m = max(1, int(round(0.05 * self.n)))
        w = np.abs(psi) ** 2
        return (w[:m].sum(axis=0) + w[-m:].sum(axis=0)) * self.dx
