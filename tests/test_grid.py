"""Spatial grid conventions (FFT-periodic node layout)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph.errors import GridError


def test_node_layout():
    g = tm.SpatialGrid(-20.0, 20.0, 512)
    assert g.dx == 40.0 / 512
    assert g.x[0] == -20.0
    # right endpoint excluded (periodic convention)
    assert_allclose(g.x[-1], 20.0 - g.dx, rtol=1e-15)
    assert len(g.x) == 512
    assert_allclose(np.diff(g.x), g.dx, rtol=1e-14)


def test_wavenumbers_match_fft_convention():
    g = tm.SpatialGrid(-10.0, 10.0, 64)
    k = g.wavenumbers
    assert_allclose(k, 2.0 * np.pi * np.fft.fftfreq(64, d=g.dx), rtol=1e-14)
    # spectral derivative of a periodic function is exact
    f = np.exp(np.sin(2.0 * np.pi * g.x / 20.0))
    df = np.fft.ifft(1j * k * np.fft.fft(f)).real
    expect = f * np.cos(2.0 * np.pi * g.x / 20.0) * (2.0 * np.pi / 20.0)
    assert_allclose(df, expect, atol=1e-10)


def test_refined():
    g = tm.SpatialGrid(-20.0, 20.0, 512)
    g2 = g.refined(2)
    assert (g2.x_min, g2.x_max, g2.n) == (-20.0, 20.0, 1024)
    assert g2.dx == g.dx / 2
    assert g == tm.SpatialGrid(-20.0, 20.0, 512)
    assert g != g2


def test_boundary_mass():
    g = tm.SpatialGrid(-20.0, 20.0, 512)
    psi = np.exp(-0.5 * g.x**2).astype(complex)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * g.dx)
    assert g.boundary_mass(psi) < 1e-100  # gaussian tail is ~exp(-324)
    flat = np.ones(512, dtype=complex) / np.sqrt(40.0)
    # outer 5% on each side of a flat state holds ~10% of the mass
    assert_allclose(g.boundary_mass(flat), 0.1, atol=0.02)


def test_validation():
    with pytest.raises(GridError):
        tm.SpatialGrid(1.0, -1.0, 64)
    with pytest.raises(GridError):
        tm.SpatialGrid(-1.0, 1.0, 8)
    for lo, hi in ((-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(GridError):
            tm.SpatialGrid(lo, hi, 64)
