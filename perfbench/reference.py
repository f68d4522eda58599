"""Independent references the benchmark checks trapmorph's outputs against.

Nothing here calls trapmorph's eigen, schedule, propagate or kernels
code.  The inputs are plain arrays taken from public objects: grid nodes,
the schedule's (t, A) samples and the deformation path's constants.

* `strang` - textbook Strang splitting, half kinetic / full potential /
  half kinetic per step with no merging of adjacent half steps, the
  control A(t) from its own monotone cubic interpolant of the samples.
* `adiabaticity_integrand` - g(A) from its own tridiagonal eigensolve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigh_tridiagonal
from scipy.special import expit


def quartic_beta(path, A):
    """B(A) = B0 * S[kappa (A - eps)], the logistic quartic switch."""
    return path.B0 * expit(path.kappa * (np.asarray(A, dtype=float) - path.eps))


def strang(psi0, x, times, A_values, path, dt, t_f):
    """Propagate psi0 (complex array on the uniform nodes x) to t_f.

    Full steps of dt, then one partial step landing exactly on t_f; the
    potential is sampled at each step's midpoint time.  Returns the final
    amplitudes without renormalizing them.
    """
    n = len(x)
    dx = float(x[1] - x[0])
    k2 = (2.0 * np.pi * np.fft.fftfreq(n, dx)) ** 2
    x2 = x * x
    x4 = x2 * x2
    A_of_t = PchipInterpolator(np.asarray(times, float), np.asarray(A_values, float))

    m = int(math.floor(t_f / dt + 1e-9))
    rem = t_f - m * dt
    if rem < 1e-12 * max(1.0, t_f):
        rem = 0.0
    steps = [(j + 0.5) * dt for j in range(m)]
    psi = np.array(psi0, dtype=complex)
    half = np.exp(-0.25j * dt * k2)
    A_mid = A_of_t(np.array(steps)) if steps else np.empty(0)
    B_mid = quartic_beta(path, A_mid)
    for A, B in zip(A_mid, B_mid):
        psi = np.fft.ifft(half * np.fft.fft(psi))
        psi *= np.exp(-1j * dt * (A * x2 + B * x4 + path.C * x))
        psi = np.fft.ifft(half * np.fft.fft(psi))
    if rem > 0.0:
        A = float(A_of_t(m * dt + 0.5 * rem))
        B = float(quartic_beta(path, A))
        half_r = np.exp(-0.25j * rem * k2)
        psi = np.fft.ifft(half_r * np.fft.fft(psi))
        psi *= np.exp(-1j * rem * (A * x2 + B * x4 + path.C * x))
        psi = np.fft.ifft(half_r * np.fft.fft(psi))
    return psi


def norm(psi, dx):
    return float(np.sum(np.abs(psi) ** 2) * dx)


def mean_x(psi, x, dx):
    return float(np.sum(np.abs(psi) ** 2 * x) * dx)


def overlap(a, b, dx):
    """|<a|b>| on the grid."""
    return float(abs(np.sum(np.conj(a) * b) * dx))


def adiabaticity_integrand(path, x, n, A, method):
    """g(A) for the FAQUAD ('faquad') or local-adiabatic ('la') design.

    Lowest n + 3 levels of the second-order finite-difference Hamiltonian
    on the nodes x; faquad sums |<n|dH/dA|m>| / (E_n - E_m)^2 and la sums
    1 / (E_n - E_m)^2 over m in {n-2, n-1, n+1, n+2}, with
    dH/dA = x^2 + B'(A) x^4.
    """
    dx = float(x[1] - x[0])
    k = n + 3
    B = float(quartic_beta(path, A))
    V = A * x * x + B * x**4 + path.C * x
    w, v = eigh_tridiagonal(1.0 / dx**2 + V, np.full(len(x) - 1, -0.5 / dx**2),
                            select="i", select_range=(0, k - 1))
    v = v / math.sqrt(dx)
    s = float(expit(path.kappa * (A - path.eps)))
    dH = x * x + path.B0 * path.kappa * s * (1.0 - s) * x**4
    g = 0.0
    for m in (n - 2, n - 1, n + 1, n + 2):
        if not 0 <= m < k:
            continue
        gap = w[n] - w[m]
        weight = abs(np.sum(v[:, n] * dH * v[:, m]) * dx) if method == "faquad" else 1.0
        g += weight / gap**2
    return g
