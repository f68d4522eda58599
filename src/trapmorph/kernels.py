"""Phase kernels for the propagation hot loop.

Both mutate the complex wavefunction in place and return None; each
allocates one temporary per call.  `propagate` calls them through this
module, so a profiler can wrap them by name.
"""

import numpy as np


def apply_quartic_phase(psi, x, x2, x4, A, B, C, dt):
    """psi *= exp(-i dt (A x^2 + B x^4 + C x)), elementwise in place."""
    np.multiply(psi, np.exp(-1j * dt * (A * x2 + B * x4 + C * x)), out=psi)


def apply_phase_table(psi, table):
    """psi *= table, in place (precomputed unit-modulus factors)."""
    np.multiply(psi, table, out=psi)
