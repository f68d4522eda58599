"""Phase kernels for the propagation hot loop.

Both mutate the complex wavefunction in place and return None.
`apply_quartic_phase` takes the odd bias factor exp(-i dt C x) as a table
and evaluates the even part of the potential phase, A x^2 + B x^4, as a
real phase with cos/sin on the nodes `mirror_half` keeps; every other
node reuses the factor of its mirror image.  That real phase is its one
temporary per call; `apply_phase_table` allocates none.  `propagate`
calls them through this module, so a profiler can wrap them by name.
"""

import numpy as np


def mirror_half(x2):
    """The leading nodes of x2 that fix all of it.

    For n nodes these are the first m = n//2 + 1 when x2[i] equals
    x2[n - i] bitwise for every i >= m (a grid symmetric about 0), else
    all n, so that `apply_quartic_phase` gives the same factors either way.
    """
    n = len(x2)
    m = n // 2 + 1
    if not np.array_equal(x2[m:], x2[n - m:0:-1]):
        m = n
    return x2[:m]


def apply_quartic_phase(psi, u, e, odd, A, B, dt):
    """psi *= odd * exp(-i dt (A x^2 + B x^4)), elementwise in place.

    u = mirror_half(x^2) and e is complex scratch of the same length m;
    node i >= m takes the even factor of node n - i.
    """
    n, m = len(psi), len(u)
    phase = np.multiply(u, B)
    phase += A
    phase *= u
    phase *= -dt
    np.cos(phase, out=e.real)
    np.sin(phase, out=e.imag)
    np.multiply(psi, odd, out=psi)
    np.multiply(psi[:m], e, out=psi[:m])
    np.multiply(psi[m:], e[n - m:0:-1], out=psi[m:])


def apply_phase_table(psi, table):
    """psi *= table, in place (precomputed unit-modulus factors)."""
    np.multiply(psi, table, out=psi)
