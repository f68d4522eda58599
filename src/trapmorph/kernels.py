"""Phase kernels for the propagation hot loop.

`quartic_factors` fills a buffer with the even part of the potential
phase factor, exp(-i h (A x^2 + B x^4)), for a run of steps at once:
cos/sin of a real phase on the nodes `mirror_half` keeps, the phase
being its one temporary per call.  It reads no state, so `propagate`
runs it on a helper thread, a chunk of steps ahead of the transforms.
`apply_quartic_phase` and `apply_phase_table` mutate the complex
wavefunction, or a (rows, n) stack of them, in place, allocate nothing
and return None: the first multiplies in the odd bias factor
exp(-i h C x) from a table and then one step's even factors, every node
past the mirror half reusing the factor of its mirror image.
`propagate` calls them through this module, so a profiler can wrap
them by name.
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


def quartic_factors(out, u, A, B, h):
    """out = exp(-i h (A u + B u^2) u), elementwise, u = mirror_half(x^2).

    A and B broadcast against u to out's shape: (steps, 1) for one
    state, or (steps, rows, 1) for a stack with out (steps, rows, m).
    """
    phase = np.multiply(u, B)
    phase += A
    phase *= u
    phase *= -h
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)


def apply_quartic_phase(psi, u, e, odd):
    """psi *= odd * e, elementwise in place.

    e holds one step's `quartic_factors` on the m = len(u) nodes
    `mirror_half` keeps; node i >= m takes the factor of node n - i.  For
    a (rows, n) stack, odd is (rows, n) and e is (rows, m).
    """
    n, m = psi.shape[-1], len(u)
    np.multiply(psi, odd, out=psi)
    np.multiply(psi[..., :m], e, out=psi[..., :m])
    np.multiply(psi[..., m:], e[..., n - m:0:-1], out=psi[..., m:])


def apply_phase_table(psi, table):
    """psi *= table, in place (precomputed unit-modulus factors, shared
    by every row of a stack)."""
    np.multiply(psi, table, out=psi)
