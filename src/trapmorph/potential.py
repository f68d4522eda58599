"""Quartic trap potential family and closed-form well geometry.

The trap at any instant is

    V(x) = A x^2 + B x^4 + C x        (dimensionless, hbar = M = 1)

A < 0, B > 0 gives a biased double well; A > 0, B ~ 0 a (displaced)
harmonic well.  The deformation from one to the other is parametrized by
the quadratic coefficient A alone, with the quartic coefficient tied to it
through a logistic switch

    B(A) = B0 * S[kappa (A - eps)],   S(u) = 1 / (1 + exp(-u)),  kappa < 0

so that B(A0) ~ B0 and B(Af) ~ 0, and the bias C held constant.

Closed-form geometry below is the small-bias expansion; its validity bound
|C| << (4 sqrt(2)/3) sqrt(-A^3/B) is exposed by `small_bias_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import RegimeError

# Operational reading of the "much less than" validity conditions: the
# ratio to the bound must not exceed this (keeps linear-shift errors ~1%).
MUCH_LESS_THAN = 0.1
# Relative tolerance on the switch's asymptotes: B(A0) within this of B0,
# B(Af) within it (times B0) of 0.
SWITCH_TOL = 1e-6


@dataclass(frozen=True)
class PotentialParams:
    """Instantaneous potential coefficients V(x) = A x^2 + B x^4 + C x."""

    A: float
    B: float
    C: float = 0.0

    def __post_init__(self):
        for name in ("A", "B", "C"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise RegimeError("non-finite coefficient %s=%r" % (name, v))
        if self.B < 0.0:
            raise RegimeError("quartic coefficient B must be >= 0")

    @property
    def is_double_well(self) -> bool:
        return self.A < 0.0 and self.B > 0.0

    def __call__(self, x):
        """Evaluate V on scalars or arrays."""
        x = np.asarray(x)
        x2 = x * x
        return self.A * x2 + self.B * (x2 * x2) + self.C * x

    def derivative(self, x):
        x = np.asarray(x)
        return 2.0 * self.A * x + 4.0 * self.B * x**3 + self.C


@dataclass(frozen=True)
class WellGeometry:
    """Small-bias closed-form geometry of a biased double well."""

    x_minus: float
    x_plus: float
    D: float  # inter-well separation
    Omega: float  # effective single-well frequency, 2 sqrt(-A)
    deltaV: float  # energy offset between the wells, C * D
    x_eq: float  # centre of the final harmonic trap (-C / 2A for A > 0)


def geometry(p: PotentialParams) -> WellGeometry:
    """Closed-form well geometry.

    Double-well regime (A < 0 < B): minima at +-sqrt(-A/2B) + C/(4A),
    separation D = sqrt(-2A/B), per-well frequency Omega = 2 sqrt(-A) and
    inter-well offset deltaV = C*D (all to first order in the bias).

    Harmonic regime (A > 0, B = 0): only x_eq = -C/(2A) is defined; the
    well fields are returned as NaN.
    """
    if p.A < 0.0 and p.B == 0.0:
        raise RegimeError("A < 0 with B = 0 is unbounded from below")
    if p.A > 0.0 and p.B == 0.0:
        xeq = -p.C / (2.0 * p.A)
        nan = float("nan")
        return WellGeometry(nan, nan, nan, math.sqrt(2.0 * p.A), nan, xeq)
    if not p.is_double_well:
        # A >= 0 with B > 0, or A = 0: single anharmonic well, no
        # double-well geometry to report.
        raise RegimeError(
            "well geometry undefined for A=%g, B=%g (not a double well)"
            % (p.A, p.B)
        )
    x0 = math.sqrt(-p.A / (2.0 * p.B))
    shift = p.C / (4.0 * p.A)
    D = math.sqrt(-2.0 * p.A / p.B)
    return WellGeometry(
        x_minus=-x0 + shift,
        x_plus=x0 + shift,
        D=D,
        Omega=2.0 * math.sqrt(-p.A),
        deltaV=p.C * D,
        x_eq=float("nan"),
    )


def small_bias_bound(A: float, B: float) -> float:
    """|C| bound for the small-bias regime: (4 sqrt(2)/3) sqrt(-A^3/B)."""
    if not (A < 0.0 < B):
        raise RegimeError("small-bias bound needs a double well (A<0<B)")
    return (4.0 * math.sqrt(2.0) / 3.0) * math.sqrt(-(A**3) / B)


def small_bias_check(p: PotentialParams):
    """Return (ratio, ok): |C| over the small-bias bound, and whether it
    passes the operational threshold MUCH_LESS_THAN."""
    bound = small_bias_bound(p.A, p.B)
    ratio = abs(p.C) / bound
    return ratio, ratio <= MUCH_LESS_THAN


def bias_for_target(n: int, A0: float, B0: float) -> float:
    """Bias C placing the right-well ground state as global level n.

    C = (n - 1/2) * Omega0 / D0 puts the inter-well offset exactly half a
    quantum inside the ordering window  n-1 < C D0/Omega0 < n, so the
    right-well ground level sits between left-well levels n-1 and n.
    """
    if n < 1:
        raise RegimeError("bias targeting needs n >= 1 (n=0 needs no bias)")
    g = geometry(PotentialParams(A0, B0))
    return (n - 0.5) * g.Omega / g.D


def max_target_bound(A0: float, B0: float) -> float:
    """Upper bound (4/3) sqrt(-A0^3/B0^2) on reachable target index n.

    Usable n must stay well below this (ratio <= MUCH_LESS_THAN) for the
    harmonic description of each well to hold up to level n.
    """
    if not (A0 < 0.0 < B0):
        raise RegimeError("max-n bound needs a double well (A<0<B)")
    return (4.0 / 3.0) * math.sqrt(-(A0**3) / B0**2)


def quanta_number(p: PotentialParams) -> float:
    """Well offset in units of the instantaneous quantum: C / sqrt(2B).

    Independent of A, hence constant along the constant-B stretch of a
    deformation; it only drops once the logistic switch pulls B down.
    """
    if p.B <= 0.0:
        raise RegimeError("quanta number undefined for B = 0")
    return p.C * math.sqrt(1.0 / (2.0 * p.B))


@dataclass(frozen=True)
class DeformationPath:
    """One-parameter family A -> (A, B(A), C) of trap potentials.

    A runs from A0 < 0 (double well) to Af = 2|A0| > 0 (harmonic); B
    follows the logistic switch and C is a fixed bias chosen for the
    target level `n_target`.
    """

    A0: float
    Af: float
    B0: float
    kappa: float
    eps: float
    C: float
    n_target: int = 0

    def __post_init__(self):
        if not (self.A0 < 0.0 < self.Af):
            raise RegimeError("need A0 < 0 < Af")
        if abs(self.Af - 2.0 * abs(self.A0)) > 1e-12 * abs(self.A0):
            raise RegimeError("boundary matching requires Af = 2|A0|")
        if self.B0 <= 0.0:
            raise RegimeError("B0 must be positive")
        if self.kappa >= 0.0:
            raise RegimeError("logistic steepness kappa must be negative")
        if self.n_target < 0:
            raise RegimeError("n_target must be >= 0")
        # asymptotic boundary conditions of the switch
        if not (self.B0 * (1.0 - SWITCH_TOL) <= self.beta(self.A0) <= self.B0):
            raise RegimeError("B(A0) not within tolerance of B0; kappa too soft?")
        if not (0.0 <= self.beta(self.Af) <= self.B0 * SWITCH_TOL):
            raise RegimeError("B(Af) not close enough to 0; kappa too soft?")

    def beta(self, A):
        """Quartic coefficient along the path, B0 * S[kappa (A - eps)]."""
        return self.B0 * expit(self.kappa * (np.asarray(A) - self.eps))

    def beta_prime(self, A):
        """dB/dA, analytic: B0 * kappa * S * (1 - S)."""
        s = expit(self.kappa * (np.asarray(A) - self.eps))
        return self.B0 * self.kappa * s * (1.0 - s)

    def params_at(self, A: float) -> PotentialParams:
        return PotentialParams(float(A), float(self.beta(A)), self.C)

    @property
    def initial(self) -> PotentialParams:
        return self.params_at(self.A0)

    @property
    def final(self) -> PotentialParams:
        return self.params_at(self.Af)


def path_for_target(A0: float, B0: float, kappa: float, eps: float,
                    n_target: int) -> DeformationPath:
    """Convenience constructor: bias picked by `bias_for_target`."""
    C = 0.0 if n_target == 0 else bias_for_target(n_target, A0, B0)
    return DeformationPath(A0=A0, Af=2.0 * abs(A0), B0=B0, kappa=kappa,
                           eps=eps, C=C, n_target=n_target)
