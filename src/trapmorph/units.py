"""Unit system for the trap-morphing problem.

Internally everything is dimensionless with hbar = M = 1 and time measured
in units of 1/omega_ref, where

    omega_ref = 2 * sqrt(-alpha0 / M)

is the harmonic frequency of the *final* trap when the usual boundary
matching alpha_f = 2|alpha0| is used.  With that choice the dimensionless
quadratic coefficient of the initial double well is A0 = -1/4 exactly, which
doubles as a cheap sanity check on any conversion.

SI values enter and leave only through this module.  The potential is

    V(x) = alpha x^2 + beta x^4 + gamma x

so alpha is a spring constant (N/m), beta N/m^3 and gamma a force (N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import RegimeError

# CODATA 2018, 10 significant digits.  hbar is exact given the 2019 SI
# definition of h; the atomic mass unit carries a real uncertainty.
HBAR_SI = 1.054571817e-34  # J s
AMU_SI = 1.660539067e-27  # kg


@dataclass(frozen=True)
class UnitSystem:
    """Conversion constants between SI and internal dimensionless units,
    all fixed by the ion mass and the initial quadratic coefficient."""

    mass_SI: float  # kg
    alpha0_SI: float  # N/m, negative (double-well quadratic coefficient)
    omega_ref: float = field(init=False)  # rad/s
    length_unit: float = field(init=False)  # m
    energy_unit: float = field(init=False)  # J
    time_unit: float = field(init=False)  # s
    force_unit: float = field(init=False)  # N

    def __post_init__(self):
        if not (self.mass_SI > 0.0 and math.isfinite(self.mass_SI)):
            raise RegimeError("mass must be positive and finite")
        if not (self.alpha0_SI < 0.0 and math.isfinite(self.alpha0_SI)):
            raise RegimeError("alpha0 must be negative and finite")
        omega = 2.0 * math.sqrt(-self.alpha0_SI / self.mass_SI)
        length = math.sqrt(HBAR_SI / (self.mass_SI * omega))
        energy = HBAR_SI * omega
        for name, value in (("omega_ref", omega), ("length_unit", length),
                            ("energy_unit", energy), ("time_unit", 1.0 / omega),
                            ("force_unit", energy / length)):
            object.__setattr__(self, name, value)

    # --- coefficient conversions (alpha, beta, gamma) <-> (A, B, C) ---

    def alpha_to_dim(self, alpha_SI: float) -> float:
        return alpha_SI * self.length_unit**2 / self.energy_unit

    def beta_to_dim(self, beta_SI: float) -> float:
        return beta_SI * self.length_unit**4 / self.energy_unit

    def gamma_to_dim(self, gamma_SI: float) -> float:
        return gamma_SI * self.length_unit / self.energy_unit

    def alpha_to_SI(self, A: float) -> float:
        return A * self.energy_unit / self.length_unit**2

    def beta_to_SI(self, B: float) -> float:
        return B * self.energy_unit / self.length_unit**4

    def gamma_to_SI(self, C: float) -> float:
        return C * self.energy_unit / self.length_unit

    def to_dimensionless(self, alpha_SI, beta_SI, gamma_SI):
        """Map SI (alpha, beta, gamma) to dimensionless (A, B, C)."""
        vals = (alpha_SI, beta_SI, gamma_SI)
        if not all(math.isfinite(v) for v in vals):
            raise RegimeError("non-finite potential coefficients: %r" % (vals,))
        return (
            self.alpha_to_dim(alpha_SI),
            self.beta_to_dim(beta_SI),
            self.gamma_to_dim(gamma_SI),
        )

    def to_SI(self, A, B, C):
        return (self.alpha_to_SI(A), self.beta_to_SI(B), self.gamma_to_SI(C))


def beryllium_units() -> UnitSystem:
    """Unit system for a 9.012 u ion in the reference trap
    (alpha0 = -4.7 pN/m); omega_ref/2pi is then about 5.64 MHz."""
    return UnitSystem(mass_SI=9.012 * AMU_SI, alpha0_SI=-4.7e-12)
