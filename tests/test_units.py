"""Unit system: reference scales and SI <-> dimensionless conversion."""

import math

import pytest
from numpy.testing import assert_allclose

import trapmorph as tm
from trapmorph.errors import RegimeError
from trapmorph.units import AMU_SI, HBAR_SI, UnitSystem


def test_reference_frequency_and_length():
    u = tm.beryllium_units()
    M = 9.012 * AMU_SI
    assert_allclose(u.omega_ref, 2.0 * math.sqrt(4.7e-12 / M), rtol=1e-12)
    # mpmath oracle values for this trap
    assert_allclose(u.omega_ref / (2 * math.pi), 5.64110152510709e6, rtol=1e-10)
    assert_allclose(u.length_unit, 1.41003875014146e-8, rtol=1e-10)
    assert_allclose(u.time_unit, 2.82134512884651e-8, rtol=1e-10)
    assert_allclose(u.energy_unit, HBAR_SI * u.omega_ref, rtol=1e-14)
    assert_allclose(u.force_unit, u.energy_unit / u.length_unit, rtol=1e-14)


def test_quadratic_coefficient_is_minus_one_quarter_for_any_trap():
    # A0 = alpha0 L^2 / (hbar Omega) = -1/4 identically: the length and
    # frequency scales are built from alpha0 itself
    for mass_amu, alpha in [(9.012, -4.7e-12), (170.94, -1.0e-11),
                            (1.0, -3.3e-13)]:
        u = UnitSystem(mass_amu * AMU_SI, alpha)
        assert_allclose(u.alpha_to_dim(alpha), -0.25, rtol=1e-13)


def test_quartic_conversion_oracle():
    u = tm.beryllium_units()
    # B = beta L^4 / (hbar Omega), evaluated in 30-digit arithmetic
    assert_allclose(u.beta_to_dim(0.052), 5.49930225525666e-7, rtol=1e-10)


def test_bias_conversion_oracle():
    u = tm.beryllium_units()
    # gamma = 3.5 hbar Omega / D0 for the n = 4 design; its dimensionless
    # value is 3.5 L / D0 = 0.003670600 (30-digit arithmetic)
    g = 9.73028888856814e-22
    assert_allclose(u.gamma_to_dim(g), 0.00367059988, rtol=1e-6)
    assert_allclose(u.gamma_to_SI(u.gamma_to_dim(g)), g, rtol=1e-13)


def test_round_trips():
    u = tm.beryllium_units()
    for a in (-4.7e-12, 1.0e-12, 2.5e-13):
        assert_allclose(u.alpha_to_SI(u.alpha_to_dim(a)), a, rtol=1e-13)
    assert_allclose(u.beta_to_SI(u.beta_to_dim(0.052)), 0.052, rtol=1e-13)
    p = u.to_dimensionless(-4.7e-12, 0.052, 9.73e-22)
    back = u.to_SI(*p)
    assert_allclose(back, (-4.7e-12, 0.052, 9.73e-22), rtol=1e-12)


def test_to_dimensionless_matches_beryllium_preset_scale():
    u = tm.beryllium_units()
    A, B, C = u.to_dimensionless(-4.7e-12, 0.052, 0.0)
    assert_allclose(A, -0.25, rtol=1e-13)
    assert_allclose(B, 5.4993e-7, rtol=1e-4)
    assert C == 0.0
    # well separation in internal units ~ 953 -> 13.45 um
    D = math.sqrt(-2.0 * A / B)
    assert_allclose(D * u.length_unit, 13.445e-6, rtol=1e-4)


def test_invalid_trap_parameters():
    with pytest.raises(RegimeError):
        UnitSystem(-1.0, -4.7e-12)
    with pytest.raises(RegimeError):
        UnitSystem(9.012 * AMU_SI, 4.7e-12)  # alpha0 must be < 0
    u = tm.beryllium_units()
    with pytest.raises(RegimeError):
        u.to_dimensionless(float("nan"), 0.052, 0.0)
