"""Jet (truncated Taylor) arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest

from padicfourier import Jet, p_power_jet
from padicfourier.errors import NumericOverflow
from padicfourier.jets import p_power_term


def fd_theta(fn, x, p, h=1e-6):
    # theta = log_p(e) d/dalpha, by a central difference
    return (fn(x + h) - fn(x - h)) / (2 * h) / math.log(p)


def test_p_power_jet_is_exact():
    jet = p_power_jet(3, -2, 0.7 + 0.1j, 3)
    base = 3 ** (-2 * (0.7 + 0.1j))
    for k in range(4):
        assert jet.coeffs[k] == pytest.approx((-2) ** k * base)


def test_p_power_jet_past_the_float_range():
    # 70001^64 is past the float range and 2^(-70001 * 0.001) is not: the
    # entries are taken in logarithms and stay finite
    jet = p_power_jet(2, -70001, 0.001, 64)
    for k in (0, 1, 63, 64):
        want = (-1) ** k * math.exp(k * math.log(70001) - 70001 * 0.001 * math.log(2))
        assert jet.coeffs[k] == pytest.approx(want, rel=1e-12)
    # below the range every entry is a zero signed as (-1)^k times the
    # underflowed power
    zero = cmath.exp(complex(1.5, -0.5) * (-100000 * math.log(3)))
    jet = p_power_jet(3, -100000, 1.5 - 0.5j, 64)
    for k, entry in enumerate(jet.coeffs):
        want = (-1.0) ** k * zero
        assert entry == 0 and [math.copysign(1, x) for x in (entry.real, entry.imag)] == [
            math.copysign(1, x) for x in (want.real, want.imag)
        ]
    with pytest.raises(NumericOverflow):
        p_power_jet(3, 100000, 1.5, 2)


def test_a_factor_below_the_normal_range_is_taken_in_logarithms():
    # 3^-670 alone is subnormal, a dozen of its bits left; times 3^150 the
    # entry is 3^-520, a normal float, and keeps its digits
    for k, c in ((0, 1), (2, 300**2)):
        got = p_power_term(3, -300, -0.5, k, -670)
        assert got.imag == 0 and got.real == pytest.approx(c * 3.0**-520, rel=1e-12, abs=0)
    # both factors normal, their product not: 3^-419 3^-420 rounds to 0 and
    # 3^-300 3^-346 is subnormal, while c^k brings the entry back into range
    for c, k, b in ((-419, 64, -420), (-300, 2, -346)):
        want = float(Fraction(c) ** k * Fraction(3) ** (c + b))
        got = p_power_term(3, c, 1, k, b)
        assert got.imag == 0 and got.real == pytest.approx(want, rel=1e-12, abs=0)
        assert p_power_jet(3, c, 1, k, b).coeffs[k] == got


def test_a_jet_entry_is_a_finite_float():
    with pytest.raises(NumericOverflow, match="a jet entry of order 2"):
        Jet((1, math.inf, 0))
    big = Jet((1e308, 1e308))
    with pytest.raises(NumericOverflow):
        big + big


def test_ring_laws():
    a = p_power_jet(2, 1, 0.3, 2)
    b = p_power_jet(2, -1, 0.3, 2)
    assert ((a + b) - b).coeffs == pytest.approx(a.coeffs)
    assert (a / a).coeffs[0] == pytest.approx(1)


def test_division_requires_nonzero_value():
    a = p_power_jet(2, 1, 0.5, 1)
    zero = Jet.constant(0, 1)
    with pytest.raises(ZeroDivisionError):
        a / zero


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        p_power_jet(2, 1, 0.5, 1) / p_power_jet(2, 1, 0.5, 2)
    with pytest.raises(ValueError):
        p_power_jet(2, 1, 0.5, 1) - p_power_jet(2, 1, 0.5, 2)


def test_composite_jet_matches_finite_differences():
    # f(alpha) = p^{2 alpha} / (1 - p^{-alpha}) at a generic point
    def value(alpha):
        return 2 ** (2 * alpha) / (1 - 2.0**-alpha)

    def jet_at(alpha, order):
        num = p_power_jet(2, 2, alpha, order)
        den = Jet.constant(1, order) - p_power_jet(2, -1, alpha, order)
        return num / den

    alpha = 1.37
    jet = jet_at(alpha, 3)
    assert jet.coeffs[0] == pytest.approx(value(alpha))
    # entry k vs central difference of entry k-1
    for k in range(1, 4):
        fd = fd_theta(lambda a, kk=k - 1: jet_at(a, 3).coeffs[kk], alpha, 2)
        assert abs(jet.coeffs[k] - fd) < 1e-4 * (1 + abs(fd))
