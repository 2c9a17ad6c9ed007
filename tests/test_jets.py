"""Jet (truncated Taylor) arithmetic."""

import math

import pytest

from padicfourier import Jet, p_power_jet


def fd_derivative(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_p_power_jet_is_exact():
    jet = p_power_jet(3, -2, 0.7 + 0.1j, 3)
    base = 3 ** (-2 * (0.7 + 0.1j))
    for k in range(4):
        assert jet.coeffs[k] == pytest.approx((-2 * math.log(3)) ** k * base)


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
        fd = fd_derivative(lambda a, kk=k - 1: jet_at(a, 3).coeffs[kk], alpha)
        assert abs(jet.coeffs[k] - fd) < 1e-4 * (1 + abs(fd))
