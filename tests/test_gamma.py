"""Gamma_p, Gamma_p(pi_alpha), I_0, Bernoulli numbers, power sums."""

import math
import random
from fractions import Fraction as Fr
from math import comb

import pytest

from padicfourier import (
    NormedMultChar,
    Jet,
    PiAlphaLog,
    Prime,
    bernoulli,
    delta_indicator,
    faulhaber_sum,
    gamma_p,
    gamma_pi,
    j0_closed_form,
    p_power_jet,
    quadratic_character,
    trivial_character,
    verify_stabilization,
)
from padicfourier.characters import gauss_sum
from padicfourier.errors import PoleProximity
from padicfourier.gamma import faulhaber_coeffs

from conftest import brute_sphere_integral

P2, P3, P5, P7 = Prime(2), Prime(3), Prime(5), Prime(7)


def i0(prime, chr_, alpha, order):
    """Jet whose entry k is log_p^k e * d^k I_0(alpha)/dalpha^k, where I_0 is
    the regularized unit-ball integral of |x|^{alpha-1} pi_1(x) log_p^k |x|:
    J0 at l0 = 0 with chi_p == 1."""
    return Jet(
        tuple(
            j0_closed_form(PiAlphaLog(alpha, chr_, k), 0, [(0, 1)], prime)[0]
            for k in range(order + 1)
        )
    )


def cubic_mod9():
    return NormedMultChar(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def test_gamma_p_examples():
    assert abs(gamma_p(P5, 1, 0).value) < 1e-14
    assert gamma_p(P2, 2, 0).value == pytest.approx(-4 / 3)
    # Gamma_3(1/2)^2 = 1 via the reflection identity at the fixed point
    assert gamma_p(P3, 0.5, 0).value ** 2 == pytest.approx(1)


def test_reflection_identity():
    rng = random.Random(11)
    for _ in range(50):
        alpha = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(alpha.imag) < 0.05 and abs(alpha.real) < 0.05:
            continue
        for prime in (P2, P3):
            prod = gamma_p(prime, alpha, 0).value * gamma_p(prime, 1 - alpha, 0).value
            assert abs(prod - 1) < 1e-12


def test_pole_proximity():
    with pytest.raises(PoleProximity):
        gamma_p(P2, 0, 0)
    with pytest.raises(PoleProximity):
        gamma_p(P3, 2j * math.pi / math.log(3), 1)
    with pytest.raises(PoleProximity):
        j0_closed_form(PiAlphaLog(1e-14, trivial_character(P2)), 0, [(0, 1)], P2)


def jet_fd_check(fn, p, alpha, order, h=1e-5, tol=1e-4):
    # entry k against theta = log_p(e) d/dalpha of entry k-1, by a central
    # difference
    jet = fn(alpha, order)
    for k in range(1, order + 1):
        fd = (fn(alpha + h, order).coeffs[k - 1] - fn(alpha - h, order).coeffs[k - 1]) / (
            2 * h
        ) / math.log(p)
        assert abs(jet.coeffs[k] - fd) < tol * (1 + abs(fd)), (k, jet.coeffs[k], fd)


def test_gamma_p_jets_match_finite_differences():
    rng = random.Random(12)
    for _ in range(10):
        alpha = complex(rng.uniform(0.3, 2.5), rng.uniform(-1, 1))
        jet_fd_check(lambda a, m: gamma_p(P3, a, m), 3, alpha, 3)


def test_i0_examples_and_jets():
    quad = quadratic_character(P3)
    jet = i0(P3, quad, 1.3 - 0.2j, 2)
    assert jet.coeffs == (0, 0, 0)
    assert i0(P5, trivial_character(P5), 1, 0).value == pytest.approx(1)
    # entry 1 at p = 2, alpha = 1 equals -1 (log_2 e * dI0/dalpha)
    assert i0(P2, trivial_character(P2), 1, 1).coeffs[1] == pytest.approx(-1)
    # entry k carries a log_p e factor relative to the plain alpha-derivative
    jet = i0(P2, trivial_character(P2), 1.2, 3)
    h = 1e-5
    for k in range(1, 4):
        fd = (
            i0(P2, trivial_character(P2), 1.2 + h, 3).coeffs[k - 1]
            - i0(P2, trivial_character(P2), 1.2 - h, 3).coeffs[k - 1]
        ) / (2 * h)
        fd /= math.log(2)
        assert abs(jet.coeffs[k] - fd) < 1e-4 * (1 + abs(fd))


def test_i0_entry1_finite_difference_oracle():
    h = 1e-6

    def i0_value(alpha):
        return (1 - 0.5) / (1 - 2.0**-alpha)

    fd = (i0_value(1 + h) - i0_value(1 - h)) / (2 * h) / math.log(2)
    assert i0(P2, trivial_character(P2), 1, 1).coeffs[1] == pytest.approx(fd, rel=1e-5)


def test_gamma_pi_trivial_delegates_to_gamma_p():
    for alpha in (2, 0.5, 1.3 - 1.1j):
        a = gamma_pi(alpha, trivial_character(P3), 2)
        b = gamma_p(P3, alpha, 2)
        for x, y in zip(a.coeffs, b.coeffs):
            assert abs(x - y) < 1e-12


def test_gamma_pi_consistency_example():
    assert gamma_pi(2, trivial_character(P2), 0).value == pytest.approx(-4 / 3)


def test_gamma_pi_ramified_stabilizes_and_has_known_modulus():
    # |Gamma_p(pi_alpha)| = p^{k0 (Re alpha - 1/2)}
    for chr_, alpha in (
        (quadratic_character(P3), 1),
        (quadratic_character(P5), 1.5),
        (cubic_mod9(), 0.7 + 0.4j),
    ):
        k0 = chr_.k0
        g = gamma_pi(alpha, chr_, 0).value
        want = chr_.prime.p ** (k0 * (complex(alpha).real - 0.5))
        assert abs(abs(g) - want) < 1e-10 * want
    # quadratic mod 3 at alpha = 1: the classical Gauss sum i*sqrt(3)
    g = gamma_pi(1, quadratic_character(P3), 0).value
    assert g == pytest.approx(1j * math.sqrt(3))


def test_gamma_pi_ramified_jets_match_finite_differences():
    quad = quadratic_character(P3)
    jet_fd_check(
        lambda a, m: gamma_pi(a, quad, m), 3, 1.0, 3, h=1e-6, tol=1e-5
    )
    jet_fd_check(lambda a, m: gamma_pi(a, cubic_mod9(), m), 3, 1.5, 2)
    # only one shell survives, so theta Gamma = k0 Gamma exactly
    for chr_ in (quad, cubic_mod9()):
        jet = gamma_pi(0.8 - 0.3j, chr_, 1)
        want = chr_.k0 * jet.coeffs[0]
        assert abs(jet.coeffs[1] - want) < 1e-12 * (1 + abs(want))


def shell_sum(chr_, alpha, order, shells):
    """The improper integral summed shell by shell over the integrals G_gamma
    of pi_1(x) chi_p(x) on S_gamma, gamma -> G_gamma, with the term-wise
    theta-derivatives gamma^k p^{gamma(alpha-1)} G_gamma."""
    p = chr_.prime.p
    total = Jet.constant(0, order)
    for gamma, g in shells.items():
        term = p_power_jet(p, gamma, alpha, order).scale(g * float(Fr(p) ** (-gamma)))
        total = total + term
    return total


def test_gamma_pi_is_its_one_resonant_shell():
    # every shell but |x|_p = p^{k0} is an exact zero, so the shell sum over
    # |gamma| <= k0 + 4 and the one-shell jet agree to the last bit; and the
    # pointwise shells, which read no Gauss sum, agree to rounding
    chars = [quadratic_character(P) for P in (P3, P5, P7)] + [cubic_mod9()]
    for chr_ in chars:
        k0 = chr_.k0
        exact = {g: gauss_sum(chr_, 1) if g == k0 else 0j for g in range(-k0 - 4, k0 + 5)}
        brute = {g: brute_sphere_integral(chr_, g, 1, depth=1) for g in range(-k0 - 1, k0 + 2)}
        for alpha in (1, 1.5, 0.7 + 0.4j, -1.3 - 0.2j):
            for order in range(4):
                jet = gamma_pi(alpha, chr_, order)
                assert jet == shell_sum(chr_, alpha, order, exact), (chr_, alpha)
                want = shell_sum(chr_, alpha, order, brute)
                for got, w in zip(jet.coeffs, want.coeffs):
                    assert abs(got - w) < 1e-12 * (1 + abs(w)), (chr_, alpha, order)


def test_gamma_pi_evaluates_no_zero_shell():
    # a shell sum down to |x|_p = 3^-5 meets 3^(5 * 400), beyond the floating
    # range, on a shell whose Gauss sum is an exact zero
    quad = quadratic_character(P3)
    g = gamma_pi(-400, quad, 2)
    want = 3 ** -400.5  # |Gamma_p(pi_alpha)| = p^{k0 (Re alpha - 1/2)}
    assert abs(abs(g.value) - want) < 1e-10 * want
    assert g.coeffs[2] == pytest.approx(g.value, rel=1e-12, abs=0)  # k0^2 = 1


def test_the_ball_tail_divides_once_per_call(monkeypatch):
    # a 1024-sphere sweep at m = 64 reads J0's ball tail once per sphere:
    # one jet division per call of ball_tail (and one in Gamma_p), not one
    # order-64 division per sphere
    calls = []
    divide = Jet.__truediv__

    def counting(self, other):
        calls.append(self.order)
        return divide(self, other)

    monkeypatch.setattr(Jet, "__truediv__", counting)
    f = PiAlphaLog(1.5, trivial_character(P3), 64)
    rep = verify_stabilization(f, delta_indicator(P3, 0), 1, 1024, units_per_sphere=1)
    assert len(rep.rows) == 1024 and rep.ok
    assert calls == [64, 64]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fr(-1, 2)
    assert bernoulli(2) == Fr(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fr(-1, 30)
    assert bernoulli(6) == Fr(1, 42)
    for j in range(2, 11):
        assert bernoulli(2 * j - 1) == 0
    with pytest.raises(ValueError, match="negative Bernoulli index -1"):
        bernoulli(-1)


def test_bernoulli_recurrence_exact_to_b20():
    # the binomial recurrence pins B_1..B_20 (it starts biting at g = 2)
    for g in range(2, 22):
        assert sum(comb(g, r) * bernoulli(r) for r in range(g)) == 0


def test_faulhaber_examples():
    assert faulhaber_sum(1, 3) == 6
    assert faulhaber_sum(0, 7) == 7
    assert faulhaber_sum(1, -3) == 3
    assert sum(g for g in range(-2, 1)) == -faulhaber_sum(1, -3)
    # the integers over one denominator: S_2(n) = (n + 3 n^2 + 2 n^3) / 6
    assert faulhaber_coeffs(2) == ((0, 1, 3, 2), 6)
    assert faulhaber_coeffs(0) == ((0, 1), 1)
    with pytest.raises(ValueError, match="negative power-sum exponent -1"):
        faulhaber_coeffs(-1)


def test_faulhaber_matches_brute_force():
    for s in range(9):
        for g0 in range(-12, 13):
            if g0 >= 1:
                want = sum(Fr(g) ** s for g in range(1, g0 + 1))
            else:
                want = -sum(Fr(g) ** s for g in range(g0 + 1, 1))
            assert faulhaber_sum(s, g0) == want, (s, g0)
