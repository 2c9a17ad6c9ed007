"""p-adic Gamma functions, regularization constants, and exact power sums.

Closed forms implemented here:

* Gamma_p(alpha) = (1 - p^{alpha-1}) / (1 - p^{-alpha}), with
  theta-derivatives (theta = log_p(e) d/dalpha) to any order via jet
  arithmetic;
* Gamma_p(pi_alpha) for a ramified pi_1 of rank k0, the improper
  integral sum_gamma p^{gamma(alpha-1)} G_gamma where G_gamma is the exact
  Haar integral of pi_1 * chi_p over the sphere S_gamma.  Every G_gamma
  but G_{k0} is an exact zero, so the integral is its one resonant shell
  p^{k0(alpha-1)} G_{k0}, a finite Gauss sum, and no shell is summed;
* the ball tail (``ball_tail``): theta^m of the continued ball integral
  (1-1/p) p^{lam alpha} / (1-p^{-alpha}) of |x|^{alpha-1} over B_lam
  (I_0(alpha; m) at lam = 0).  It is the trivial-pi_1 tail of both
  ``j0_closed_form`` and the brute-force oracle, and the only part of
  this module the left side reads; Gamma_p and Gamma_p(pi_alpha) serve
  the right-hand side (``gamma_pi``) and ``padic-fourier gamma``;
* Bernoulli numbers from the binomial recurrence, and the power-sum
  polynomial S_s(n) = 1^s + ... + n^s, kept as integer coefficients over
  one denominator and evaluated as a polynomial at any integer (for
  n <= -1 it gives -sum_{n+1 <= g <= 0} g^s).

Poles of the continued forms sit at alpha = 2 pi i j / ln p; inputs within
``POLE_TOLERANCE`` of one are a hard error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .characters import NormedMultChar, gauss_sum
from .errors import PoleProximity
from .jets import Jet, p_power_jet
from .qp import Prime, p_power

#: hard-error radius around the poles of 1/(1 - p^{-alpha})
POLE_TOLERANCE = 1e-12


def _denominator(prime: Prime, alpha: complex, order: int) -> Jet:
    """Theta-jet of 1 - p^{-alpha}; PoleProximity within POLE_TOLERANCE of 0."""
    den = Jet.constant(1, order) - p_power_jet(prime.p, -1, alpha, order)
    if abs(den.value) <= POLE_TOLERANCE:
        raise PoleProximity(
            f"alpha = {alpha} is within {POLE_TOLERANCE} of a pole "
            f"2*pi*i*j/ln({prime.p}) (|1 - p^-alpha| = {abs(den.value):.3e})"
        )
    return den


def gamma_p(prime: Prime, alpha: complex, order: int = 0) -> Jet:
    """Theta-jet of Gamma_p(alpha) = (1 - p^{alpha-1}) / (1 - p^{-alpha})."""
    den = _denominator(prime, alpha, order)
    num = Jet.constant(1, order) - p_power_jet(prime.p, 1, alpha, order, -1)
    return num / den


def ball_tail(prime: Prime, alpha: complex, m: int):
    """lam |-> theta^m of the continued integral over B_lam of
    |x|^{alpha-1} dx, (1 - 1/p) p^{lam*alpha} / (1 - p^{-alpha}): the pole
    check and the one jet division are done once for every lam, which
    takes the Leibniz product of the jet of p^{lam*alpha} with it."""
    p = prime.p
    # (p - 1) / p is float(1 - Fraction(1, p)): both round the same rational
    q = (Jet.constant((p - 1) / p, m) / _denominator(prime, alpha, m)).coeffs
    weights = [comb(m, j) * q[m - j] for j in range(m + 1)]
    # summed from -0j, which adds to any z as z does, signed zeros too
    return lambda lam: sum(map(mul, p_power_jet(p, lam, alpha, m).coeffs, weights), -0j)


def gamma_pi(alpha: complex, pi1: NormedMultChar, order: int = 0) -> Jet:
    """Theta-jet of Gamma_p(pi_alpha) = F[pi_alpha](1), pi_alpha(x) =
    |x|_p^{alpha-1} pi_1(x).

    Trivial pi_1 delegates to the closed form :func:`gamma_p`.  Ramified
    pi_1 of rank k0 is the resonant shell |x|_p = p^{k0} alone:
    p^{k0(alpha-1)} G_{k0}, with theta-derivatives k0^k times it.
    """
    prime = pi1.prime
    if pi1.is_trivial():
        return gamma_p(prime, alpha, order)
    k0 = pi1.k0
    shell = gauss_sum(pi1, 1) * p_power(prime.p, -k0)
    return p_power_jet(prime.p, k0, alpha, order).scale(shell)


# ---------------------------------------------------------------------------
# Bernoulli numbers and Faulhaber power-sum polynomials


@lru_cache(maxsize=None)
def bernoulli(r: int) -> Fraction:
    """Bernoulli number B_r (convention B_1 = -1/2), by the recurrence
    B_0 = 1, sum_{j=0}^{g-1} C(g, j) B_j = 0."""
    if r < 0:
        raise ValueError(f"negative Bernoulli index {r}")
    if r == 0:
        return Fraction(1)
    g = r + 1
    acc = sum(comb(g, j) * bernoulli(j) for j in range(r))
    return -Fraction(acc, comb(g, r))


@lru_cache(maxsize=None)
def faulhaber_coeffs(s: int) -> tuple[tuple[int, ...], int]:
    """(c, den) with S_s(n) = sum_i c[i] n^i / den, where S_s(n) = 1^s + ...
    + n^s for n >= 1: the coefficients of S_s (by power, constant first) as
    integer numerators over their least common denominator; S_s has no
    constant term."""
    if s < 0:
        raise ValueError(f"negative power-sum exponent {s}")
    if s == 0:
        return (0, 1), 1
    coeffs = [Fraction(0)] * (s + 2)
    for r in range(s + 1):
        coeffs[s + 1 - r] += Fraction(comb(s + 1, r), s + 1) * bernoulli(r)
    coeffs[s] += 1  # B_1 = -1/2 convention needs the extra n^s term
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def faulhaber_sum(s: int, gamma0: int) -> Fraction:
    """S_s(gamma0), as a polynomial for any integer gamma0.

    For gamma0 >= 1 this is sum_{g=1}^{gamma0} g^s; for gamma0 <= -1 it
    equals -sum_{g=gamma0+1}^{0} g^s.
    """
    coeffs, den = faulhaber_coeffs(s)
    return Fraction(sum(c * gamma0**i for i, c in enumerate(coeffs)), den)
