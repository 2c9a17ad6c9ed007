"""Quasi associated homogeneous distributions and their regularized pairings.

Three canonical variants exhaust the QAHDs up to lower-order terms:

* ``PiAlphaLog(alpha, pi1, m)``: |x|^{alpha-1} pi_1(x) log_p^m |x|_p,
  for pi_alpha != pi_0 (i.e. not alpha = 0 with trivial pi_1), paired via
  the regularization that subtracts phi(0) over the unit ball and adds
  phi(0) * I_0(alpha; m);
* ``PLog(m)``: P(log_p^{m-1}|x|_p / |x|_p), m >= 1, the degree-pi_0
  family, whose regularization is pinned at the unit ball with no extra
  constant term;
* ``DiracDelta``: the homogeneous distribution of degree pi_0.

All pairings are finite exact sums: the subtracted interior integrand
vanishes on B_l, the exterior integrand vanishes outside B_N, and each
sphere is covered by cells on which the integrand is constant.

``homogeneity_defect`` checks the graded scaling law.  The lower-order
companion families are not printed in the source material; they are
derived here (by differentiating the order-0 scaling law in alpha, and by
direct substitution for the pi_0 family) and validated numerically:

* for PiAlphaLog of order m: f_{m-j} = C(m, j) * PiAlphaLog(alpha, pi1, m-j);
* for PLog(m):  f_{m-j} = C(m-1, j) * PLog(m-j) plus the delta component
  (1 - 1/p) sigma_j delta, where sigma_j is the coefficient of A^j in the
  power-sum polynomial S_{m-1}(A) (the delta terms aggregate to
  (1 - 1/p) S_{m-1}(log_p |t|_p) phi(0)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import qp
from .characters import NormedMultChar, eval_pi1, trivial_character
from .errors import BadWindow, ZeroArgument
from .gamma import check_pole, faulhaber_sum, i0
from .qp import Prime, Rational
from .sums import sphere_cell_sum
from .testfn import TestFunction, dilate


@dataclass(frozen=True)
class PiAlphaLog:
    """pi_alpha(x) log_p^m |x|_p with pi_alpha != pi_0."""

    alpha: complex
    pi1: NormedMultChar
    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"negative order m = {self.m}")
        if self.alpha == 0 and self.pi1.is_trivial():
            raise ValueError(
                "alpha = 0 with trivial pi_1 is the degree pi_0 = |x|^-1 case; "
                "use PLog or DiracDelta"
            )


@dataclass(frozen=True)
class PLog:
    """P(log_p^{m-1}|x|_p / |x|_p), m >= 1; PLog(1) is P(1/|x|_p)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"PLog order must be >= 1, got {self.m}")


@dataclass(frozen=True)
class DiracDelta:
    """The delta distribution, homogeneous of degree pi_0."""


QahDistribution = PiAlphaLog | PLog | DiracDelta


def density_on_sphere(f: QahDistribution, prime: Prime, gamma: int) -> complex:
    """The radial factor of f on S_gamma (|x|_p = p^gamma)."""
    if isinstance(f, PiAlphaLog):
        return cmath.exp((f.alpha - 1) * gamma * math.log(prime.p)) * gamma**f.m
    if isinstance(f, PLog):
        return float(Fraction(prime.p) ** (-gamma)) * gamma ** (f.m - 1)
    raise TypeError(f"no sphere density for {f!r}")


def char_of(f: QahDistribution, prime: Prime) -> NormedMultChar:
    if isinstance(f, PiAlphaLog):
        if f.pi1.prime != prime:
            raise BadWindow(f"pi_1 is over p = {f.pi1.prime.p}, phi over p = {prime.p}")
        return f.pi1
    return trivial_character(prime)


def apply(f: QahDistribution, phi: TestFunction) -> complex:
    """The regularized pairing <f, phi>, as an exact finite sum."""
    prime = phi.prime
    if isinstance(f, DiracDelta):
        return phi.at(0)
    chr_ = char_of(f, prime)
    if isinstance(f, PiAlphaLog) and f.pi1.is_trivial():
        check_pole(prime, f.alpha)
    interior = sum(
        density_on_sphere(f, prime, g)
        * sphere_cell_sum(phi, chr_, g, None, subtract_phi0=True)[0]
        for g in range(phi.l + 1, 1)
    )
    exterior = sum(
        density_on_sphere(f, prime, g) * sphere_cell_sum(phi, chr_, g, None)[0]
        for g in range(1, phi.N + 1)
    )
    if isinstance(f, PiAlphaLog):
        constant = phi.at_zero * i0(prime, f.pi1, f.alpha, f.m).coeffs[f.m]
    else:
        constant = 0j
    return complex(interior + exterior + constant)


def homogeneity_defect(
    f: QahDistribution, phi: TestFunction, t: Rational
) -> complex:
    """<f, phi(x/t)> minus the graded scaling law's right-hand side;
    zero (up to rounding) for a lawful QAHD with the derived companions."""
    t = Fraction(t)
    if t == 0:
        raise ZeroArgument("scaling by t = 0")
    prime = phi.prime
    p = prime.p
    logt = -qp.valuation(t, prime)  # log_p |t|_p
    lhs = apply(f, dilate(phi, t))
    if isinstance(f, DiracDelta):
        return lhs - phi.at(0)  # pi_0(t)|t|_p = 1
    if isinstance(f, PiAlphaLog):
        scale = cmath.exp(f.alpha * logt * math.log(p)) * eval_pi1(
            f.pi1, t
        ).to_complex()
        rhs = scale * apply(f, phi)
        for j in range(1, f.m + 1):
            companion = PiAlphaLog(f.alpha, f.pi1, f.m - j)
            rhs += scale * logt**j * comb(f.m, j) * apply(companion, phi)
        return lhs - rhs
    # PLog(m): degree pi_0, so pi_0(t)|t|_p = 1
    rhs = apply(f, phi)
    for j in range(1, f.m):
        rhs += comb(f.m - 1, j) * logt**j * apply(PLog(f.m - j), phi)
    rhs += phi.at_zero * float(
        (1 - Fraction(1, p)) * faulhaber_sum(f.m - 1, logt)
    )
    return lhs - rhs
