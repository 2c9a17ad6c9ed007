"""Quasi associated homogeneous distributions and their regularized pairings.

Three canonical variants exhaust the QAHDs up to lower-order terms:

* ``PiAlphaLog(alpha, pi1, m)``: |x|^{alpha-1} pi_1(x) log_p^m |x|_p,
  for pi_alpha != pi_0 (i.e. not alpha in 2 pi i Z / ln p with trivial
  pi_1), paired via the regularization that subtracts phi(0) over the unit
  ball and adds phi(0) * I_0(alpha; m);
* ``PLog(m)``: P(log_p^{m-1}|x|_p / |x|_p), m >= 1, the degree-pi_0
  family, whose regularization is pinned at the unit ball with no extra
  constant term;
* ``DiracDelta``: the homogeneous distribution of degree pi_0.

One core evaluates both the pairing <f, phi> and the singular integral
J(t) = <f(x) chi_p(xt), phi(x)>: <f, phi> is J with chi_p == 1 (``apply``).
Split at a level l0 in [l, N] (phi in D^l_N),

    J(t) = F[h](t) + phi(0) * J0(l0, t),
    h = f (phi - phi(0) 1_{B_{l0}}) on |x|_p > p^l, and 0 on B_l.

h is a test function in D^lam_N with lam = l + 1 - max(k0, 1) (pi_1 of
rank k0 is constant on cosets of B_{gamma-k0} inside S_gamma), so F[h] is
one ``testfn.fourier`` table, read at every t of a batch, and it vanishes
for |t|_p > p^-lam: beyond that J(t) = phi(0) J0(t), the cause of the
stabilization theorem.  <f, phi> is F[h](0) = p^lam * sum(h) plus
phi(0) J0(l0, None).  J0 (``j0_closed_form``) is the continued integral of
f chi_p over B_{l0}:

* |x|^{alpha-1} pi_1(x) log^m, any pi_1: the ball tail plus the one
  resonant sphere.  With |t|_p = p^M, k = max(k0, 1), gamma = k - M,
  J0 = [k0 = 0] tail(min(l0, -M)) + [gamma <= l0] gamma^m p^(alpha gamma - k) I_k,
  tail(g) the continued integral over B_g (chi_p == 1 there; a ramified
  pi_1 integrates to 0) and I_k the integral of pi_1 chi_p(. u) over S_k at
  the unit part u of t (-1 for trivial pi_1, else a Gauss sum); every
  other sphere is an exact zero, and chi_p == 1 leaves tail(l0).  Gamma_p,
  the right-hand side's constant, does not enter;
* P(log^{m-1}/|x|): -(1/p)(1-M)^{m-1} - (1-1/p)(S_{m-1}(l0) - S_{m-1}(-M))
  for |t|_p = p^M > p^{-l0}, else 0 (exact rationals via Bernoulli /
  power-sum polynomials), plus the pinning correction
  (1-1/p) S_{m-1}(l0): the PLog regularization subtracts phi(0) over B_0,
  not B_{l0}, and the exact difference is the integral of the density
  over the annulus between the two balls (it vanishes at l0 = 0 and makes
  J independent of the split level).

A batch splits each t once, t = u p^-M with |t|_p = p^M (``qp.split``);
F[h] is read off its table at a word of u, and J0 is keyed by
(|t|_p, u mod p^k0).  J does not depend on l0; a level outside [l, N] is
evaluated at the nearest end, so the table never exceeds
p^(N-l+max(k0,1)-1) entries.

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
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import qp
from .characters import (
    NormedMultChar,
    eval_pi1,
    sphere_char_chi_integral,
    trivial_character,
)
from .errors import BadWindow, NumericOverflow, ZeroArgument
from .gamma import ball_norm_power_jet, faulhaber_sum, logp_scaled
from .jets import p_power_jet
from .qp import Prime, Rational
from .testfn import TestFunction, dilate, fourier


@dataclass(frozen=True)
class PiAlphaLog:
    """pi_alpha(x) log_p^m |x|_p with pi_alpha != pi_0."""

    alpha: complex
    pi1: NormedMultChar
    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"negative order m = {self.m}")
        alpha = complex(self.alpha)
        if self.pi1.is_trivial() and cmath.isfinite(alpha):
            # |x|^alpha is periodic in alpha: 2 pi i j / ln p to float
            # precision is pi_0 (near it is a PoleProximity when evaluated)
            off = math.remainder(alpha.imag, 2 * math.pi / math.log(self.pi1.prime.p))
            if math.hypot(alpha.real, off) <= 8 * math.ulp(alpha.imag - off):
                raise ValueError(
                    f"alpha = {self.alpha} with trivial pi_1 is the degree pi_0 = "
                    "|x|^-1 case (alpha in 2 pi i Z / ln p); use PLog or DiracDelta"
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
    """The radial factor of f on S_gamma (|x|_p = p^gamma); NumericOverflow
    when it is not a finite float."""
    p = prime.p
    try:
        if isinstance(f, PiAlphaLog):
            value = cmath.exp((f.alpha - 1) * gamma * math.log(p)) * gamma**f.m
        elif isinstance(f, PLog):
            value = qp.p_power(p, -gamma) * gamma ** (f.m - 1)
        else:
            raise TypeError(f"no sphere density for {f!r}")
    except (OverflowError, NumericOverflow):
        value = cmath.inf
    if not cmath.isfinite(value):
        what = (
            f"{p}^((alpha-1)*gamma) with alpha = {f.alpha}"
            if isinstance(f, PiAlphaLog)
            else f"{p}^-gamma gamma^(m-1) with m = {f.m}"
        )
        raise NumericOverflow(f"{what}, gamma = {gamma} is not a finite float")
    return value


def char_of(f: QahDistribution, prime: Prime) -> NormedMultChar:
    if isinstance(f, PiAlphaLog):
        if f.pi1.prime != prime:
            raise BadWindow(f"pi_1 is over p = {f.pi1.prime.p}, phi over p = {prime.p}")
        return f.pi1
    return trivial_character(prime)


def j0_closed_form(
    f: QahDistribution, l0: int, t: Rational | None, prime: Prime
) -> complex:
    """The continued integral of f(x) chi_p(xt) over B_{l0} (for the PLog
    family: of the chi_p(xt) - 1 variant, plus the pinning correction), in
    closed form.  t = None means chi_p == 1; at l0 = 0 that is I_0."""
    k = max(f.pi1.k0, 1) if isinstance(f, PiAlphaLog) else 0
    if t is not None:
        if t == 0:
            raise ZeroArgument("j0_closed_form requires t != 0")
        m_exp, u = qp.split(t, prime, k)  # |t|_p = p^m_exp, unit part u
    near = t is None or m_exp <= -l0  # chi_p == 1 on all of B_{l0}
    p = prime.p

    if isinstance(f, PLog):
        s = f.m - 1
        value = 0
        if not near:
            value = -Fraction(1, p) * (1 - m_exp) ** s - (1 - Fraction(1, p)) * (
                faulhaber_sum(s, l0) - faulhaber_sum(s, -m_exp)
            )
        pinning = (1 - Fraction(1, p)) * faulhaber_sum(s, l0) if l0 else 0
        return complex(value) + complex(pinning)

    if not isinstance(f, PiAlphaLog):
        raise TypeError(f"no J0 closed form for {f!r}")

    # the ball tail B_min(l0, -M), where chi_p == 1 and a ramified pi_1
    # integrates to zero (ball_norm_power_jet checks the pole)
    value = 0j
    if f.pi1.is_trivial():
        jet = ball_norm_power_jet(prime, l0 if near else -m_exp, f.alpha, f.m)
        value = logp_scaled(jet, p).coeffs[f.m]
    # plus the one resonant sphere |xt|_p = p^k if it lies in B_l0; every
    # other sphere is an exact zero.  x = y p^M makes it one guarded power
    # p^(alpha gamma - k), which a deep t underflows where p^((alpha-1) gamma)
    # alone would overflow; the sphere integral reads t's unit part mod p^k
    if not near and k - m_exp <= l0:
        gamma = k - m_exp
        power = p_power_jet(p, gamma, f.alpha, 0).value * qp.p_power(p, -k)
        value += gamma**f.m * power * sphere_char_chi_integral(f.pi1, k, u)
    return value


def _annulus_product(
    f: QahDistribution, phi: TestFunction, chr_: NormedMultChar, l0: int
) -> TestFunction:
    """h = f (phi - phi(0) 1_{B_l0}) outside B_l and 0 on B_l, as a member
    of D^lam_N, lam = l + 1 - max(k0, 1); l <= l0 <= N."""
    prime = phi.prime
    p, N, l = prime.p, phi.N, phi.l
    k = max(chr_.k0, 1)
    # word w of B_N / B_lam is x = w p^-N; phi reads it modulo p^(N-l), so
    # subtracting phi(0) on B_l0 leaves exact zeros on B_l
    out = np.tile(phi.values, p ** (k - 1))
    out[:: p ** (N - l0)] -= phi.values[0]
    # the view out[::p^v] holds the words p^v w'; those with w' a unit lie
    # on S_{N-v}.  In rows of p^k of them, w' mod p^k is the position in
    # the row: a nonzero last digit selects S_{N-v}, and pi_1(x) is the
    # character table at w' mod p^k0
    pi1 = np.resize(chr_.complex_table(), p**k).reshape(-1, p)[:, 1:]
    for v in range(N - l):
        sphere = out[:: p**v].reshape(-1, p ** (k - 1), p)[..., 1:]
        sphere *= density_on_sphere(f, prime, N - v) * pi1
    return TestFunction(prime, N, l + 1 - k, out)


def _pairing(
    f: QahDistribution, phi: TestFunction, ts: Sequence[Rational] | None, l0: int
) -> list[complex]:
    """<f(x) chi_p(xt), phi(x)> split at l0 (clamped into [l, N]), one value
    per t of ``ts``, or the one value <f, phi> when ts is None."""
    if isinstance(f, DiracDelta):
        return [phi.at(0)] * (1 if ts is None else len(ts))
    prime = phi.prime
    p = prime.p
    chr_ = char_of(f, prime)
    l0 = min(max(l0, phi.l), phi.N)
    lam = phi.l + 1 - max(chr_.k0, 1)
    if ts is None:
        s = _annulus_product(f, phi, chr_, l0).values.sum() * qp.p_power(p, lam)
        return [complex(s) + phi.at_zero * j0_closed_form(f, l0, None, prime)]
    # t = u p^-M: F[h] lies in D^-lam_-N, so it is the table's word
    # u p^(-lam-M) mod p^(N-lam) for M <= -lam and 0 past that; J0 reads only
    # M and u mod p^k0 (k0 can exceed N - lam on a delta's window)
    grid = [qp.split(t, prime, max(phi.N - lam, chr_.k0)) for t in ts]
    split = [0j] * len(ts)
    if any(M <= -lam for M, _ in grid):
        table = fourier(_annulus_product(f, phi, chr_, l0)).values
        mod = p ** (phi.N - lam)
        for i, (M, u) in enumerate(grid):
            if M <= -lam:
                split[i] = table[u * pow(p, -lam - M, mod) % mod]
    j0 = {}
    values = []
    for s, t, (M, u) in zip(split, ts, grid):
        key = (M, u % p**chr_.k0)
        if key not in j0:
            j0[key] = j0_closed_form(f, l0, t, prime)
        values.append(complex(s) + phi.at_zero * j0[key])
    return values


def apply(f: QahDistribution, phi: TestFunction) -> complex:
    """The regularized pairing <f, phi>, as an exact finite sum."""
    return _pairing(f, phi, None, 0)[0]


def homogeneity_defect(
    f: QahDistribution, phi: TestFunction, t: Rational
) -> complex:
    """<f, phi(x/t)> minus the graded scaling law's right-hand side;
    zero (up to rounding) for a lawful QAHD with the derived companions."""
    if t == 0:
        raise ZeroArgument("scaling by t = 0")
    prime = phi.prime
    p = prime.p
    logt = -qp.valuation(t, prime)  # log_p |t|_p
    lhs = apply(f, dilate(phi, t))
    if isinstance(f, DiracDelta):
        return lhs - phi.at(0)  # pi_0(t)|t|_p = 1
    if isinstance(f, PiAlphaLog):
        scale = p_power_jet(p, logt, f.alpha, 0).value  # |t|_p^alpha
        scale *= eval_pi1(f.pi1, t).to_complex()
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
