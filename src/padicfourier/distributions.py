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
The split J(t) = F[h](t) + phi(0) J0(l0, t), h = f (phi - phi(0) 1_{B_l0})
off B_l, holds at any level l0; J and <f, phi> both split at phi's l
(phi in D^l_N), where 1_{B_l} is 0 off B_l:

    J(t) = F[h](t) + phi(0) * J0(l, t),
    h = f phi off B_l, and 0 on B_l.

h is a test function in D^lam_N with lam = l + 1 - max(k0, 1) (pi_1 of
rank k0 is constant on cosets of B_{gamma-k0} inside S_gamma), so F[h] is
one table of ``testfn.fourier``, read by ``testfn.fourier_at`` at the
words of the batch's t, and it vanishes for |t|_p > p^-lam: beyond that
J(t) = phi(0) J0(t), the cause of the stabilization theorem.  h is phi
times the density and pi_1 of each word's sphere (``_AnnulusProduct``),
held in one layout: rows of phi's own table times a factor per column,
save a few exception columns.  The partial transform reads that layout
as it stands, and the whole FFT and ``apply`` lay h's table out from it.
At N = l no sphere lies outside B_l: h and F[h] are 0.  F[h] carries the
cell measure p^lam in each sphere's factor, never as a float.  <f, phi>
is F[h](0) plus phi(0) J0 at |t|_p = p^-l, where chi_p == 1 on B_l.  J0
(``j0_closed_form``) is the continued integral of f chi_p over B_{l0},
at the core's l0 = l:

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
  over the annulus between the two balls (it vanishes at l0 = 0).  For
  |t|_p > p^-l0 the two S_{m-1}(l0) cancel, so J0 is the one quotient
  -(1/p)(1-M)^{m-1} + (1-1/p) S_{m-1}(-M), rounded once.

A point comes split once, t = u p^-M with |t|_p = p^M, as a request holds
it; F[h] is read off its table at a word of u, and one ``j0_closed_form``
call takes the batch's points as they stand: it computes J0's radial part
once per norm sphere M, its sphere integral (one Gauss sum) once per
residue u mod p^k0, and the work that depends on neither (the pole check,
the 1 - p^-alpha jet, the PLog S_{m-1}(l0)) once, in ints and floats.
h's table has p^(N-l+max(k0,1)-1) entries.

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
from .characters import NormedMultChar, eval_pi1, gauss_sum, trivial_character
from .errors import BadWindow, NumericOverflow, ZeroArgument
from .gamma import ball_tail, faulhaber_coeffs, faulhaber_sum
from .jets import p_power_term
from .qp import Prime, Rational
from .testfn import TestFunction, _set_up, dilate, fourier_at


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


def density_on_sphere(f: QahDistribution, prime: Prime, gamma: int, lam: int = 0) -> complex:
    """f's radial factor on S_gamma times p^lam (a cell's measure; at lam =
    gamma, f's mass on S_gamma): gamma^m p^(c gamma + lam), c = alpha - 1
    (for PLog c = -1 and m - 1 for m), entry m of the jet of p^(gamma c +
    lam) (``p_power_term``); NumericOverflow naming f, S_gamma and p^lam."""
    try:
        if isinstance(f, PiAlphaLog):
            return p_power_term(prime.p, gamma, f.alpha - 1, f.m, lam)
        if isinstance(f, PLog):  # a real, integer power: p^(lam - gamma) rounded once
            return p_power_term(prime.p, gamma, 0, f.m - 1, lam - gamma).real
    except NumericOverflow:
        what = f"the density of {f!r} on S_{gamma}, times {prime.p}^{lam},"
        raise NumericOverflow(f"{what} is not a finite float") from None
    raise TypeError(f"no sphere density for {f!r}")


def char_of(f: QahDistribution, prime: Prime) -> NormedMultChar:
    if isinstance(f, PiAlphaLog):
        if f.pi1.prime != prime:
            raise BadWindow(f"pi_1 is over p = {f.pi1.prime.p}, phi over p = {prime.p}")
        return f.pi1
    return trivial_character(prime)


def j0_closed_form(
    f: QahDistribution, l0: int, points: list[tuple[int, int]], prime: Prime
) -> list[complex]:
    """The continued integral of f(x) chi_p(xt) over the ball B_{l0} (for
    the PLog family: of the chi_p(xt) - 1 variant, plus the pinning
    correction), in closed form, at every point (M, u) with t = u p^-M, as
    a request holds them (u known modulo p^k0 at least): one J0 per point,
    with its radial part computed once per norm sphere M and its sphere
    integral once per residue u mod p^k0, and the pole check, the
    1 - p^-alpha jet and the PLog S_{m-1}(l0) once for all of them;
    NumericOverflow when a J0 is not a finite float.  The pairing core
    takes l0 = phi's l: h = f phi off B_l, and J and <f, phi> both split
    there.  The point (-l0, 1) gives chi_p == 1 on B_l0; at l0 = 0 that
    is I_0."""
    p = prime.p
    if isinstance(f, PLog):
        # exact rationals over one denominator p * den, S_{m-1} = S / den;
        # an int quotient rounds as float(Fraction) does
        s = f.m - 1
        ints, den = faulhaber_coeffs(s)

        def S(n):
            return sum(c * n**i for i, c in enumerate(ints))

        pinning = complex((p - 1) * S(l0) / (p * den))
        mod = 1

        def radial(M):
            if M <= -l0:  # chi_p == 1 on all of B_l0
                return pinning, None
            # the pinning's S_{m-1}(l0) cancels exactly: one quotient, not
            # a difference of two roundings of size S_{m-1}(l0)
            return complex((-((1 - M) ** s) * den + (p - 1) * S(-M)) / (p * den)), None

    elif isinstance(f, PiAlphaLog):
        # the ball tail B_min(l0, -M), where chi_p == 1 and a ramified pi_1
        # integrates to zero (ball_tail checks the pole)
        chr_, alpha, m = f.pi1, f.alpha, f.m
        k0, k = chr_.k0, max(chr_.k0, 1)
        mod = p**k0
        tail = ball_tail(prime, alpha, m) if chr_.is_trivial() else lambda g: 0j

        def radial(M):
            # plus the one resonant sphere |xt|_p = p^k if it lies in B_l0
            # (then M > -l0); every other sphere is an exact zero.  x = y p^M
            # makes it one power gamma^m p^(alpha gamma - k), which a deep t
            # underflows where p^((alpha-1) gamma) alone would overflow, times
            # the sphere integral at u mod p^k0
            value, gamma = tail(min(l0, -M)), k - M
            if gamma > l0:
                return value, None
            return value, p_power_term(p, gamma, alpha, m, -k)

        def sphere(w):
            # the integral over S_k of pi_1(y) chi_p(yu): -1 for trivial
            # pi_1, else a Gauss sum
            if chr_.is_trivial():
                return -1 + 0j
            return gauss_sum(chr_, w)

    else:
        raise TypeError(f"no J0 closed form for {f!r}")

    radii, spheres, values = {}, {}, []
    for M, u in points:
        if M not in radii:
            radii[M] = radial(M)
        value, term = radii[M]
        if term is not None:
            w = u % mod
            if w not in spheres:
                spheres[w] = sphere(w)
            value += term * spheres[w]
        values.append(value)
    return qp.check_finite(values, "J0")


class _AnnulusProduct:
    """h = f phi outside B_l and 0 on B_l (the split at phi's l, where J and
    <f, phi> both split), as a member of D^lam_N, lam = l + 1 - max(k0, 1).
    It is held as phi's own p^(N-l) words and the factor p^lam h / phi on
    each sphere: each density carries the cell measure, and ``measure`` is
    1, so no transform or sum forms p^lam as a float.  ``columns`` is h's
    one layout, read by ``fourier_at``'s partial transform; ``values`` lays
    p^lam h's table out from it (the FFT route and ``apply``)."""

    measure = 1.0

    def __init__(self, f: QahDistribution, phi: TestFunction, chr_: NormedMultChar):
        prime = phi.prime
        p, N, l = prime.p, phi.N, phi.l
        self.prime, self.N, self.k = prime, N, max(chr_.k0, 1)
        self.l = l + 1 - self.k
        # word w of B_N / B_lam is x = w p^-N; h reads phi at w mod p^(N-l)
        qp.check_word_count(p, N - self.l)
        self.phi_values = phi.values
        # the word p^v w', w' a unit, lies on S_(N-v) and pi_1(x) is the
        # table at w' mod p^k0: p^lam h / phi is factors[v, w' mod p^k], the
        # density times p^lam pi_1 on the spheres v < N - l, and 0 on B_l
        density = [density_on_sphere(f, prime, N - v, self.l) for v in range(N - l)]
        self.factors = np.zeros((N - self.l + 1, p**self.k), dtype=np.complex128)
        self.factors[: N - l] = np.multiply.outer(density, chr_.complex_table())

    @property
    def values(self) -> np.ndarray:
        """p^lam h's p^(N-lam) words, laid out from ``columns`` at each read:
        phi's rows times the column factors, tiled to h's rows, with the
        exception columns written in."""
        rows, scale, cols, extra = self.columns((self.N - self.l) // 2)
        out = np.tile(rows * scale, (len(extra) // len(rows), 1))
        out[:, cols] = extra
        return out.ravel()

    def columns(self, s: int):
        """p^lam h in ``fourier_at``'s layout, w = a p^s + b: rows of phi
        (h's row a reads phi's row a mod their count), the factor of each
        column b, and the exception columns with their words.  Off
        b = 0, h / phi depends on b alone, as v(w) = v(b) and pi_1 reads
        w p^-v(w) mod p^k0, except where v(b) + k0 > s: there pi_1 reads
        digits of a too.  So the exceptions are the multiples of p^e,
        e = s + 1 - max(k0, 1), and h / phi at p^e m is row e + v(m) at m's
        unit part, as at b = m it is row v(b)."""
        p, n, k = self.prime.p, self.N - self.l, self.k
        e = max(s + 1 - k, 0)
        v, unit = _set_up(_column_index, 2 * p ** (n - e), p, n, k, e)
        scale = self.factors[v[: p**s], unit[: p**s]]
        scale[:: p**e] = 0
        # h's word p^e m reads phi at p^e m mod p^(N-l): phi[::p^e] repeated
        phi = self.phi_values
        extra = phi[:: p**e] * self.factors[v + e, unit].reshape(p ** (k - 1), -1)
        rows = phi.reshape(-1, p**s) if len(phi) >= p**s else np.resize(phi, (1, p**s))
        return rows, scale, np.arange(0, p**s, p**e), extra.reshape(p ** (n - s), -1)


def _column_index(p: int, n: int, k: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    # v(m) and m p^-v(m) mod p^k for m < p^(n-e): h.columns' index arrays
    v = np.zeros(p ** (n - e), dtype=np.intp)
    for j in range(1, n - e + 1):
        v[:: p**j] += 1
    return v, np.arange(len(v)) // p**v % p**k


@np.errstate(over="ignore", invalid="ignore")
def _pairing(f: QahDistribution, phi: TestFunction, grid: Sequence | None) -> list[complex]:
    """<f(x) chi_p(xt), phi(x)> split at phi's l (h = f phi off B_l), one
    value per point (M, u) of ``grid`` (t = u p^-M), or <f, phi> when grid
    is None; NumericOverflow when a value is not a finite float.  Both are
    linear in phi: where the split leaves the float range on the way,
    phi 2^-e, e half the binary exponent of phi's largest component, is
    evaluated once more and its values multiplied by 2^e, which rounds
    nothing."""
    if isinstance(f, DiracDelta):
        return [phi.at(0)] * (1 if grid is None else len(grid))
    prime = phi.prime
    p = prime.p
    chr_ = char_of(f, prime)
    l = phi.l
    lam = l + 1 - max(chr_.k0, 1)
    what = "<f, phi>" if grid is None else "J(t)"

    def evaluate(phi):
        # N = l leaves no sphere outside B_l: h and F[h] are 0, and no
        # p^k-word row of pi_1 is built
        phi0, annulus = phi.at_zero, phi.N > l
        if grid is None:
            s = 0
            if annulus:
                s = _AnnulusProduct(f, phi, chr_).values.sum()
            values = [complex(s) + phi0 * j0_closed_form(f, l, [(-l, 1)], prime)[0]]
            return qp.check_finite(values, what)
        # F[h] lies in D^-lam_-N: at t = u p^-M, M <= -lam, it is the table's
        # word u p^(-lam-M) mod p^(N-lam) (one power per sphere, one int64
        # array of words, both factors below 2^24), else 0; J0 takes the grid
        # as it stands
        split = np.zeros(len(grid), dtype=np.complex128)
        inside = [i for i, (M, _) in enumerate(grid) if M <= -lam]
        if inside and annulus:
            mod = p ** (phi.N - lam)
            shift = {M: pow(p, -lam - M, mod) for M in {grid[i][0] for i in inside}}
            words = np.array([(grid[i][1] % mod, shift[grid[i][0]]) for i in inside], np.int64)
            h = _AnnulusProduct(f, phi, chr_)
            split[inside] = fourier_at(h, words.prod(axis=1) % mod)
        j0 = j0_closed_form(f, l, grid, prime)
        values = [s + phi0 * z for s, z in zip(split.tolist(), j0)]
        return qp.check_finite(values, what)

    try:
        return evaluate(phi)
    except NumericOverflow:
        v = phi.values
        e = math.frexp(np.maximum(abs(v.real), abs(v.imag)).max())[1] // 2
        if e <= 0:
            raise
        values = evaluate(TestFunction(prime, phi.N, phi.l, v * 2.0**-e))
        return qp.check_finite([z * 2.0**e for z in values], what)


def apply(f: QahDistribution, phi: TestFunction) -> complex:
    """The regularized pairing <f, phi>, as an exact finite sum."""
    return _pairing(f, phi, None)[0]


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
        scale = p_power_term(p, logt, f.alpha, 0)  # |t|_p^alpha
        scale *= eval_pi1(f.pi1, t)
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
