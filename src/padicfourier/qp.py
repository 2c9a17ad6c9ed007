"""Exact arithmetic on evaluation points of Q_p.

Points are plain ``fractions.Fraction`` values (no digit truncation, no
precision parameter): valuation, norm, fractional part and coset
membership are all exactly computable from a rational.  The norm
convention is |x|_p = p^(-v) for x = p^v * m/n with m, n coprime to p,
and |0|_p = 0.

Balls and spheres are centred at 0 unless stated otherwise:
B_gamma = {|x|_p <= p^gamma}, S_gamma = B_gamma \\ B_{gamma-1}, with Haar
measures p^gamma and p^gamma*(1 - 1/p).

Coset representatives are canonical digit expansions
x = sum_{i=-N}^{-l-1} d_i p^i, d_i in {0, ..., p-1}, ordered by the
integer value of the digit word (zero first), which makes every
enumeration deterministic and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BadWindow, NonPadicDenominator, NumericOverflow

#: Sentinel returned by :func:`valuation` at x = 0 (convention |0|_p = 0).
INFINITE_VALUATION = math.inf

Rational = Fraction | int


@dataclass(frozen=True)
class Prime:
    """A prime p, checked by trial division at construction."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"not a prime: {p!r}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"not a prime: {p} = {d} * {p // d}")
            d += 1


def _split_power(n: int, p: int) -> tuple[int, int]:
    # (v, n / p^v) with v the valuation of n != 0: strip one p, then recurse
    # on p^2, which halves what is left, so O(log v) divisions instead of v
    if n % p:
        return 0, n
    v, n = _split_power(n // p, p * p)
    if n % p:
        return 2 * v + 1, n
    return 2 * v + 2, n // p


def valuation(x: Rational, prime: Prime):
    """p-adic valuation of the exact rational x; +inf sentinel at x = 0."""
    if x == 0:
        return INFINITE_VALUATION
    return -split(x, prime, 0)[0]


def p_power(p: int, e: int) -> float:
    """p^e as a float: the correctly rounded float(Fraction(p) ** e),
    without the Fraction arithmetic; NumericOverflow past the float range."""
    try:
        return p**e / 1 if e >= 0 else 1 / p**-e
    except OverflowError:
        raise NumericOverflow(f"{p}^{e} is not a finite float") from None


def norm(x: Rational, prime: Prime) -> Fraction:
    """|x|_p = p^(-valuation), exactly; 0 for x = 0."""
    if x == 0:
        return Fraction(0)
    return Fraction(prime.p) ** split(x, prime, 0)[0]


def split(x: Rational, prime: Prime, k: int) -> tuple[int, int]:
    """(M, u mod p^k) for x = u p^-M with u a unit (x != 0), so that
    |x|_p = p^M."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    p = prime.p
    v, num = _split_power(x.numerator, p)
    den = x.denominator
    if not v:  # reduced fraction: at most one side holds powers of p
        v, den = _split_power(den, p)
        v = -v
    mod = p**k
    return -v, num * pow(den, -1, mod) % mod


def fractional_part(x: Rational, prime: Prime) -> Fraction:
    """The p-adic fractional part {x}_p, the sum of the negative-power
    digits of the expansion of x.

    Requires a p-power denominator; {x}_p = 0 iff |x|_p <= 1.
    """
    x = Fraction(x)
    den = x.denominator
    if den == 1:
        return Fraction(0)
    p = prime.p
    if _split_power(den, p)[1] != 1:
        raise NonPadicDenominator(
            f"denominator {den} of {x} is not a power of p = {p}"
        )
    return Fraction(x.numerator % den, den)


# both word caches are bounded: one entry can reach 2^24 words (128 MiB),
# and an oracle sweep touches a few dozen (p, n) keys
@lru_cache(maxsize=64)
def _coset_words(p: int, n: int) -> np.ndarray:
    # all digit words of length n, as integers 0 .. p^n - 1
    if p**n > 1 << 24:
        raise BadWindow(f"coset enumeration too large: {p}^{n} words")
    return np.arange(p**n, dtype=np.int64)


@lru_cache(maxsize=64)
def _sphere_words(p: int, n: int) -> np.ndarray:
    # words of length n with nonzero leading (lowest-power) digit
    w = _coset_words(p, n)
    return w[w % p != 0]


def enumerate_cosets(prime: Prime, N: int, l: int) -> list[Fraction]:
    """Canonical representatives of the p^(N-l) cosets of B_l inside B_N,
    zero first."""
    if l > N:
        raise BadWindow(f"constancy level l = {l} exceeds support level N = {N}")
    scale = Fraction(prime.p) ** (-N)
    return [int(w) * scale for w in _coset_words(prime.p, N - l)]


def enumerate_sphere_cosets(prime: Prime, gamma: int, l: int) -> list[Fraction]:
    """Representatives of the (p-1)*p^(gamma-l-1) cosets of B_l covering
    the sphere S_gamma exactly once; each representative has norm p^gamma."""
    if l >= gamma:
        raise BadWindow(
            f"sphere S_{gamma} is not a union of B_{l} cosets (need l <= gamma - 1)"
        )
    scale = Fraction(prime.p) ** (-gamma)
    return [int(w) * scale for w in _sphere_words(prime.p, gamma - l)]
