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

from .errors import BadWindow, NonPadicDenominator

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


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: Rational, prime: Prime):
    """p-adic valuation of the exact rational x; +inf sentinel at x = 0."""
    x = Fraction(x)
    if x == 0:
        return INFINITE_VALUATION
    p = prime.p
    vnum = _int_valuation(x.numerator, p)
    if vnum:
        return vnum  # reduced fraction: denominator is coprime to p
    return -_int_valuation(x.denominator, p)


def p_power(p: int, e: int) -> float:
    """p^e as a float: the correctly rounded float(Fraction(p) ** e),
    without the Fraction arithmetic."""
    return p**e / 1 if e >= 0 else 1 / p**-e


def norm(x: Rational, prime: Prime) -> Fraction:
    """|x|_p = p^(-valuation), exactly; 0 for x = 0."""
    v = valuation(x, prime)
    if v is INFINITE_VALUATION:
        return Fraction(0)
    return Fraction(prime.p) ** (-v)


def unit_part(x: Rational, prime: Prime) -> Fraction:
    """x * p^(-valuation(x)), the unit factor of x != 0."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("zero has no unit part")
    return x * Fraction(prime.p) ** (-valuation(x, prime))


def unit_residue(x: Rational, prime: Prime, k: int) -> int:
    """u mod p^k for x = p^v u with u a unit (x != 0)."""
    return _residue(unit_part(x, prime), prime.p**k)


def _residue(q: Fraction, mod: int) -> int:
    # q mod `mod` for a rational whose denominator is coprime to mod
    return q.numerator * pow(q.denominator, -1, mod) % mod


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
    k = _int_valuation(den, p)
    q = p**k
    if q != den:
        raise NonPadicDenominator(
            f"denominator {den} of {x} is not a power of p = {p}"
        )
    return Fraction(x.numerator % q, q)


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


def coset_index(x: Rational, prime: Prime, N: int, l: int) -> int:
    """Index of the coset of x in the canonical enumeration of B_N / B_l.

    Accepts any rational with |x|_p <= p^N whose denominator's non-p part
    is inverted modulo p^(N-l) (such x still sits in a unique coset).
    """
    if l > N:
        raise BadWindow(f"constancy level l = {l} exceeds support level N = {N}")
    x = Fraction(x)
    p = prime.p
    if norm(x, prime) > Fraction(p) ** N:
        raise BadWindow(f"|{x}|_p > p^{N}: point outside B_{N}")
    return _residue(x * Fraction(p) ** N, p ** (N - l))
