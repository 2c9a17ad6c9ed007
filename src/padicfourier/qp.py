"""Exact arithmetic on evaluation points of Q_p.

Points are plain ``fractions.Fraction`` values (no digit truncation, no
precision parameter): valuation, the split x = u p^-M of a point into
its norm and unit part, fractional part and coset membership are all
exactly computable from a rational.  The norm convention is
|x|_p = p^(-v) for x = p^v * m/n with m, n coprime to p, and |0|_p = 0.

Balls and spheres are centred at 0 unless stated otherwise:
B_gamma = {|x|_p <= p^gamma}, S_gamma = B_gamma \\ B_{gamma-1}, with Haar
measures p^gamma and p^gamma*(1 - 1/p).

Coset representatives are canonical digit expansions
x = sum_{i=-N}^{-l-1} d_i p^i, d_i in {0, ..., p-1}, ordered by the
integer value of the digit word (zero first), which makes every
enumeration deterministic and reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BadWindow, NonPadicDenominator, NumericOverflow

#: Sentinel returned by :func:`valuation` at x = 0 (convention |0|_p = 0).
INFINITE_VALUATION = math.inf

Rational = Fraction | int


#: the first 13 primes: Miller-Rabin on these bases decides every p below
#: _PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
#: Webster, 2015; the first 12 pass 318665857834031151167461 = 399165290221
#: * 798330580441)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


@dataclass(frozen=True)
class Prime:
    """A prime p < 3.3e24, checked at construction by deterministic
    Miller-Rabin on the first 13 prime bases."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"not a prime: {p!r}")
        if p in _BASES:
            return
        if p >= _PRIME_BOUND:
            raise ValueError(f"p = {p} is past the primality check's bound {_PRIME_BOUND}")
        s, d = _split_power(p - 1, 2)  # p - 1 = 2^s d, d odd
        for a in _BASES:
            # a prime p has x = a^d = 1 or x^(2^r) = -1 for some r < s
            x = pow(a, d, p)
            if x != 1 and all(pow(x, 2**r, p) != p - 1 for r in range(s)):
                raise ValueError(f"not a prime: {p}")


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
    without the Fraction arithmetic; NumericOverflow past the float range.
    Far past it, where |e| log2 p > 1100, p^|e| is not built: 0.0 for
    e < 0, as the quotient would round to."""
    if abs(e) * (p.bit_length() - 1) > 1100:
        if e < 0:
            return 0.0
        raise NumericOverflow(f"{p}^{e} is not a finite float")
    try:
        return p**e / 1 if e >= 0 else 1 / p**-e
    except OverflowError:
        raise NumericOverflow(f"{p}^{e} is not a finite float") from None


def split(x: Rational, prime: Prime, k: int) -> tuple[int, int]:
    """(M, u mod p^k) for x = u p^-M with u a unit (x != 0), so that
    |x|_p = p^M.  An int or a Fraction is read as it is."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ZeroDivisionError("zero has no unit part")
    p = prime.p
    v, num = _split_power(num, p)
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


#: the most words one coset or sphere enumeration may hold, and the most
#: digits such a word may have (p^n >= 2^n)
MAX_WORDS = 1 << 24
_MAX_DIGITS = MAX_WORDS.bit_length() - 1


def check_word_count(p: int, n: int) -> None:
    """BadWindow unless the p^n digit words of length n fit in MAX_WORDS;
    past _MAX_DIGITS digits without building p^n."""
    if n > _MAX_DIGITS or p**n > MAX_WORDS:
        raise BadWindow(f"coset enumeration too large: {p}^{n} words")


def check_finite(values, what: str):
    """values (an array or a list of complex), or NumericOverflow naming
    what they are when one is not a finite float.  Its callers compute them
    under np.errstate(over="ignore", invalid="ignore"): numpy's overflow
    raises here, not as a warning."""
    if isinstance(values, np.ndarray):
        finite = np.isfinite(values).all()
    else:
        finite = all(map(cmath.isfinite, values))
    if not finite:
        raise NumericOverflow(f"{what} is not a finite float")
    return values


def _coset_words(p: int, n: int) -> np.ndarray:
    # all digit words of length n, as integers 0 .. p^n - 1
    check_word_count(p, n)
    return np.arange(p**n, dtype=np.int64)


# bounded: one entry can reach 2^24 words (128 MiB), and an oracle sweep
# touches a few dozen (p, n) keys
@lru_cache(maxsize=64)
def _sphere_words(p: int, n: int) -> np.ndarray:
    # words of length n with nonzero leading (lowest-power) digit, ascending
    check_word_count(p, n)
    high = np.arange(p ** (n - 1), dtype=np.int64)
    return (high[:, None] * p + np.arange(1, p)).ravel()


def enumerate_cosets(prime: Prime, N: int, l: int) -> list[Fraction]:
    """Canonical representatives of the p^(N-l) cosets of B_l inside B_N,
    zero first."""
    if l > N:
        raise BadWindow(f"constancy level l = {l} exceeds support level N = {N}")
    scale = Fraction(prime.p) ** (-N)
    return [int(w) * scale for w in _coset_words(prime.p, N - l)]
