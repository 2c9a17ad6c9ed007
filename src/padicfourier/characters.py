"""Additive and multiplicative characters of Q_p with exact values.

The additive character is chi_p(x) = e^{2 pi i {x}_p}.  A normed
multiplicative character pi_1 depends only on the unit part of its
argument and is stored as one table of exact angles on the units modulo
p^{k0}, where k0 is its rank (the smallest k with pi_1 == 1 on
1 + p^k Z_p; k0 = 0 is the trivial character).  A general multiplicative
character is pi_alpha(x) = |x|_p^{alpha-1} pi_1(x).

An angle q means e^{2 pi i q}; a table keeps the integer numerators of
its angles over one common denominator.  Its checks and Gauss sums run on
those integers, so all cancellation structure stays exact, and ``_root``
turns a numerator into a complex value: it builds the complex table that
pi_1(x) is read from, and it evaluates chi_p and the Gauss sum terms.

An integral of pi_1(x) chi_p(xt) over a sphere is an exact zero except
on the one resonant sphere, where J0 and Gamma_p(pi_alpha) read
``gauss_sum``.  The zeros rest on two facts: full-period additive
character sums vanish, and a ramified pi_1 sums to zero over every
subgroup 1 + p^j Z_p with j < k0.  The second follows from the two
properties checked at character construction, the group law and rank
minimality: a homomorphism maps a finite group onto a cyclic group mu_d
and takes each value |kernel| times, and 1 + p^j Z_p contains
1 + p^{k0-1} Z_p, on which pi_1 is not trivial, so d >= 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qp
from .errors import (
    BadTable,
    NotMultiplicative,
    RankNotMinimal,
    ZeroArgument,
)
from .qp import Prime, Rational


def _root(n: int, den: int) -> complex:
    # e^(2 pi i n / den) for 0 <= n < den, the one place a character value
    # becomes complex: n / den is float(Fraction(n, den)) whatever the
    # common factors, so a value has the same bits over any denominator
    return cmath.exp(2j * cmath.pi * (n / den)) if n else 1 + 0j


@dataclass(frozen=True)
class RootOfUnity:
    """e^{2 pi i angle} with an exact rational angle in [0, 1)."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

    def to_complex(self) -> complex:
        return _root(self.angle.numerator, self.angle.denominator)


def chi(x: Rational, prime: Prime) -> RootOfUnity:
    """chi_p(x) = e^{2 pi i {x}_p}; equals 1 whenever |x|_p <= 1."""
    return RootOfUnity(qp.fractional_part(x, prime))


class NormedMultChar:
    """pi_1 given by exact rational angles on the units modulo p^{k0}.

    ``angles`` maps every unit u in (Z/p^{k0})^* to a rational q_u, with
    pi_1(u) = e^{2 pi i q_u}; an empty table with k0 = 0 is the trivial
    character.  The angles are kept as integer numerators a_u over one
    common denominator, and the complex table is built from them.
    Construction validates normalization pi_1(1) = 1, multiplicativity
    and rank minimality (pi_1 is not trivial on 1 + p^{k0-1} Z_p).
    Together these make pi_1 a nontrivial homomorphism on every subgroup
    1 + p^j Z_p with j < k0, so its values there cover some mu_d, d >= 2,
    uniformly and sum to zero: the exact zeros of the off-resonance
    sphere integrals.
    """

    def __init__(self, prime: Prime, k0: int, angles: dict[int, Rational]):
        self.prime = prime
        self.k0 = int(k0)
        p = prime.p
        if self.k0 < 0:
            raise BadTable(f"negative rank {k0}")
        if self.k0 == 0:
            if angles:
                raise BadTable("trivial character must have an empty table")
            self._angles = (1, ())
            self._key = (prime, 0, self._angles)
            self._table = np.ones(1, dtype=np.complex128)
            return
        # there are (p-1) p^(k0-1) >= 2^(k0-1) units: count them before
        # listing any, and before a huge k0 makes p^(k0-1) itself huge
        count = len(angles)
        units = (
            [u for u in range(1, p**self.k0) if u % p]
            if self.k0 <= count.bit_length() and count == (p - 1) * p ** (self.k0 - 1)
            else None
        )
        if sorted(angles) != units:
            raise BadTable(
                f"table keys must be exactly the units mod {p}^{self.k0}"
            )
        mod = p**self.k0
        # the checks run on integer numerators a_u of the angles a_u / den
        q = {u: Fraction(angles[u]) % 1 for u in units}
        den = math.lcm(mod, *(x.denominator for x in q.values()))
        a = {u: x.numerator * (den // x.denominator) for u, x in q.items()}
        if a[1]:
            raise BadTable("pi_1(1) must equal 1")
        # with a_1 = 0, the law on every (unit, generator) pair is the law
        # on every pair; only a table that breaks it pays for the double
        # loop, which names the first failing pair.  (Z/p^k0)^* is made by
        # -1 and 5 at p = 2, and at odd p by 1 + p and the least primitive
        # root mod p (its p-step orbits cost about what the table's
        # (p-1) p^(k0-1) units do); a generator that is 1 is dropped
        if p == 2:
            gens = [mod - 1, 5]
        else:
            root = next(
                g for g in range(2, p)
                if len({pow(g, j, p) for j in range(p - 1)}) == p - 1
            )
            gens = [root, 1 + p]
        gens = [g for g in gens if g % mod != 1]
        if any((a[u] + a[g] - a[u * g % mod]) % den for u in units for g in gens):
            for u in units:
                for v in units:
                    if (a[u] + a[v] - a[u * v % mod]) % den:
                        raise NotMultiplicative(
                            f"pi_1({u}*{v}) != pi_1({u})*pi_1({v}) mod {mod}"
                        )
        j = self.k0 - 1
        if all(a[u] == 0 for u in units if (u - 1) % p**j == 0):
            raise RankNotMinimal(
                f"character is trivial on 1 + {p}^{j} Z: rank < {self.k0}"
            )
        # pi_1(u) = e^(2 pi i a_u / den), as (den, ((u, a_u), ...)) in unit order
        self._angles = (den, tuple(a.items()))
        self._key = (prime, self.k0, self._angles)
        self._table = np.zeros(mod, dtype=np.complex128)
        for u, n in a.items():
            self._table[u] = _root(n, den)

    def complex_table(self) -> np.ndarray:
        """Complex values indexed by residue mod p^{k0} (mod 1 for k0 = 0)."""
        return self._table

    def is_trivial(self) -> bool:
        return self.k0 == 0

    def __eq__(self, other):
        return isinstance(other, NormedMultChar) and self._key == other._key

    def __hash__(self):
        # PiAlphaLog, a frozen dataclass, embeds a character
        return hash(self._key)

    def __repr__(self):
        if self.k0 == 0:
            return f"NormedMultChar(p={self.prime.p}, trivial)"
        return f"NormedMultChar(p={self.prime.p}, k0={self.k0})"


def trivial_character(prime: Prime) -> NormedMultChar:
    return NormedMultChar(prime, 0, {})


def quadratic_character(prime: Prime) -> NormedMultChar:
    """Legendre symbol on the units mod p (p odd); rank 1."""
    p = prime.p
    if p == 2:
        raise BadTable("quadratic character requires an odd prime")
    qp.check_word_count(p, 1)  # the p - 1 units, counted before any is listed
    squares = {(u * u) % p for u in range(1, p)}
    angles = {u: Fraction(0 if u in squares else 1, 2) for u in range(1, p)}
    return NormedMultChar(prime, 1, angles)


def make_character(prime: Prime, spec: dict) -> NormedMultChar:
    """Build a character from a CLI-style spec.

    spec = {"kind": "trivial"} | {"kind": "quadratic"}
         | {"kind": "table", "modulus_exponent": k0, "values": {unit: angle}}
    with angles given as exact rationals ("2/3" or Fraction) meaning
    e^{2 pi i angle}.
    """
    kind = spec.get("kind")
    if kind == "trivial":
        return trivial_character(prime)
    if kind == "quadratic":
        return quadratic_character(prime)
    if kind == "table":
        k0 = int(spec["modulus_exponent"])
        angles = {int(u): Fraction(a) for u, a in spec["values"].items()}
        return NormedMultChar(prime, k0, angles)
    raise BadTable(f"unknown character kind: {kind!r}")


def eval_pi1(chr_: NormedMultChar, x: Rational) -> complex:
    """pi_1(x) for x != 0, read from the complex table; depends only on
    the unit part of x."""
    if x == 0:
        raise ZeroArgument("pi_1 is undefined at 0")
    p = chr_.prime.p
    u = x if isinstance(x, int) and x % p else qp.split(x, chr_.prime, chr_.k0)[1]
    return complex(chr_._table[u % p**chr_.k0])


def gauss_sum(chr_: NormedMultChar, w: int) -> complex:
    """sum over the units u mod p^{k0} of pi_1(u) chi_p(u w / p^{k0}), for
    a ramified pi_1: one root of unity per unit, in unit order, from the
    integer numerator of its angle plus that of u w / p^{k0}."""
    mod = chr_.prime.p ** chr_.k0
    den, angles = chr_._angles
    step = den // mod
    total = 0j
    for u, a in angles:
        total += _root((a + u * w % mod * step) % den, den)
    return total
