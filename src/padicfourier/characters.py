"""Additive and multiplicative characters of Q_p with exact values.

The additive character is chi_p(x) = e^{2 pi i {x}_p}.  A normed
multiplicative character pi_1 depends only on the unit part of its
argument and is stored as a table of exact root-of-unity values on the
units modulo p^{k0}, where k0 is its rank (the smallest k with
pi_1 == 1 on 1 + p^k Z_p; k0 = 0 is the trivial character).  A general
multiplicative character is pi_alpha(x) = |x|_p^{alpha-1} pi_1(x).

Character values are kept as exact rational angles (meaning e^{2 pi i q})
and only converted to floating complex at final summations, so all
cancellation structure stays exact.

The module also provides the exact one-sphere integral primitives that
the closed-form evaluators rely on:

* integral of chi_p(xt) over a sphere (a rational, possibly 0);
* integral of pi_1(x) chi_p(xt) over a sphere, which vanishes exactly
  unless |t|_p * p^gamma = p^{k0} and is a finite Gauss sum there.

The exact-zero branches rest on two facts: full-period additive
character sums vanish, and a ramified pi_1 sums to zero over every
subgroup 1 + p^j Z_p with j < k0.  The second follows from the two
properties checked at character construction, the group law and rank
minimality: a homomorphism maps a finite group onto a cyclic group mu_d
and takes each value |kernel| times, and 1 + p^j Z_p contains
1 + p^{k0-1} Z_p, on which pi_1 is not trivial, so d >= 2.
"""

from __future__ import annotations

import cmath
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


@dataclass(frozen=True)
class RootOfUnity:
    """e^{2 pi i angle} with an exact rational angle in [0, 1)."""

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.angle + other.angle)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.angle)

    def to_complex(self) -> complex:
        if self.angle == 0:
            return 1 + 0j
        return cmath.exp(2j * cmath.pi * float(self.angle))


def chi(x: Rational, prime: Prime) -> RootOfUnity:
    """chi_p(x) = e^{2 pi i {x}_p}; equals 1 whenever |x|_p <= 1."""
    return RootOfUnity(qp.fractional_part(x, prime))


def _units_mod(p: int, k: int) -> list[int]:
    return [u for u in range(1, p**k) if u % p != 0]


class NormedMultChar:
    """pi_1 given by exact values on the units modulo p^{k0}.

    ``unit_values`` maps every unit u in (Z/p^{k0})^* to a RootOfUnity;
    an empty table with k0 = 0 is the trivial character.  Construction
    validates normalization pi_1(1) = 1, multiplicativity and rank
    minimality (pi_1 is not trivial on 1 + p^{k0-1} Z_p).  Together these
    make pi_1 a nontrivial homomorphism on every subgroup 1 + p^j Z_p with
    j < k0, so its values there cover some mu_d, d >= 2, uniformly and sum
    to zero: the exact zeros of the sphere integrals.
    """

    def __init__(self, prime: Prime, k0: int, unit_values: dict[int, RootOfUnity]):
        self.prime = prime
        self.k0 = int(k0)
        p = prime.p
        if self.k0 < 0:
            raise BadTable(f"negative rank {k0}")
        if self.k0 == 0:
            if unit_values:
                raise BadTable("trivial character must have an empty table")
            self.unit_values = {}
            self._key = (prime, 0, ())
            self._table = np.ones(1, dtype=np.complex128)
            return
        mod = p**self.k0
        units = _units_mod(p, self.k0)
        if sorted(unit_values) != units:
            raise BadTable(
                f"table keys must be exactly the units mod {p}^{self.k0}"
            )
        if unit_values[1].angle != 0:
            raise BadTable("pi_1(1) must equal 1")
        for u in units:
            for v in units:
                lhs = unit_values[(u * v) % mod]
                rhs = unit_values[u] * unit_values[v]
                if lhs.angle != rhs.angle:
                    raise NotMultiplicative(
                        f"pi_1({u}*{v}) != pi_1({u})*pi_1({v}) mod {mod}"
                    )
        j = self.k0 - 1
        if all(unit_values[u].angle == 0 for u in units if (u - 1) % p**j == 0):
            raise RankNotMinimal(
                f"character is trivial on 1 + {p}^{j} Z: rank < {self.k0}"
            )
        self.unit_values = dict(unit_values)
        self._key = (prime, self.k0, tuple(unit_values[u].angle for u in units))
        table = np.zeros(mod, dtype=np.complex128)
        for u in units:
            table[u] = unit_values[u].to_complex()
        self._table = table

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
    squares = {(u * u) % p for u in range(1, p)}
    values = {
        u: RootOfUnity(Fraction(0) if u in squares else Fraction(1, 2))
        for u in range(1, p)
    }
    return NormedMultChar(prime, 1, values)


def table_character(
    prime: Prime, k0: int, angles: dict[int, Fraction]
) -> NormedMultChar:
    """Character from an explicit table of rational angles on units mod p^{k0}."""
    values = {u: RootOfUnity(Fraction(a)) for u, a in angles.items()}
    return NormedMultChar(prime, k0, values)


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
        return table_character(prime, k0, angles)
    raise BadTable(f"unknown character kind: {kind!r}")


def eval_pi1(chr_: NormedMultChar, x: Rational) -> RootOfUnity:
    """pi_1(x) for x != 0; depends only on the unit part of x."""
    if x == 0:
        raise ZeroArgument("pi_1 is undefined at 0")
    if chr_.k0 == 0:
        return RootOfUnity(0)
    return chr_.unit_values[qp.split(x, chr_.prime, chr_.k0)[1]]


# ---------------------------------------------------------------------------
# exact one-sphere integrals


def sphere_chi_integral(prime: Prime, gamma: int, t: Rational) -> Fraction:
    """integral over S_gamma of chi_p(xt) dx, with v the valuation of t
    (+inf at t = 0): the full measure p^gamma - p^{gamma-1} for v >= gamma,
    the resonant value -p^{gamma-1} for v = gamma - 1, else 0."""
    v = qp.valuation(t, prime)
    p = Fraction(prime.p)
    if v >= gamma:
        return p**gamma - p ** (gamma - 1)
    if v == gamma - 1:
        return -(p ** (gamma - 1))
    return Fraction(0)


def sphere_char_chi_integral(
    chr_: NormedMultChar, gamma: int, t: Rational
) -> complex:
    """integral over S_gamma of pi_1(x) chi_p(xt) dx, exactly.

    For a ramified character of rank k0 the integral vanishes unless
    gamma = k0 + log_p|1/t|, i.e. |xt|_p = p^{k0} on the sphere, where it
    is the finite Gauss sum p^{gamma-k0} * sum_u pi_1(u) chi_p(u w / p^{k0}).
    """
    prime = chr_.prime
    p = prime.p
    if chr_.k0 == 0:
        return complex(sphere_chi_integral(prime, gamma, t))
    M = -qp.valuation(t, prime)  # -inf at t = 0
    if gamma + M != chr_.k0:
        # chi is either constant on pi_1-cells that sum to zero (gamma+M < k0,
        # t = 0 included) or sums to zero inside each pi_1-cell (gamma+M > k0)
        return 0j
    mod = p**chr_.k0
    w = qp.split(t, prime, chr_.k0)[1]
    total = 0j
    for u in _units_mod(p, chr_.k0):
        angle = chr_.unit_values[u].angle + Fraction((u * w) % mod, mod)
        total += RootOfUnity(angle).to_complex()
    return total * qp.p_power(p, gamma - chr_.k0)
