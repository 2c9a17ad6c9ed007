"""Truncated Taylor (jet) arithmetic in the parameter alpha.

A Jet stores (f(a), theta f(a), ..., theta^m f(a)) for a function of alpha
at a fixed point, theta = (log_p e) d/dalpha.  Every closed form in this
package is built from terms p^{c*alpha}, whose theta-derivatives
c^k p^{c*alpha} are exact, so jets give exact higher derivatives up to
floating rounding -- no symbolic differentiation and no finite-difference
truncation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb

from . import qp
from .errors import NumericOverflow


@dataclass(frozen=True)
class Jet:
    """coeffs[k] = theta^k f at the expansion point, k <= order: finite."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not all(map(cmath.isfinite, self.coeffs)):
            raise NumericOverflow(f"a jet entry of order {self.order} is not a finite float")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(c: complex, order: int) -> "Jet":
        return Jet((complex(c),) + (0j,) * order)

    def _match(self, other: "Jet"):
        if self.order != other.order:
            raise ValueError(f"jet order mismatch: {self.order} != {other.order}")

    def __add__(self, other: "Jet") -> "Jet":
        self._match(other)
        return Jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Jet") -> "Jet":
        self._match(other)
        return Jet(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c: complex) -> "Jet":
        return Jet(tuple(complex(c) * a for a in self.coeffs))

    def __truediv__(self, other: "Jet") -> "Jet":
        # solve f = h * g for h, derivative by derivative
        self._match(other)
        f, g = self.coeffs, other.coeffs
        if g[0] == 0:
            raise ZeroDivisionError("jet division by a jet with zero value")
        h: list[complex] = []
        for k in range(len(f)):
            acc = f[k]
            for j in range(k):
                acc -= comb(k, j) * h[j] * g[k - j]
            h.append(acc / g[0])
        return Jet(tuple(h))

    @property
    def value(self) -> complex:
        return self.coeffs[0]


_NORMAL = 2.0**-1022  # the least normal float


def p_power_jet(p: int, c: int, alpha: complex, order: int, b: int = 0) -> Jet:
    """Jet of alpha |-> p^(c alpha + b), b an integer shift: entries
    c^k p^(c alpha + b) as ``p_power_term`` takes them, each c^k times
    entry 0 where that is a normal float and every entry is finite."""
    try:
        base = p_power_term(p, c, alpha, 0, b)
        if abs(base) >= _NORMAL:
            return Jet(tuple(c**k * base for k in range(order + 1)))
    except (OverflowError, NumericOverflow):
        pass
    top = p_power_term(p, c, alpha, order, b)  # the largest: it overflows first
    return Jet(tuple(p_power_term(p, c, alpha, k, b) for k in range(order)) + (top,))


def p_power_term(p: int, c: int, alpha: complex, k: int, b: int = 0) -> complex:
    """c^k p^(c alpha + b), entry k of that jet: the split evaluator's one
    route past the float range.  In it, c^k (p^(c alpha) p^b) with p^b
    rounded once, where both factors and their product are normal floats
    (for c = 0, p^b alone); else sign(c)^k e^(k ln|c| + (c alpha + b) ln p),
    0 below the range (a zero signed as the product signs it),
    NumericOverflow above it."""
    try:
        base = cmath.exp(complex(alpha) * (c * math.log(p))) if alpha else 1 + 0j
        scale = qp.p_power(p, b) if b else 1.0
        product = base * scale
        # a subnormal is short of bits, and with c != 0, c^k may still
        # bring the term into range
        if not c or abs(base) >= _NORMAL and scale >= _NORMAL and abs(product) >= _NORMAL:
            term = c**k * product
            if cmath.isfinite(term):
                return term
    except (OverflowError, NumericOverflow):  # a factor or c^k has no float
        pass
    if c:  # else p^b alone is past the range
        z = complex(alpha) * (c * math.log(p))
        re = k * math.log(abs(c)) + z.real + b * math.log(p)
        try:
            return math.copysign(1.0, c) ** k * cmath.exp(complex(re, z.imag))
        except OverflowError:
            pass
    times = f", times {p}^{b}" if b else ""
    raise NumericOverflow(
        f"{p}^(c*alpha) with c = {c}, alpha = {alpha}{times} (order {k}) is not a finite float"
    )
