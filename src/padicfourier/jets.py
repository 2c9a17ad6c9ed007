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


def p_power_jet(p: int, c, alpha: complex, order: int) -> Jet:
    """Jet of alpha |-> p^{c*alpha}, entries c^k p^{c*alpha}; past the float
    range of that product, sign(c)^k e^{k ln|c| + c alpha ln p}: 0 below it
    (a zero signed as the product signs it), NumericOverflow above it."""
    z = complex(alpha) * (c * math.log(p))
    try:
        base = cmath.exp(z)
        if base:  # else c^k p^{c*alpha} may still be in range
            return Jet(tuple(c**k * base for k in range(order + 1)))
    except (OverflowError, NumericOverflow):
        pass
    s, lc = math.copysign(1.0, c), math.log(abs(c))  # c != 0, as p^0 = 1
    coeffs = (s**k * cmath.exp(complex(k * lc + z.real, z.imag)) for k in range(order + 1))
    try:
        return Jet(tuple(coeffs))
    except OverflowError:
        raise NumericOverflow(
            f"{p}^(c*alpha) with c = {c}, alpha = {alpha} (order {order}) "
            "is not a finite float"
        ) from None
