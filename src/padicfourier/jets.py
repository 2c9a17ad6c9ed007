"""Truncated Taylor (jet) arithmetic in the parameter alpha.

A Jet stores (f(a), f'(a), ..., f^(m)(a)) for a function of alpha at a
fixed point.  Every closed form in this package is built from terms
p^{c*alpha}, whose derivatives (c ln p)^k p^{c*alpha} are exact, so jets
give exact higher derivatives up to floating rounding -- no symbolic
differentiation and no finite-difference truncation error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb

from .errors import NumericOverflow


@dataclass(frozen=True)
class Jet:
    """coeffs[k] = d^k f / d alpha^k at the expansion point, k <= order."""

    coeffs: tuple[complex, ...]

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
    """Jet of alpha |-> p^{c*alpha}; derivatives are (c ln p)^k p^{c*alpha}.
    Raises NumericOverflow when a coefficient is not a finite float."""
    lnp = math.log(p)
    try:
        base = cmath.exp(complex(alpha) * (c * lnp))
        # a base that underflowed to 0 makes each coefficient a zero whose
        # sign alone (c ln p)^k sets, however far past the float range it is
        x = c * lnp if base else math.copysign(1.0, c * lnp)
        coeffs = tuple(x**k * base for k in range(order + 1))
        if all(map(cmath.isfinite, coeffs)):
            return Jet(coeffs)
    except OverflowError:
        pass
    raise NumericOverflow(
        f"{p}^(c*alpha) with c = {c}, alpha = {alpha} (order {order}) "
        "is not a finite float"
    )
