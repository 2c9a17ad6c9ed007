"""Vectorized exact sphere-by-coset sums shared by the evaluators.

The workhorse computes, for one sphere S_gamma,

    integral over S_gamma of g(x) pi_1(x) chi_p(x t) dx,

with g either phi or phi - phi(0).  The sphere is covered by cosets of
B_lambda with lambda <= min(l_phi, gamma - max(k0, 1)), so g and pi_1 are
constant per cell; chi_p is handled exactly through the per-cell ball
integral chi_p(ct) * p^lambda * [lambda <= -M], which keeps every value a
(root of unity) x (rational measure) product and makes the vanishing
regions exact zeros rather than cancellation residues.

Everything is integer word arithmetic on the canonical coset encoding
(cell representative c = w p^{-gamma} with w coprime to p), so the sums
vectorize with numpy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import qp
from .characters import NormedMultChar
from .testfn import TestFunction

def sphere_cell_sum(
    phi: TestFunction,
    chr_: NormedMultChar,
    gamma: int,
    t: Fraction | None,
    *,
    subtract_phi0: bool = False,
    extra_depth: int = 0,
) -> complex:
    """Exact integral over S_gamma of (phi - [subtract] phi(0)) pi_1 chi_p(.t).

    ``t = None`` means chi_p == 1 (plain pairing sums).  ``extra_depth``
    refines the cells beyond the coarsest correct level (the result is
    invariant; used by the brute-force oracle).
    """
    prime = phi.prime
    p = prime.p
    if gamma > phi.N and not subtract_phi0:
        return 0j
    k0 = chr_.k0
    lam = min(phi.l, gamma - max(k0, 1)) - extra_depth
    if t is None or t == 0:
        m_exp = None
        ball = Fraction(p) ** lam
    else:
        m_exp = -qp.valuation(t, prime)
        ball = Fraction(p) ** lam if lam <= -m_exp else Fraction(0)
    if ball == 0:
        return 0j
    words = qp._sphere_words(p, gamma - lam)

    if gamma > phi.N:
        vals = np.zeros(words.shape, dtype=np.complex128)
    elif gamma <= phi.l:
        # the whole sphere sits inside the zero coset of B_l
        vals = np.full(words.shape, phi.values[0])
    else:
        idx = (words % p ** (gamma - phi.l)) * p ** (phi.N - gamma)
        vals = phi.values[idx]
    if subtract_phi0:
        vals = vals - phi.values[0]

    if k0 >= 1:
        vals = vals * chr_.complex_table()[words % p**k0]

    if m_exp is not None and gamma + m_exp > 0:
        # lam <= -m_exp here, so den <= p^(gamma - lam), which the word
        # enumeration already caps at 2^24: the int64 products stay exact
        den = p ** (gamma + m_exp)
        unit = qp.unit_part(t, prime)
        w_t = (unit.numerator * pow(unit.denominator, -1, den)) % den
        angles = (words % den) * w_t % den
        vals = vals * np.exp(2j * np.pi * angles / den)

    return complex(vals.sum()) * float(ball)
