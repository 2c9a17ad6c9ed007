"""Vectorized exact sphere-by-coset sums for the split evaluator and the
regularized pairings.

The kernel computes, for one sphere S_gamma and every t of a batch that
shares one norm |t|_p = p^M,

    integral over S_gamma of g(x) pi_1(x) chi_p(x t) dx,

with g either phi or phi - phi(0).  The sphere is covered by cosets of
B_lambda with lambda = min(l_phi, gamma - max(k0, 1)), so g and pi_1 are
constant per cell; chi_p is handled exactly through the per-cell ball
integral chi_p(ct) * p^lambda * [lambda <= -M].

Exact zeros: for lambda > -M every per-cell ball integral vanishes, so
the sum is returned as 0 without enumerating a cell (this covers every
sphere beyond the stabilization threshold).  Outside B_N, g is 0, or the
constant -phi(0), whose sphere integral is the closed form
``characters.sphere_char_chi_integral``; no cell is enumerated there
either.

Fold and DFT: a cell is c = w p^{-gamma} with an integer word w coprime
to p, and for t = u p^{-M} (u a unit) chi_p(ct) = e^{2 pi i w u / p^K},
K = gamma + M, depends on w only modulo p^K.  The cell values are folded
modulo p^K once, and one length-p^K inverse DFT (``np.fft.ifft``,
unscaled) then holds the sphere sum for every unit direction u at index
u mod p^K; the batch reads off its own directions.  For K <= 0, chi_p is
1 on the sphere and the sum is the plain cell total.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import qp
from .characters import NormedMultChar, sphere_char_chi_integral
from .qp import Rational
from .testfn import TestFunction


def sphere_cell_sum(
    phi: TestFunction,
    chr_: NormedMultChar,
    gamma: int,
    ts: Sequence[Rational] | None,
    *,
    subtract_phi0: bool = False,
) -> np.ndarray:
    """Exact integral over S_gamma of (phi - [subtract] phi(0)) pi_1 chi_p(.t),
    one value per t of ``ts``, which must share one |t|_p (else
    ``MixedNorms``).  ``ts = None`` means chi_p == 1 and gives one value."""
    prime = phi.prime
    p = prime.p
    points = (0,) if ts is None else tuple(ts)  # chi_p(x * 0) == 1
    M, units = (None, None) if ts is None else qp.norm_and_units(points, prime)
    if gamma > phi.N:
        if not subtract_phi0:
            return np.zeros(len(points), dtype=np.complex128)
        return np.array(
            [-phi.at_zero * sphere_char_chi_integral(chr_, gamma, t) for t in points]
        )
    lam = min(phi.l, gamma - max(chr_.k0, 1))
    if M is not None and lam > -M:
        return np.zeros(len(points), dtype=np.complex128)
    words = qp._sphere_words(p, gamma - lam)
    vals = phi.sample(words, gamma)
    if subtract_phi0:
        vals = vals - phi.values[0]
    if chr_.k0 >= 1:
        vals = vals * chr_.complex_table()[words % p**chr_.k0]
    ball = qp.p_power(p, lam)
    if M is None or gamma + M <= 0:
        return np.full(len(points), vals.sum() * ball)

    # the sphere words are 0 .. p^(gamma-lam) - 1 without the multiples of
    # p, in order, so reshaped to rows of den - den/p they put each residue
    # class mod den (den <= p^(gamma-lam) as lam <= -M) in one column
    den = p ** (gamma + M)
    folded = np.zeros((den // p, p), dtype=np.complex128)
    folded[:, 1:] = vals.reshape(-1, den - den // p).sum(axis=0).reshape(-1, p - 1)
    del vals  # an in-place transform with the cells freed keeps peak memory low
    spectrum = folded.reshape(-1)
    np.fft.ifft(spectrum, norm="forward", out=spectrum)
    index = [u.numerator * pow(u.denominator, -1, den) % den for u in units]
    return spectrum[index] * ball
