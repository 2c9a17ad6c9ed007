"""The singular Fourier integral J(t) = <f(x) chi_p(xt), phi(x)>, exactly.

A request (one t, or a batch of any nonzero t) splits each t once, into
the integers (M, u) with t = u p^-M, or takes a sweep's (M, u) grid as it
stands.  ``singular_fourier`` hands the points to the pairing core in
``distributions``: the Fourier transform of the annulus product h, read
at the words of the points inside its support, plus phi(0) times the
closed-form J0.
``brute_force_oracle`` recomputes J on a structurally different path:
its own plain sum of value times chi_p over refined cells on every
sphere down to an analytic-tail boundary, plus the geometric-jet tail,
with no split, no closed-form branches and no shared sphere kernel.
Each cell's chi_p(ct) is a root of unity read off a table of p^d-th
roots, d = g + M for the sphere S_g of the norm |t|_p = p^M, not one
complex exp per cell.  On S_g a cell word w has the value row[w mod p^h]
and the root w u mod p^d.  The factor of longer period is summed over the
residue classes mod p^k, k = min(d, h), of the other; each direction then
takes one dot product over the units below p^k, scaled by p^-max(d, h), a
normal float, times f's mass g^m p^(alpha g) (its density times p^g),
taken once per sphere: no cell measure is formed.  The roots' classes
depend on (p, d, k) alone, so the last 256 of at most 64 values are kept
across calls; a call folds each other class it reads from a table of its
own, and a warm call equals a cold one bit for bit.  Within a call, rows
equal by construction are one row (phi is phi(0) on every S_g with
g <= l), so a sum over a sphere deep in B_l is taken once per (row, d, k,
u mod p^k) and read by every norm that meets it; the folds, the index
arrays, the d <= 0 row sums and the tail's jet are likewise taken once.
A sphere whose row of |cell values| sums past the float range is refused
before any root table is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import qp
from .distributions import (
    DiracDelta,
    PiAlphaLog,
    PLog,
    QahDistribution,
    _pairing,
    char_of,
    density_on_sphere,
    j0_closed_form,  # noqa: F401 -- the package and bench/tracing.py bind it here
)
from .errors import ZeroArgument
from .gamma import ball_tail, faulhaber_sum
from .qp import Prime, Rational
from .testfn import TestFunction


@dataclass(frozen=True)
class SingularIntegralRequest:
    """One evaluation J_{f, phi}(t), or one per t of a tuple of nonzero
    points, paired as F[h] + phi(0) J0 split at phi's l.  ``_grid`` holds each
    point t = u p^-M as (M, u mod p^max(24, k0)): from t, or given with t = None."""

    f: QahDistribution
    phi: TestFunction
    t: Rational | tuple[Rational, ...] | None
    _grid: tuple[tuple[int, int], ...] | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        if self.t is not None:
            batch = isinstance(self.t, (tuple, list))
            ts = self.t if batch else (self.t,)
            ts = tuple(t if isinstance(t, (int, Fraction)) else Fraction(t) for t in ts)
            if 0 in ts:
                raise ZeroArgument("singular integral requires t != 0")
            # an oracle root table's p^E roots and the F[h] table's p^(N-lam)
            # words are at most 2^24, so u mod p^24 holds every residue they read
            k = max(qp._MAX_DIGITS, self.f.pi1.k0 if isinstance(self.f, PiAlphaLog) else 0)
            object.__setattr__(self, "t", ts if batch else ts[0])
            object.__setattr__(self, "_grid", tuple(qp.split(t, self.phi.prime, k) for t in ts))
        if not self._grid:
            raise ZeroArgument("a batch of points needs at least one t")

    def _shaped(self, values: list[complex]) -> complex | list[complex]:
        return values if self.t is None or isinstance(self.t, tuple) else values[0]


def singular_fourier(req: SingularIntegralRequest) -> complex | list[complex]:
    """J(t) = <f(x) chi_p(xt), phi(x)>, exactly (up to floating rounding).
    A tuple of t gives a list, one J per t, all read off one transform."""
    return req._shaped(_pairing(req.f, req.phi, req._grid, req.phi.l))


@np.errstate(over="ignore", invalid="ignore")
def brute_force_oracle(
    req: SingularIntegralRequest, refine: int = 0
) -> complex | list[complex]:
    """J(t) recomputed by direct refined-cell summation on every sphere
    down to the analytic-tail boundary gamma* = min(-log_p|t|_p, l) - refine,
    plus the closed-form tail below it (geometric jet for trivial pi_1,
    exact zero for ramified, finite power sum for PLog).  It shares no
    sphere kernel with ``singular_fourier``.  A tuple of t gives a list,
    one J per t; a sum that repeats within the call is taken once.
    NumericOverflow when a J, a sphere's mass or its row's |cell| sum is
    not a finite float."""
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine}")
    f, phi, grid = req.f, req.phi, req._grid
    if isinstance(f, DiracDelta):
        return req._shaped([phi.at(0)] * len(grid))
    prime, l = phi.prime, phi.l
    chr_ = char_of(f, prime)
    p, k0 = prime.p, chr_.k0
    is_plog = isinstance(f, PLog)
    # the PLog regularization subtracts phi(0) over all of B_0, so its
    # sphere sums run to S_0 even when phi's support stops below it
    top = max(phi.N, 0) if is_plog else phi.N
    # the points t = u p^-M of one norm p^M, in first-seen order
    norms: dict[int, list[tuple[int, int]]] = {}
    for i, (M, u) in enumerate(grid):
        norms.setdefault(M, []).append((i, u))
    # every sphere of every norm is checked (word count, mass) and every
    # tail evaluated, in the order a per-t evaluation meets them, before
    # any cell is summed: an oversize or overflowing request raises before
    # it enumerates
    plans = []
    masses: dict[int, complex] = {}  # per sphere S_g, shared by every norm
    tails: dict[int, complex] = {}  # per boundary gamma*
    tail_at = None  # the tail's jet, built once at the first boundary
    for M, members in norms.items():
        gamma_star = min(-M, l) - refine
        spheres = range(gamma_star + 1, top + 1)
        for g in spheres:
            lam = min(l, -M, g - max(k0, 1)) - refine  # cells of measure p^lam
            qp.check_word_count(p, g - lam)
            if g not in masses:  # f's density on S_g times p^g, g^m p^(alpha g)
                masses[g] = density_on_sphere(f, prime, g, g)
        if gamma_star not in tails:  # every norm past the threshold has l - refine
            if tail_at is None:
                tail_at = _oracle_tail(f, prime)
            tails[gamma_star] = tail_at(gamma_star)
        plans.append((M, members, spheres, tails[gamma_star]))
    # phi and pi_1 read only the digits of a cell word w below p^h (h <=
    # n = g - lam, as lam <= min(l, g - max(k0, 1))): one row of cell values
    # over the units below p^h, in blocks of the units below any p^k, k <= h.
    # Rows equal by construction are one row: phi is phi(0) on every S_g,
    # g <= l, so S_g reads the row of S_max(g, l), but PLog subtracts phi(0)
    # on g <= 0 alone, where it reads that of S_max(g, min(l, 0)).  The sums
    # below add a row's entries before chi_p cancels any, which past the
    # float range is rounding noise
    keys, rows = {}, {}
    for g in masses:
        keys[g] = key = max(g, min(l, 0) if is_plog and g <= 0 else l)
        if key in rows:
            continue
        h = max(g - l, k0, 1)
        units = qp._sphere_words(p, h)
        row = phi.sample(units, g)
        if is_plog and g <= 0:
            row -= phi.values[0]
        if k0 >= 1:
            row *= chr_.complex_table()[units % p**k0]
        qp.check_finite([np.abs(row).sum()], f"the oracle's |cell| sum on S_{g}")
        rows[key] = (h, units, row)
    # a class sum depends on the row, d, k and u mod p^k alone, a fold on
    # the row and its width, an index on k and u mod p^k: each is taken
    # once for the call, and read by every sphere and norm that meets it
    sums, folds, indices = {}, {}, {}
    values = [0j] * len(grid)
    for M, members, spheres, tail in plans:
        totals = [0j] * len(members)
        for g in spheres:
            key, d, mass = keys[g], g + M, masses[g]
            h, units, row = rows[key]
            k = min(d, h)
            mod = p ** max(k, 0)
            # PLog's interior integrand is phi*chi - phi(0): the (phi -
            # phi(0))*chi cells plus phi(0)*(chi - 1), whose integral over
            # S_g is, in units of p^g, 0 for d <= 0, -1 at d = 1, else -(1 - 1/p)
            pinned = 0.0
            if is_plog and g <= 0 and d > 0:
                pinned = -phi.at_zero * (1.0 if d == 1 else (p - 1) / p)
            for j, (_, u) in enumerate(members):
                at = (key, d, k, u % mod) if d > 0 else (key,)
                term = sums.get(at)
                if term is None:
                    if d <= 0:  # chi_p == 1 on S_g
                        s = row.sum()
                    else:
                        # chi_p(ct), c = w p^-g, is root w u mod p^d and the
                        # value is row[w mod p^h]: each is summed over its
                        # classes mod p^k, and as w -> w u permutes the
                        # words, direction u reads values of class a against
                        # roots of class a u
                        width = (p - 1) * p ** (k - 1)  # the units below p^k
                        if (key, width) not in folds:
                            folds[key, width] = _fold(row, width)
                        if (k, u % mod) not in indices:
                            indices[k, u % mod] = _times(units[:width], u, mod)
                        roots = _classes(p, d, k)[indices[k, u % mod]]
                        s = np.einsum("i,i", folds[key, width], roots)
                    # each term of s stands for p^(n - max(d, h)) cells of
                    # measure p^lam = p^(g - n): p^-max(d, h) times the
                    # mass's p^g
                    term = sums[at] = complex(s) * qp.p_power(p, -max(d, h))
                totals[j] += mass * (term + pinned)
        for (i, _), total in zip(members, totals):
            values[i] = total + phi.at_zero * tail
    return req._shaped(qp.check_finite(values, "J(t) (oracle)"))


def _classes(p: int, d: int, k: int) -> np.ndarray:
    # the p^d-th roots summed over their classes mod p^k: kept across calls
    # when at most 64 values wide, else folded afresh from a table of their own
    return _kept(p, d, k) if p**k <= 64 else _fold(_roots(p, d), p**k)


@lru_cache(maxsize=256)
def _kept(p: int, d: int, k: int) -> np.ndarray:
    # 256 arrays of at most 64 complex values: 2^18 bytes.  A read-only
    # copy, as a view of the table would keep the whole table alive
    classes = _fold(_roots(p, d), p**k).copy()
    classes.flags.writeable = False
    return classes


def _fold(x: np.ndarray, width: int) -> np.ndarray:
    # the sums of x's entries at each position of its blocks of `width`, in
    # numpy's loops: BLAS picks its kernel and threads, so maybe bits, per host
    return x if x.size == width else np.einsum("ij->j", x.reshape(-1, width))


def _times(units: np.ndarray, u: int, mod: int) -> np.ndarray:
    # units u mod `mod`, exact in int64; floor division multiplies and shifts
    if u % mod == 1:
        return units
    index = units * (u % mod)
    index -= index // mod * mod
    return index


#: i^q for a quarter turn q
_QUARTER = np.array([1, 1j, -1, -1j])


def _turns(n: int, count: int) -> np.ndarray:
    # e^(2 pi i k / n) for k < count, as i^q e^(2 pi i r) with q the nearest
    # quarter turn and r = k/n - q/4 in [-1/8, 1/8] rounded once: the small
    # angle keeps each root within about 1.3 eps, where exp(2 pi i k / n)
    # is off by up to 7 eps near a full turn
    k = np.arange(count)
    q = (4 * k + n // 2) // n
    return np.exp(2j * np.pi * ((4 * k - q * n) / (4 * n))) * _QUARTER[q % 4]


def _roots(p: int, E: int) -> np.ndarray:
    """The p^E-th roots of unity e^(2 pi i k / p^E), k < p^E: the outer
    product of the p^(E-h)-th roots and the first p^h of the p^E-th roots,
    h = E // 2, so about 2 p^(E/2) exps.  The oracle folds each class of
    depth d = E it does not keep from one of these, never from a larger
    table: for even E the p^(E+1) table splits off finer coarse roots, so
    its every p-th entry is the same root as this table's but not the
    same bits."""
    h = E // 2
    coarse = _turns(p ** (E - h), p ** (E - h))
    return np.multiply.outer(coarse, _turns(p**E, p**h)).ravel()


def _oracle_tail(f: QahDistribution, prime: Prime):
    # gamma* |-> the integral over B_{gamma*}, where chi == 1 and phi == phi(0)
    if isinstance(f, PLog):
        # below S_1 the pinned B_0 part cancels exactly
        weight = 1 - Fraction(1, prime.p)
        return lambda g: complex(weight * faulhaber_sum(f.m - 1, g)) if g >= 1 else 0j
    if f.pi1.is_trivial():
        return ball_tail(prime, f.alpha, f.m)
    return lambda g: 0j  # ramified: every sphere integral of pi_1 vanishes
