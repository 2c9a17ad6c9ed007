"""The singular Fourier integral J(t) = <f(x) chi_p(xt), phi(x)>, exactly.

``singular_fourier`` validates a request (one t, or a batch of any
nonzero t) and hands it to the pairing core in ``distributions``: one
Fourier transform of the annulus product h, read at every t, plus phi(0)
times the closed-form J0.
``brute_force_oracle`` recomputes J on a structurally different path:
its own plain value-times-chi_p-times-measure summation over refined
cells on every sphere down to an analytic-tail boundary, plus the
geometric-jet tail, with no split, no closed-form branches and no shared
sphere kernel.  Each cell's chi_p(ct) is a root of unity read off one
table of p^E-th roots per t, not one complex exp per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qp
from .characters import NormedMultChar, sphere_chi_integral
from .distributions import (
    DiracDelta,
    PLog,
    QahDistribution,
    _pairing,
    char_of,
    density_on_sphere,
    j0_closed_form,  # noqa: F401 -- part of this module's API
)
from .errors import BadWindow, ZeroArgument
from .gamma import ball_norm_power_jet, faulhaber_sum, logp_scaled
from .qp import Prime, Rational
from .testfn import TestFunction


def _rational(t) -> Rational:
    return t if isinstance(t, (int, Fraction)) else Fraction(t)


@dataclass(frozen=True)
class SingularIntegralRequest:
    """One evaluation J_{f, phi}(t), or one per t of a tuple of nonzero
    points; split_level defaults to phi's l."""

    f: QahDistribution
    phi: TestFunction
    t: Rational | tuple[Rational, ...]
    split_level: int | None = None

    def __post_init__(self):
        if isinstance(self.t, (tuple, list)):
            object.__setattr__(self, "t", tuple(map(_rational, self.t)))
        else:
            object.__setattr__(self, "t", _rational(self.t))
        if not self.points():
            raise ZeroArgument("a batch of points needs at least one t")
        if 0 in self.points():
            raise ZeroArgument("singular integral requires t != 0")
        l0 = self.level()
        if l0 > self.phi.N:
            raise BadWindow(
                f"split level l0 = {l0} exceeds support N = {self.phi.N}"
            )

    def points(self) -> tuple[Rational, ...]:
        return self.t if isinstance(self.t, tuple) else (self.t,)

    def level(self) -> int:
        return self.phi.l if self.split_level is None else int(self.split_level)


def singular_fourier(req: SingularIntegralRequest) -> complex | list[complex]:
    """J(t) = <f(x) chi_p(xt), phi(x)>, exactly (up to floating rounding).
    A tuple of t gives a list, one J per t, all read off one transform."""
    values = _pairing(req.f, req.phi, req.points(), req.level())
    return values if isinstance(req.t, tuple) else values[0]


def brute_force_oracle(
    req: SingularIntegralRequest, refine: int = 0
) -> complex | list[complex]:
    """J(t) recomputed by direct refined-cell summation on every sphere
    down to the analytic-tail boundary gamma* = min(-log_p|t|_p, l) - refine,
    plus the closed-form tail below it (geometric jet for trivial pi_1,
    exact zero for ramified, finite power sum for PLog).  It shares no
    sphere kernel with ``singular_fourier``.  A tuple of t gives a list,
    one J per t."""
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine}")
    values = [_oracle_at(req.f, req.phi, t, refine) for t in req.points()]
    return values if isinstance(req.t, tuple) else values[0]


def _oracle_at(
    f: QahDistribution, phi: TestFunction, t: Fraction, refine: int
) -> complex:
    prime = phi.prime
    if isinstance(f, DiracDelta):
        return phi.at(0)
    p, l = prime.p, phi.l
    m_exp = -qp.valuation(t, prime)
    gamma_star = min(-m_exp, l) - refine
    chr_ = char_of(f, prime)
    is_plog = isinstance(f, PLog)
    # the PLog regularization subtracts phi(0) over all of B_0, so its
    # sphere sums run to S_0 even when phi's support stops below it
    top = max(phi.N, 0) if is_plog else phi.N
    # on a cell c = w p^-g, chi_p(ct) = e^(2 pi i w u / p^(g+m)) with u the
    # unit part of t: with E = top + m that is roots[w u p^(top-g) mod p^E],
    # one table for every sphere.  The top sphere's words run to
    # p^(top-lam) >= p^E, which the enumeration caps at 2^24; past that no
    # table is built, as the top sphere raises BadWindow before any sum
    # is returned
    E = top + m_exp
    roots, u, mod = None, 0, 1
    if 0 < E and p**E <= 1 << 24:
        mod = p**E
        roots = _roots(p, E)
        u = qp.split(t, prime, E)[1]
    total = 0j
    for g in range(gamma_star + 1, top + 1):
        lam = min(l, -m_exp, g - max(chr_.k0, 1)) - refine
        subtract = is_plog and g <= 0
        step = u * pow(p, top - g, mod) % mod
        cell = _refined_cell_sum(phi, chr_, g, lam, subtract, roots, step)
        if subtract:
            # interior PLog integrand is phi*chi - phi(0), i.e. the
            # (phi - phi(0))*chi cells plus phi(0)*(chi - 1)
            cell += phi.at_zero * float(
                sphere_chi_integral(prime, g, t) - sphere_chi_integral(prime, g, 0)
            )
        total += density_on_sphere(f, prime, g) * cell
    total += phi.at_zero * _oracle_tail(f, prime, gamma_star)
    return total


def _refined_cell_sum(
    phi: TestFunction,
    chr_: NormedMultChar,
    gamma: int,
    lam: int,
    subtract_phi0: bool,
    roots: np.ndarray | None,
    step: int,
) -> complex:
    # the oracle's own sphere sum: value x chi_p(ct) x measure on every cell
    # c = w p^-gamma of B_lam in S_gamma, chi_p(ct) = roots[w step mod p^E]
    # (step = 0: chi_p == 1 on S_gamma); lam <= -log_p|t|_p, so chi_p(xt)
    # is constant on every cell
    p = phi.prime.p
    words = qp._sphere_words(p, gamma - lam)
    vals = phi.sample(words, gamma)
    if subtract_phi0:
        vals -= phi.values[0]
    if chr_.k0 >= 1:
        vals *= chr_.complex_table()[words % p**chr_.k0]
    if step:
        # w < p^(gamma - lam) and step < p^E, both at most 2^24: the int64
        # products stay exact
        index = words * step
        index %= roots.size
        vals *= roots[index]
    return complex(vals.sum()) * qp.p_power(p, lam)


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
    h = E // 2, so about 2 p^(E/2) exps."""
    h = E // 2
    coarse = _turns(p ** (E - h), p ** (E - h))
    return np.multiply.outer(coarse, _turns(p**E, p**h)).ravel()


def _oracle_tail(f: QahDistribution, prime: Prime, gamma_star: int) -> complex:
    # on B_{gamma_star}: chi == 1 and phi == phi(0)
    if isinstance(f, PLog):
        if gamma_star < 1:
            return 0j  # the pinned B_0 part cancels exactly
        return complex(
            (1 - Fraction(1, prime.p)) * faulhaber_sum(f.m - 1, gamma_star)
        )
    if f.pi1.is_trivial():
        jet = ball_norm_power_jet(prime, gamma_star, f.alpha, f.m)
        return logp_scaled(jet, prime.p).coeffs[f.m]
    return 0j  # ramified: every sphere integral of pi_1 vanishes
