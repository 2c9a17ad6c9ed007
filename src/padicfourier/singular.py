"""Exact evaluation of the singular Fourier integral J(t) = <f(x) chi_p(xt), phi(x)>.

The evaluator splits the pairing at a level l0 (default: phi's constancy
parameter l) into

    J = J1 + J2 + phi(0) * (J0 + pinning correction),

where J1 integrates f(x) chi_p(xt) (phi(x) - phi(0)) over B_{l0}, J2
integrates f(x) chi_p(xt) phi(x) outside B_{l0}, and J0 is the continued
integral of f(x) chi_p(xt) over B_{l0}, evaluated in closed form:

* |x|^{alpha-1} log^m, trivial pi_1: the two-branch formula
  (1-1/p) (log_p e)^m d^m/dalpha^m [p^{alpha l0} / (1-p^{-alpha})] for
  |t|_p <= p^{-l0} and (log_p e)^m d^m/dalpha^m [Gamma_p(alpha) |t|^{-alpha}]
  beyond, via jets;
* P(log^{m-1}/|x|): -(1/p)(1-M)^{m-1} - (1-1/p)(S_{m-1}(l0) - S_{m-1}(-M))
  for |t|_p = p^M > p^{-l0}, else 0 (exact rationals via Bernoulli /
  power-sum polynomials);
* ramified pi_1: the terminating sphere sum -- every sphere with
  |xt|_p != p^{k0} integrates to an exact zero, leaving at most one
  finite Gauss sum, valid for all alpha since I_0 == 0.

The pinning correction phi(0) (1-1/p) S_{m-1}(l0) applies to the PLog
family only: its defining regularization subtracts phi(0) over B_0, not
B_{l0}, and the exact difference is the integral of the density over the
annulus between the two balls.  (It vanishes at l0 = 0 and makes the
value independent of the split level, as it must be.)

J1 and J2 are finite sphere-by-coset sums (``sums.sphere_cell_sum``,
which serves every t of one norm sphere with one DFT); beyond the
stabilization threshold they are exact zeros because every per-cell
chi_p ball integral vanishes.  ``brute_force_oracle`` recomputes J on a
structurally different path: its own plain value-times-chi_p-times-measure
summation over refined cells on every sphere down to an analytic-tail
boundary, plus the geometric-jet tail, with no split, no closed-form
branches and no shared sphere kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qp
from .distributions import (
    DiracDelta,
    PiAlphaLog,
    PLog,
    QahDistribution,
    char_of,
    density_on_sphere,
)
from .characters import NormedMultChar, sphere_char_chi_integral, sphere_chi_integral
from .errors import BadWindow, ZeroArgument
from .gamma import (
    ball_norm_power_jet,
    check_pole,
    faulhaber_sum,
    gamma_p,
    logp_e,
    logp_scaled,
)
from .jets import p_power_jet
from .qp import Prime, Rational, Sphere
from .sums import sphere_cell_sum
from .testfn import TestFunction


@dataclass(frozen=True)
class SingularIntegralRequest:
    """One evaluation J_{f, phi}(t), or one per t of a tuple of points that
    share one |t|_p; split_level defaults to phi's l."""

    f: QahDistribution
    phi: TestFunction
    t: Fraction | tuple[Fraction, ...]
    split_level: int | None = None

    def __post_init__(self):
        if isinstance(self.t, (tuple, list)):
            object.__setattr__(self, "t", tuple(Fraction(t) for t in self.t))
        else:
            object.__setattr__(self, "t", Fraction(self.t))
        if 0 in self.points():
            raise ZeroArgument("singular integral requires t != 0")
        qp.norm_and_units(self.points(), self.phi.prime)
        l0 = self.level()
        if l0 > self.phi.N:
            raise BadWindow(
                f"split level l0 = {l0} exceeds support N = {self.phi.N}"
            )

    def points(self) -> tuple[Fraction, ...]:
        return self.t if isinstance(self.t, tuple) else (self.t,)

    def level(self) -> int:
        return self.phi.l if self.split_level is None else int(self.split_level)


def j0_closed_form(
    f: QahDistribution, l0: int, t: Rational, prime: Prime
) -> complex:
    """The continued integral of f(x) chi_p(xt) over B_{l0} (the
    chi_p(xt) - 1 variant for the PLog family), in closed form."""
    t = Fraction(t)
    if t == 0:
        raise ZeroArgument("j0_closed_form requires t != 0")
    p = prime.p
    m_exp = -qp.valuation(t, prime)  # log_p |t|_p

    if isinstance(f, PLog):
        s = f.m - 1
        if m_exp <= -l0:
            return 0j  # chi == 1 on all of B_{l0}
        value = -Fraction(1, p) * (1 - m_exp) ** s - (1 - Fraction(1, p)) * (
            faulhaber_sum(s, l0) - faulhaber_sum(s, -m_exp)
        )
        return complex(value)

    if not isinstance(f, PiAlphaLog):
        raise TypeError(f"no J0 closed form for {f!r}")

    if f.pi1.is_trivial():
        check_pole(prime, f.alpha)
        if m_exp <= -l0:
            jet = ball_norm_power_jet(prime, l0, f.alpha, f.m)
        else:
            jet = gamma_p(prime, f.alpha, f.m) * p_power_jet(
                p, -m_exp, f.alpha, f.m
            )
        return logp_scaled(jet, p).coeffs[f.m]

    # ramified pi_1: only the sphere with |xt|_p = p^{k0} can contribute;
    # sphere_char_chi_integral is an exact zero everywhere else
    gamma_res = f.pi1.k0 - m_exp
    if gamma_res > l0:
        return 0j
    return density_on_sphere(f, prime, gamma_res) * sphere_char_chi_integral(
        f.pi1, gamma_res, t
    )


def _pinning_correction(f: QahDistribution, prime: Prime, l0: int) -> complex:
    if isinstance(f, PLog) and l0 != 0:
        return complex(
            (1 - Fraction(1, prime.p)) * faulhaber_sum(f.m - 1, l0)
        )
    return 0j


def singular_fourier(req: SingularIntegralRequest) -> complex | list[complex]:
    """J(t) = <f(x) chi_p(xt), phi(x)>, exactly (up to floating rounding).
    A tuple of t gives a list, one J per t: each sphere is enumerated once
    for the whole batch."""
    f, phi, ts = req.f, req.phi, req.points()
    prime = phi.prime
    if isinstance(f, DiracDelta):
        values = [phi.at(0)] * len(ts)
    else:
        chr_ = char_of(f, prime)
        if isinstance(f, PiAlphaLog) and f.pi1.is_trivial():
            check_pole(prime, f.alpha)
        l0 = req.level()
        # J1 on the spheres above S_l up to S_{l0}, J2 beyond S_{l0}
        split = np.zeros(len(ts), dtype=np.complex128)
        for g in range(min(phi.l, l0) + 1, phi.N + 1):
            split += density_on_sphere(f, prime, g) * sphere_cell_sum(
                phi, chr_, g, ts, subtract_phi0=g <= l0
            )
        correction = _pinning_correction(f, prime, l0)
        values = [
            complex(s) + phi.at_zero * (j0_closed_form(f, l0, t, prime) + correction)
            for s, t in zip(split, ts)
        ]
    return values if isinstance(req.t, tuple) else values[0]


def brute_force_oracle(req: SingularIntegralRequest, refine: int = 0) -> complex:
    """J(t) recomputed by direct refined-cell summation on every sphere
    down to the analytic-tail boundary gamma* = min(-log_p|t|_p, l) - refine,
    plus the closed-form tail below it (geometric jet for trivial pi_1,
    exact zero for ramified, finite power sum for PLog).  It shares no
    sphere kernel with ``singular_fourier``."""
    if refine < 0:
        raise ValueError(f"refine must be >= 0, got {refine}")
    f, phi, t = req.f, req.phi, req.t
    prime = phi.prime
    if isinstance(f, DiracDelta):
        return phi.at(0)
    m_exp = -qp.valuation(t, prime)
    l = phi.l
    gamma_star = min(-m_exp, l) - refine
    chr_ = char_of(f, prime)
    is_plog = isinstance(f, PLog)
    # the PLog regularization subtracts phi(0) over all of B_0, so its
    # sphere sums run to S_0 even when phi's support stops below it
    top = max(phi.N, 0) if is_plog else phi.N
    total = 0j
    for g in range(gamma_star + 1, top + 1):
        base_level = min(l, g - max(chr_.k0, 1))
        target_level = min(l, -m_exp, g - max(chr_.k0, 1)) - refine
        subtract = is_plog and g <= 0
        cell = _refined_cell_sum(phi, chr_, g, t, subtract, base_level - target_level)
        if subtract:
            # interior PLog integrand is phi*chi - phi(0), i.e. the
            # (phi - phi(0))*chi cells plus phi(0)*(chi - 1)
            cell += phi.at_zero * float(
                sphere_chi_integral(prime, g, t) - Sphere(prime, g).measure()
            )
        total += density_on_sphere(f, prime, g) * cell
    total += phi.at_zero * _oracle_tail(f, prime, gamma_star)
    return total


def _refined_cell_sum(
    phi: TestFunction,
    chr_: NormedMultChar,
    gamma: int,
    t: Fraction,
    subtract_phi0: bool,
    extra_depth: int,
) -> complex:
    # the oracle's own sphere sum: value x chi_p(ct) x measure on every cell
    # of B_lam, lam = min(l, gamma - max(k0, 1)) - extra_depth, one exp each
    p = phi.prime.p
    if gamma > phi.N and not subtract_phi0:
        return 0j
    lam = min(phi.l, gamma - max(chr_.k0, 1)) - extra_depth
    m_exp = -qp.valuation(t, phi.prime)
    if lam > -m_exp:
        return 0j  # every cell's ball integral of chi_p vanishes
    words = qp._sphere_words(p, gamma - lam)
    vals = phi.sample(words, gamma)
    if subtract_phi0:
        vals = vals - phi.values[0]
    if chr_.k0 >= 1:
        vals = vals * chr_.complex_table()[words % p**chr_.k0]
    if gamma + m_exp > 0:
        # lam <= -m_exp here, so den <= p^(gamma - lam), which the word
        # enumeration caps at 2^24: the int64 products stay exact
        den = p ** (gamma + m_exp)
        unit = qp.unit_part(t, phi.prime)
        w_t = (unit.numerator * pow(unit.denominator, -1, den)) % den
        vals = vals * np.exp(2j * np.pi * ((words % den) * w_t % den) / den)
    return complex(vals.sum()) * float(Fraction(p) ** lam)


def _oracle_tail(f: QahDistribution, prime: Prime, gamma_star: int) -> complex:
    # on B_{gamma_star}: chi == 1 and phi == phi(0)
    if isinstance(f, PLog):
        if gamma_star < 1:
            return 0j  # the pinned B_0 part cancels exactly
        return complex(
            (1 - Fraction(1, prime.p)) * faulhaber_sum(f.m - 1, gamma_star)
        )
    if f.pi1.is_trivial():
        check_pole(prime, f.alpha)
        jet = ball_norm_power_jet(prime, gamma_star, f.alpha, f.m)
        return logp_scaled(jet, prime.p).coeffs[f.m]
    return 0j  # ramified: every sphere integral of pi_1 vanishes
