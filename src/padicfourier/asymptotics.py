"""Stabilized asymptotics of singular Fourier integrals, and their verifier.

For |t|_p above the stabilization threshold s(phi) the asymptotic
expansion of J(t) is an exact equality:

* trivial pi_1, f = |x|^{alpha-1} log^m:   s(phi) = p^{-l} and
  J(t) = phi(0) (log_p e)^m d^m/dalpha^m [ Gamma_p(alpha) |t|_p^{-alpha} ];
* f = P(log^{m-1}/|x|):                    s(phi) = p^{-l} and J(t) is the
  Bernoulli polynomial expression in M = log_p |t|_p (the printed form of
  the theorem evaluated at l = 0; the pairing's unit-ball pinning makes
  the value independent of l);
* ramified pi_1 of rank k0:                s(phi) = p^{-l+k0} and
  J(t) = phi(0) pi_1^{-1}(t) (log_p e)^m
         d^m/dalpha^m [ Gamma_p(pi_alpha) |t|_p^{-alpha} ].

Each is r^M P(M) with M = log_p|t|_p, r = p^{-alpha} (r = 1 for PLog and
the delta) and P a polynomial of degree m: Leibniz on the product gives
P(M) = sum_j C(m,j) (-M)^j g_{m-j}, g_k = (log_p e)^k Gamma^{(k)}, and the
PLog Bernoulli form expands into exact rational coefficients.
``predict_expansion(f, l, prime)`` is the one place that knows the
families: it builds alpha, pi_1, the coefficients of P (Gamma via
``gamma_pi``, which hands trivial pi_1 to ``gamma_p``), the predicted
threshold exponent and the scale family once.  Its
``AsymptoticPrediction.rhs(phi0, t)`` evaluates
phi(0) pi_1^{-1}(t) r^M P(M), the same expression for every family; a
sweep evaluates phi(0) r^M P(M) once per sphere M and pi_1^{-1} once per
residue u mod p^k0 of its grid t = u p^{-M}, and multiplies per row.

One private function, ``_sweep``, runs every sweep: it validates the
t-grid (several unit directions per norm sphere), builds the prediction
once, evaluates it on every row (so a right-hand side beyond the float
range fails before the left side is paid for), asks for the
left side of the whole grid in one request, compares it with the
right-hand side row by row, asserts equality beyond s(phi), and reports
the empirically observed stabilization threshold.
``verify_stabilization`` takes the left side from the exact split
evaluator, one request (one Fourier transform) per sweep;
``erdelyi_check`` takes it, for Re alpha > 0, from the absolutely
convergent direct integral (no regularization) -- the p-adic Erdelyi
lemma -- one oracle request per sweep.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import qp
from .characters import NormedMultChar, eval_pi1
from .distributions import DiracDelta, PiAlphaLog, PLog, QahDistribution, char_of
from .errors import BadAlpha, NumericOverflow, StabilizationMismatch, ZeroArgument
from .gamma import bernoulli, gamma_pi, logp_scaled
from .jets import p_power_jet
from .qp import Prime, Rational
from .singular import SingularIntegralRequest, brute_force_oracle, singular_fourier
from .testfn import TestFunction

#: |J - RHS| < TOLERANCE_SCALE * (1 + |RHS|) defines a stabilized row
TOLERANCE_SCALE = 1e-9


def variant_name(f: QahDistribution) -> str:
    if isinstance(f, PiAlphaLog):
        return "pi-alpha-log"
    if isinstance(f, PLog):
        return "p-log"
    return "delta"


def theorem_family(f: QahDistribution) -> str:
    """Which stabilized expansion applies: 'unramified' (power-log with
    trivial pi_1), 'principal-log' (the PLog family), or 'ramified'."""
    if isinstance(f, PLog):
        return "principal-log"
    if isinstance(f, DiracDelta):
        return "delta"
    return "unramified" if f.pi1.is_trivial() else "ramified"


@dataclass(frozen=True)
class AsymptoticPrediction:
    """The theorem right-hand side of f for test functions of constancy
    level l, phi(0) pi_1^{-1}(t) p^{-alpha M} P(M) with M = log_p|t|_p:
    alpha (0 for PLog and the delta), pi_1, the coefficients of P
    (constant first), the predicted stabilization exponent e = -l + k0
    and a description of the asymptotic scale family.  ``rhs``
    evaluates it at one t."""

    prime: Prime
    s_pred_exponent: int
    scale_family: str
    alpha: complex
    pi1: NormedMultChar
    poly: tuple[complex | Fraction, ...]

    def rhs(self, phi0: complex, t: Rational) -> complex:
        """The right-hand side at t (an exact equality for
        |t|_p > p^{s_pred_exponent}; callers may probe below it)."""
        if t == 0:
            raise ZeroArgument("t = 0 has no asymptotic side")
        return self._on_grid(phi0, [qp.split(t, self.prime, self.pi1.k0)])[0]

    def _on_grid(self, phi0: complex, points: list[tuple[int, int]]) -> list[complex]:
        # at t = u p^{-M} for every (M, u): phi(0) r^M P(M) once per sphere
        # M, times pi_1^{-1}(u) once per residue u mod p^k0
        mod = self.prime.p**self.pi1.k0
        spheres, twists, values = {}, {}, []
        for M, u in points:
            if M not in spheres:
                spheres[M] = phi0 * self._radial(M)
            value = spheres[M]
            if mod > 1:
                if u % mod not in twists:
                    twists[u % mod] = eval_pi1(self.pi1, u).inverse().to_complex()
                value *= twists[u % mod]
            if not cmath.isfinite(value):
                raise NumericOverflow(
                    f"right-hand side at M = {M} is not a finite float"
                )
            values.append(value)
        return values

    def _radial(self, M: int) -> complex:
        # r^M P(M); past the float range of P(M) alone (inf * 0 is NaN) in
        # logarithms, with P(M) = M^m Q(1/M): exp gives 0 below it, inf above
        value = self.poly[-1]
        for c in reversed(self.poly[:-1]):
            value = value * M + c  # Horner; exact on PLog's rationals
        try:
            value = complex(value)
        except OverflowError:  # a rational beyond the float range
            value = cmath.inf
        if cmath.isfinite(value):
            if self.alpha:
                value *= p_power_jet(self.prime.p, -M, self.alpha, 0).value
            return value
        m, q = len(self.poly) - 1, 0
        for c in self.poly:
            q = q / M + c  # Horner in 1/M
        lnp = cmath.log(self.prime.p)
        log_value = cmath.log(q) + m * cmath.log(abs(M)) - self.alpha * M * lnp
        try:
            return cmath.exp(log_value) * (-1) ** (m * (M < 0))
        except OverflowError:
            return cmath.inf


def _plog_poly(m: int, p: int) -> tuple[Fraction, ...]:
    # PLog(m) at pinning level 0, s = m - 1: the printed Bernoulli form
    # (-1)^{s+1} [(M-1)^s / p + (1-1/p) sum_{r<=s} C(s+1,r) B_r M^{s+1-r} / (s+1)]
    # by powers of M (one sign factor, as B_r = 0 for odd r >= 3)
    s = m - 1
    poly = [Fraction(comb(s, j) * (-1) ** (s - j), p) for j in range(s + 1)] + [0]
    for r in range(s + 1):
        poly[s + 1 - r] += (1 - Fraction(1, p)) * comb(s + 1, r) * bernoulli(r) / (s + 1)
    return tuple((-1) ** (s + 1) * c for c in poly)


def predict_expansion(
    f: QahDistribution, l: int, prime: Prime
) -> AsymptoticPrediction:
    pi1 = char_of(f, prime)
    e = -l + pi1.k0
    if isinstance(f, DiracDelta):
        return AsymptoticPrediction(prime, e, "phi(0) (constant in t)", 0, pi1, (1,))
    if isinstance(f, PLog):
        # PLog(m) is P(log^{m-1}|x|/|x|): it pairs with the degree-pi_0
        # expansion at log-exponent m-1, so PLog(1) is the P(1/|x|) case
        scale = (
            f"phi(0) * polynomial of degree {f.m} in log_p|t| "
            f"(PLog({f.m}) = P(log^{f.m - 1}|x|/|x|); Bernoulli terms B_0..B_{f.m - 1})"
        )
        return AsymptoticPrediction(prime, e, scale, 0, pi1, _plog_poly(f.m, prime.p))
    twist = "" if pi1.is_trivial() else " pi_1^-1(t)"
    scale = f"phi(0) * |t|^-alpha{twist} log_p^{{m-k}}|t|, k = 0..m"
    # (log_p e)^m d^m/dalpha^m [Gamma(alpha) p^{-M alpha}] by Leibniz, with
    # g_k = (log_p e)^k Gamma^{(k)}: p^{-M alpha} sum_j C(m,j) (-M)^j g_{m-j}
    g = logp_scaled(gamma_pi(f.alpha, pi1, f.m), prime.p).coeffs
    poly = tuple(comb(f.m, j) * (-1) ** j * g[f.m - j] for j in range(f.m + 1))
    return AsymptoticPrediction(prime, e, scale, f.alpha, pi1, poly)


@dataclass(frozen=True)
class ReportRow:
    M: int
    t_unit: int
    J: complex
    rhs: complex
    abs_err: float
    stabilized: bool


@dataclass
class StabilizationReport:
    """Per-t comparison of exact J against the theorem right-hand side."""

    prime: int
    theorem: str
    variant: str
    alpha: tuple[float, float] | None
    m: int
    k0: int
    l: int
    N: int
    tolerance_scale: float
    s_pred_exponent: int
    s_emp_exponent: int
    below_threshold_violation: bool | None
    ok: bool
    scale_family: str = ""
    rows: list[ReportRow] = field(default_factory=list)

    CSV_COLUMNS = (
        "M,t_unit,J_re,J_im,rhs_re,rhs_im,abs_err,stabilized,"
        "s_pred_exponent,s_emp_exponent"
    )

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(self.CSV_COLUMNS.split(","))
        for r in self.rows:
            floats = (r.J.real, r.J.imag, r.rhs.real, r.rhs.imag, r.abs_err)
            w.writerow(
                [r.M, r.t_unit, *(f"{x:.17g}" for x in floats), int(r.stabilized)]
                + [self.s_pred_exponent, self.s_emp_exponent]
            )
        return out.getvalue()

    def to_json(self) -> str:
        """The fields as JSON: each row as its own field dict, each complex
        as [re, im]."""
        rows = [
            dict(vars(r), J=[r.J.real, r.J.imag], rhs=[r.rhs.real, r.rhs.imag])
            for r in self.rows
        ]
        return json.dumps(dict(vars(self), rows=rows), sort_keys=True, indent=2)


def unit_directions(prime: Prime, count: int) -> list[int]:
    """The first ``count`` positive integers coprime to p (u = 1 first):
    the fixed residue set sampled on every norm sphere."""
    return [u for u in range(1, 2 * count + 1) if u % prime.p][:count]


def _sweep(
    f: QahDistribution,
    phi: TestFunction,
    M_min: int,
    M_max: int,
    units_per_sphere: int,
    evaluate_J,
    split_level: int | None,
    theorem: str,
    tolerance_scale: float,
    strict: bool,
) -> StabilizationReport:
    """Compare evaluate_J with the theorem right-hand side at every
    t = u p^{-M} of the grid and assemble the report.  evaluate_J takes
    one request for the whole grid and returns one J per t; it runs only
    once the right-hand side is finite on every row."""
    if M_max < M_min:
        raise ValueError(f"empty sweep: M_max = {M_max} < M_min = {M_min}")
    if units_per_sphere < 1:
        raise ValueError("units_per_sphere must be >= 1")
    prime = phi.prime
    prediction = predict_expansion(f, phi.l, prime)
    units = unit_directions(prime, units_per_sphere)
    grid = [(M, u) for M in range(M_min, M_max + 1) for u in units]
    rhs_values = prediction._on_grid(phi.at_zero, grid)
    p = prime.p
    ts = [Fraction(u, p**M) if M >= 0 else Fraction(u * p**-M) for M, u in grid]
    request = SingularIntegralRequest(f, phi, ts, split_level)
    rows = []
    for (M, u), J, rhs in zip(grid, evaluate_J(request), rhs_values):
        err = abs(J - rhs)
        tol = tolerance_scale * (1 + abs(rhs))
        rows.append(ReportRow(M, u, J, rhs, err, err < tol))
    e_pred = prediction.s_pred_exponent
    failing = [r.M for r in rows if not r.stabilized]
    e_emp = max(failing, default=M_min - 1)
    ok = all(r.stabilized for r in rows if r.M > e_pred)
    below = None
    if prediction.pi1.k0:
        below = any(not r.stabilized for r in rows if -phi.l < r.M <= e_pred)
    alpha = None
    if isinstance(f, PiAlphaLog):
        alpha = (complex(f.alpha).real, complex(f.alpha).imag)
    report = StabilizationReport(
        prime=prime.p,
        theorem=theorem,
        variant=variant_name(f),
        alpha=alpha,
        m=len(prediction.poly) - 1,
        k0=prediction.pi1.k0,
        l=phi.l,
        N=phi.N,
        tolerance_scale=tolerance_scale,
        s_pred_exponent=e_pred,
        s_emp_exponent=e_emp,
        below_threshold_violation=below,
        ok=ok,
        scale_family=prediction.scale_family,
        rows=rows,
    )
    if strict and not ok:
        bad = [r for r in rows if r.M > e_pred and not r.stabilized]
        raise StabilizationMismatch(
            f"{len(bad)} rows above the stabilization threshold p^{e_pred} "
            f"exceed tolerance (first: M={bad[0].M}, u={bad[0].t_unit}, "
            f"err={bad[0].abs_err:.3e})",
            report=report,
        )
    return report


def verify_stabilization(
    f: QahDistribution,
    phi: TestFunction,
    M_min: int,
    M_max: int,
    units_per_sphere: int = 3,
    split_level: int | None = None,
    tolerance_scale: float = TOLERANCE_SCALE,
    strict: bool = True,
) -> StabilizationReport:
    """Sweep t = u p^{-M} over the grid, compare exact J with the theorem
    right-hand side, and assert exact equality (within floating tolerance)
    everywhere above the predicted stabilization threshold.

    Below-threshold rows are reported, never asserted.  With strict=False
    the report is returned even when the assertion fails.
    """
    return _sweep(
        f,
        phi,
        M_min,
        M_max,
        units_per_sphere,
        singular_fourier,
        split_level,
        theorem_family(f),
        tolerance_scale,
        strict,
    )


def erdelyi_check(
    alpha: complex,
    pi1: NormedMultChar,
    m: int,
    phi: TestFunction,
    M_min: int,
    M_max: int,
    units_per_sphere: int = 3,
    tolerance_scale: float = TOLERANCE_SCALE,
    strict: bool = True,
) -> StabilizationReport:
    """p-adic Erdelyi lemma check: for Re alpha > 0 the absolutely
    convergent direct integral equals the asymptotic right-hand side for
    |t|_p > p^{-l + k0}."""
    if complex(alpha).real <= 0:
        raise BadAlpha(f"Erdelyi check requires Re alpha > 0, got {alpha}")
    f = PiAlphaLog(alpha, pi1, m)
    # direct integral: no regularization enters for Re alpha > 0
    return _sweep(
        f,
        phi,
        M_min,
        M_max,
        units_per_sphere,
        brute_force_oracle,
        None,
        "erdelyi",
        tolerance_scale,
        strict,
    )
