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

The derivative of the *product* matters: expanding it gives the binomial
sums C(m,k) (log_p e)^k Gamma^{(k)} with (-log_p|t|)^{m-k} scale factors.
Jets evaluate the product derivative directly, so no sign bookkeeping is
done by hand.

Only |t|_p^{-alpha} and pi_1^{-1}(t) vary with t, so
``predict_expansion(f, l, prime)`` builds the rest once: the Gamma jet
(via ``gamma_pi``, which hands trivial pi_1 to ``gamma_p``) or the
Bernoulli table, the predicted threshold exponent and the scale family.
Its ``AsymptoticPrediction.rhs(phi0, t)`` is the only place the
right-hand side is evaluated; ``rhs_predict`` is a one-shot wrapper.

One private function, ``_sweep``, runs every sweep: it validates the
t-grid (several unit directions per norm sphere), builds the prediction
once, compares the left side with the right-hand side row by row,
asserts equality beyond s(phi), and reports the empirically observed
stabilization threshold.  ``verify_stabilization`` takes the left side
from the exact split evaluator; ``erdelyi_check`` takes it, for
Re alpha > 0, from the absolutely convergent direct integral (no
regularization) -- the p-adic Erdelyi lemma.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import qp
from .characters import MultChar, NormedMultChar, eval_pi1
from .distributions import DiracDelta, PiAlphaLog, PLog, QahDistribution
from .errors import BadAlpha, StabilizationMismatch
from .gamma import bernoulli, gamma_pi, logp_scaled
from .jets import Jet, p_power_jet
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


def rank_of(f: QahDistribution) -> int:
    return f.pi1.k0 if isinstance(f, PiAlphaLog) else 0


def predicted_threshold_exponent(f: QahDistribution, l: int) -> int:
    """e with s(phi) = p^e: e = -l + k0."""
    return -l + rank_of(f)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """The theorem right-hand side of f for test functions of constancy
    level l: the coefficient jet (Gamma_p or Gamma_p(pi_alpha) with
    derivatives) or the Bernoulli term table, built once; the predicted
    stabilization exponent; and a description of the asymptotic scale
    family.  ``rhs`` evaluates it at one t."""

    f: QahDistribution
    prime: Prime
    s_pred_exponent: int
    scale_family: str
    gamma_jet: tuple[complex, ...] | None = None
    bernoulli_terms: tuple[Fraction, ...] | None = None

    def rhs(self, phi0: complex, t: Rational) -> complex:
        """The right-hand side at t (an exact equality for
        |t|_p > p^{s_pred_exponent}; callers may probe below it)."""
        t = Fraction(t)
        if t == 0:
            raise BadAlpha("t = 0 has no asymptotic side")
        m_exp = -qp.valuation(t, self.prime)
        f, p = self.f, self.prime.p

        if self.gamma_jet is not None:
            jet = Jet(self.gamma_jet) * p_power_jet(p, -m_exp, f.alpha, f.m)
            value = phi0 * logp_scaled(jet, p).coeffs[f.m]
            if not f.pi1.is_trivial():
                value *= eval_pi1(f.pi1, t).inverse().to_complex()
            return value

        if self.bernoulli_terms is None:
            return complex(phi0)

        # PLog(m) at pinning level 0, s = m - 1, M = log_p|t|_p: the printed
        # Bernoulli form, whose term signs fold into one factor because
        # B_r = 0 for odd r >= 3:
        # (-1)^{s+1} [(M-1)^s / p + (1-1/p) sum_{r<=s} C(s+1,r) B_r M^{s+1-r} / (s+1)]
        s = f.m - 1
        power_sum = sum(
            comb(s + 1, r) * b * Fraction(m_exp) ** (s + 1 - r)
            for r, b in enumerate(self.bernoulli_terms)
        )
        value = Fraction((m_exp - 1) ** s, p)
        value += (1 - Fraction(1, p)) * power_sum / (s + 1)
        return phi0 * complex((-1) ** (s + 1) * value)


def predict_expansion(
    f: QahDistribution, l: int, prime: Prime
) -> AsymptoticPrediction:
    e = predicted_threshold_exponent(f, l)
    if isinstance(f, DiracDelta):
        return AsymptoticPrediction(f, prime, e, "phi(0) (constant in t)")
    if isinstance(f, PLog):
        # PLog(m) is P(log^{m-1}|x|/|x|): it pairs with the degree-pi_0
        # expansion at log-exponent m-1, so PLog(1) is the P(1/|x|) case
        scale = (
            f"phi(0) * polynomial of degree {f.m} in log_p|t| "
            f"(PLog({f.m}) = P(log^{f.m - 1}|x|/|x|); Bernoulli terms B_0..B_{f.m - 1})"
        )
        return AsymptoticPrediction(
            f, prime, e, scale, bernoulli_terms=tuple(bernoulli(r) for r in range(f.m))
        )
    twist = "" if f.pi1.is_trivial() else " pi_1^-1(t)"
    scale = f"phi(0) * |t|^-alpha{twist} log_p^{{m-k}}|t|, k = 0..m"
    jet = gamma_pi(MultChar(f.alpha, f.pi1), f.m)
    return AsymptoticPrediction(f, prime, e, scale, gamma_jet=jet.coeffs)


def rhs_predict(
    f: QahDistribution, phi0: complex, l: int, t: Rational, prime: Prime
) -> complex:
    """The theorem right-hand side at one t; sweeps build the prediction
    once with :func:`predict_expansion` instead."""
    return predict_expansion(f, l, prime).rhs(phi0, t)


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
            w.writerow(
                [
                    r.M,
                    r.t_unit,
                    f"{r.J.real:.17g}",
                    f"{r.J.imag:.17g}",
                    f"{r.rhs.real:.17g}",
                    f"{r.rhs.imag:.17g}",
                    f"{r.abs_err:.17g}",
                    int(r.stabilized),
                    self.s_pred_exponent,
                    self.s_emp_exponent,
                ]
            )
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "theorem": self.theorem,
            "variant": self.variant,
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "m": self.m,
            "k0": self.k0,
            "l": self.l,
            "N": self.N,
            "tolerance_scale": self.tolerance_scale,
            "s_pred_exponent": self.s_pred_exponent,
            "s_emp_exponent": self.s_emp_exponent,
            "below_threshold_violation": self.below_threshold_violation,
            "ok": self.ok,
            "scale_family": self.scale_family,
            "rows": [
                {
                    "M": r.M,
                    "t_unit": r.t_unit,
                    "J": [r.J.real, r.J.imag],
                    "rhs": [r.rhs.real, r.rhs.imag],
                    "abs_err": r.abs_err,
                    "stabilized": r.stabilized,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "StabilizationReport":
        d = json.loads(text)
        rows = [
            ReportRow(
                M=r["M"],
                t_unit=r["t_unit"],
                J=complex(*r["J"]),
                rhs=complex(*r["rhs"]),
                abs_err=r["abs_err"],
                stabilized=r["stabilized"],
            )
            for r in d["rows"]
        ]
        return StabilizationReport(
            prime=d["prime"],
            theorem=d["theorem"],
            variant=d["variant"],
            alpha=tuple(d["alpha"]) if d["alpha"] is not None else None,
            m=d["m"],
            k0=d["k0"],
            l=d["l"],
            N=d["N"],
            tolerance_scale=d["tolerance_scale"],
            s_pred_exponent=d["s_pred_exponent"],
            s_emp_exponent=d["s_emp_exponent"],
            below_threshold_violation=d["below_threshold_violation"],
            ok=d["ok"],
            scale_family=d.get("scale_family", ""),
            rows=rows,
        )


def unit_directions(prime: Prime, count: int) -> list[int]:
    """The first ``count`` positive integers coprime to p (u = 1 first):
    the fixed residue set sampled on every norm sphere."""
    units = []
    u = 1
    while len(units) < count:
        if u % prime.p != 0:
            units.append(u)
        u += 1
    return units


def _max_workers() -> int:
    try:
        return max(1, int(os.environ.get("PADIC_THREADS", "1")))
    except ValueError:
        return 1


def _sweep_rows(evaluate, grid):
    workers = _max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate, grid))
    return [evaluate(g) for g in grid]


def _sweep(
    f: QahDistribution,
    phi: TestFunction,
    M_min: int,
    M_max: int,
    units_per_sphere: int,
    evaluate_J,
    theorem: str,
    tolerance_scale: float,
    strict: bool,
) -> StabilizationReport:
    """Compare evaluate_J(t) with the theorem right-hand side at every
    t = u p^{-M} of the grid and assemble the report."""
    if M_max < M_min:
        raise ValueError(f"empty sweep: M_max = {M_max} < M_min = {M_min}")
    if units_per_sphere < 1:
        raise ValueError("units_per_sphere must be >= 1")
    prime = phi.prime
    prediction = predict_expansion(f, phi.l, prime)
    units = unit_directions(prime, units_per_sphere)
    grid = [(M, u) for M in range(M_min, M_max + 1) for u in units]

    def evaluate(point):
        M, u = point
        t = Fraction(u) * Fraction(prime.p) ** (-M)
        J = evaluate_J(t)
        rhs = prediction.rhs(phi.at_zero, t)
        err = abs(J - rhs)
        tol = tolerance_scale * (1 + abs(rhs))
        return ReportRow(M, u, J, rhs, err, err < tol)

    rows = _sweep_rows(evaluate, grid)
    e_pred = prediction.s_pred_exponent
    failing = [r.M for r in rows if not r.stabilized]
    e_emp = max(failing, default=M_min - 1)
    ok = all(r.stabilized for r in rows if r.M > e_pred)
    k0 = rank_of(f)
    if k0 >= 1:
        below = any(
            not r.stabilized for r in rows if -phi.l < r.M <= e_pred
        )
    else:
        below = None
    alpha = None
    if isinstance(f, PiAlphaLog):
        alpha = (complex(f.alpha).real, complex(f.alpha).imag)
    report = StabilizationReport(
        prime=prime.p,
        theorem=theorem,
        variant=variant_name(f),
        alpha=alpha,
        m=f.m if not isinstance(f, DiracDelta) else 0,
        k0=k0,
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
        lambda t: singular_fourier(SingularIntegralRequest(f, phi, t, split_level)),
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
        lambda t: brute_force_oracle(SingularIntegralRequest(f, phi, t)),
        "erdelyi",
        tolerance_scale,
        strict,
    )
