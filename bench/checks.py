"""Correctness checks for benchmark operations, run outside the timed region.

Every check takes the operation's result as its last argument and either
returns the number of evaluations the operation completed or raises
``CheckFailed``.  Reference values come from a second
evaluation path (the brute-force oracle for split-evaluator rows, the
split evaluator for oracle rows, direct exact character sums for Fourier
values) and are cached per operation, so each run pays for a reference
once however often the operation repeats.  The tracer is paused while a
check runs, so reference work never lands in the per-layer figures.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import padicfourier as pf

#: |a - b| <= REL_TOL * (1 + |reference|) counts as agreement
REL_TOL = 1e-9

#: rows re-evaluated on the other path, per sweep
SAMPLE_ROWS = 2

_COMPLEX = re.compile(
    r"^([+-]?(?:[0-9.]+(?:e[+-]?[0-9]+)?|inf|nan))([+-])([0-9.]+(?:e[+-]?[0-9]+)?|inf|nan)i$"
)


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def agree(value: complex, reference: complex, what: str) -> None:
    if not abs(value - reference) <= REL_TOL * (1 + abs(reference)):
        raise CheckFailed(
            f"{what}: got {value!r}, reference {reference!r} "
            f"(|diff| = {abs(value - reference):.3e})"
        )


def parse_complex(text: str) -> complex:
    """Inverse of the CLI's 'a+bi' / 'a-bi' format."""
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise CheckFailed(f"not a complex number: {text!r}")
    re_part, sign, im_part = m.groups()
    im = float(im_part)
    return complex(float(re_part), im if sign == "+" else -im)


def unit_directions(p: int, count: int) -> list[int]:
    """The first ``count`` positive integers coprime to p, the documented
    per-sphere direction set of a sweep."""
    units, u = [], 1
    while len(units) < count:
        if u % p:
            units.append(u)
        u += 1
    return units


class Reference:
    """Memoized second-path values for one operation."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


# ---------------------------------------------------------------------------
# sweeps (verify / erdelyi)


class SweepSpec:
    """What one sweep was asked to do, kept by the benchmark so the output
    can be checked without trusting the program's own bookkeeping."""

    def __init__(self, f, phi, M_min, M_max, units, threshold, other_path, sample):
        self.f = f
        self.phi = phi
        self.M_min = M_min
        self.M_max = M_max
        self.units = units
        self.threshold = threshold  # predicted exponent e = -l + k0
        self.other_path = other_path  # "oracle" or "split"
        self.sample = sample  # row indices re-evaluated on the other path
        self.ref = Reference()

    def grid(self) -> list[tuple[int, int]]:
        us = unit_directions(self.phi.prime.p, self.units)
        return [(M, u) for M in range(self.M_min, self.M_max + 1) for u in us]

    def other_value(self, M: int, u: int) -> complex:
        def compute():
            t = Fraction(u) * Fraction(self.phi.prime.p) ** (-M)
            req = pf.SingularIntegralRequest(self.f, self.phi, t)
            if self.other_path == "oracle":
                return pf.brute_force_oracle(req)
            return pf.singular_fourier(req)

        return self.ref.get((M, u), compute)


def check_sweep_rows(spec: SweepSpec, rows, s_pred: int, ok: bool) -> int:
    """rows: (M, u, J, rhs) tuples in report order."""
    grid = spec.grid()
    if [(M, u) for M, u, _, _ in rows] != grid:
        raise CheckFailed(f"report grid differs from the requested {len(grid)} points")
    if s_pred != spec.threshold:
        raise CheckFailed(f"s_pred_exponent {s_pred}, expected {spec.threshold}")
    if not ok:
        raise CheckFailed("report.ok is false")
    for M, u, J, rhs in rows:
        if M > spec.threshold:
            agree(J, rhs, f"stabilized row M={M} u={u}: J vs rhs")
    for i in spec.sample:
        M, u, J, _ = rows[i]
        agree(J, spec.other_value(M, u), f"row M={M} u={u}: J vs {spec.other_path}")
    return len(rows)


def check_report(spec: SweepSpec, report) -> int:
    """A StabilizationReport returned by the library."""
    rows = [(r.M, r.t_unit, r.J, r.rhs) for r in report.rows]
    return check_sweep_rows(spec, rows, report.s_pred_exponent, report.ok)


def check_report_file(spec: SweepSpec, out: Path, fmt: str, exit_code: int) -> int:
    """A CSV or JSON report written by ``padic-fourier verify|erdelyi``."""
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        d = json.loads(text)
        rows = [
            (r["M"], r["t_unit"], complex(*r["J"]), complex(*r["rhs"]))
            for r in d["rows"]
        ]
        return check_sweep_rows(spec, rows, d["s_pred_exponent"], d["ok"])
    records = list(csv.DictReader(io.StringIO(text)))
    rows = [
        (
            int(r["M"]),
            int(r["t_unit"]),
            complex(float(r["J_re"]), float(r["J_im"])),
            complex(float(r["rhs_re"]), float(r["rhs_im"])),
        )
        for r in records
    ]
    if not records:
        raise CheckFailed("empty CSV report")
    s_pred = int(records[0]["s_pred_exponent"])
    ok = all(r["stabilized"] == "1" for r in records if int(r["M"]) > s_pred)
    return check_sweep_rows(spec, rows, s_pred, ok)


# ---------------------------------------------------------------------------
# single-point singular integrals


def check_singular_file(f, phi, t: Fraction, threshold: int, out: Path, ref, exit_code) -> int:
    """``padic-fourier singular --oracle``: J against the oracle line, the
    split evaluator, and (above the threshold) the theorem right-hand side."""
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    fields = {}
    for line in out.read_text(encoding="utf-8").splitlines():
        key, _, value = line.rpartition(" = ")
        fields[key.split("(")[0].strip()] = value
    try:
        J, oracle, rhs = (parse_complex(fields[k]) for k in ("J", "oracle", "rhs"))
    except KeyError as exc:
        raise CheckFailed(f"missing output line {exc}") from None
    agree(J, oracle, "J vs oracle line")
    split = ref.get("split", lambda: pf.singular_fourier(pf.SingularIntegralRequest(f, phi, t)))
    agree(J, split, "J vs split evaluator")
    M = -valuation(t, phi.prime.p)
    if M > threshold:
        agree(J, rhs, f"stabilized point M={M}: J vs rhs")
    return 1


def valuation(x: Fraction, p: int) -> int:
    """The p-adic valuation of a nonzero rational."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# transforms and pairings


def direct_fourier(phi, xi: Fraction) -> complex:
    """F[phi](xi) = p^l sum_c phi(c) chi_p(xi c), summed term by term with
    exact character angles (no DFT matrix); valid for |xi|_p <= p^-l."""
    prime = phi.prime
    total = 0j
    for c, v in zip(pf.enumerate_cosets(prime, phi.N, phi.l), phi.values):
        if v != 0:
            total += complex(v) * pf.chi(xi * c, prime).to_complex()
    return total * float(Fraction(prime.p) ** phi.l)


def sample_points(prime, N: int, l: int, idx: list[int]) -> list[Fraction]:
    reps = pf.enumerate_cosets(prime, N, l)
    return [reps[i % len(reps)] for i in idx]


def check_fourier(phi, idx, ref, out) -> int:
    if (out.N, out.l) != (-phi.l, -phi.N):
        raise CheckFailed(f"F[phi] window {(out.N, out.l)}, expected {(-phi.l, -phi.N)}")
    for xi in sample_points(phi.prime, out.N, out.l, idx):
        agree(out.at(xi), ref.get(xi, lambda: direct_fourier(phi, xi)), f"F[phi]({xi})")
    return 1


def check_fourier_file(phi, out: Path, idx, ref, exit_code) -> int:
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    lines = out.read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines[2:]]
    if len(body) != len(phi.values):
        raise CheckFailed(f"{len(body)} table rows, expected {len(phi.values)}")
    for i in idx:
        rep, re_part, im_part = body[i % len(body)]
        xi = Fraction(rep)
        value = complex(float(re_part), float(im_part))
        agree(value, ref.get(xi, lambda: direct_fourier(phi, xi)), f"F[phi]({xi})")
    return 1


def check_convolve(phi, psi, idx, ref, out) -> int:
    """Convolution theorem F[phi * psi] = F[phi] F[psi] at sampled points."""
    N, l = max(phi.N, psi.N), max(phi.l, psi.l)
    if (out.N, out.l) != (N, l):
        raise CheckFailed(f"convolution window {(out.N, out.l)}, expected {(N, l)}")
    for xi in sample_points(phi.prime, -l, -N, idx):
        want = ref.get(xi, lambda: direct_fourier(phi, xi) * direct_fourier(psi, xi))
        agree(direct_fourier(out, xi), want, f"F[phi*psi]({xi})")
    return 1


def check_dilate(phi, t: Fraction, idx, out) -> int:
    a = -valuation(t, phi.prime.p)
    if (out.N, out.l) != (phi.N + a, phi.l + a):
        raise CheckFailed(f"dilation window {(out.N, out.l)}")
    for x in sample_points(phi.prime, out.N, out.l, idx):
        agree(out.at(x), phi.at(x / t), f"phi(x/t) at x={x}")
    return 1


def pairing_reference(f, phi) -> complex:
    """<f, phi> as the oracle's J(t) at a t so small that chi_p(xt) == 1 on
    B_max(N, 0), which covers phi's support and the unit-ball pinning."""
    t = Fraction(phi.prime.p) ** (max(phi.N, 0) + 1)
    return pf.brute_force_oracle(pf.SingularIntegralRequest(f, phi, t))


def check_apply(f, phi, ref, value) -> int:
    agree(value, ref.get("pairing", lambda: pairing_reference(f, phi)), "<f, phi> vs oracle")
    return 1


def check_eval_dist_file(f, phi, out: Path, ref, exit_code) -> int:
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    _, _, value = out.read_text(encoding="utf-8").strip().rpartition(" = ")
    return check_apply(f, phi, ref, parse_complex(value))


def check_homogeneity(f, phi, t: Fraction, ref, defect) -> int:
    """The scaling law holds: the defect vanishes relative to <f, phi(x/t)>."""
    scale = ref.get("scale", lambda: abs(pairing_reference(f, pf.dilate(phi, t))))
    if not abs(defect) <= REL_TOL * (1 + scale):
        raise CheckFailed(f"homogeneity defect {abs(defect):.3e} at scale {scale:.3e}")
    return 1
