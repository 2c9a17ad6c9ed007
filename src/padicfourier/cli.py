"""Command-line driver: exact evaluations and verification sweeps.

Subcommands
-----------
gamma      evaluate Gamma_p(alpha) and its alpha-derivatives
chi        evaluate the additive character chi_p(x)
bernoulli  print Bernoulli numbers (exact p/q alongside decimal)
fourier    Fourier-transform a configured test function (table output)
eval-dist  pair a configured distribution with a test function
singular   evaluate J(t) at one t (optionally cross-check the oracle)
verify     sweep a t-grid and verify the stabilized asymptotic formula
erdelyi    same sweep with the direct absolutely convergent integral

Exit codes: 0 success; 1 validation error (bad flags or config, with a
field-path message, a log order m or ``gamma --order`` above
``MAX_JET_ORDER``, a t-grid beyond ``MAX_GRID_EXPONENT`` or
``MAX_GRID_ROWS``, or a cell enumeration beyond 2^24 cosets); 2
verification failure inside the stabilized region; 3 numeric error (pole
proximity, or past the floating range: a power p^(c*alpha + b) or p^l, a
sphere's density or the oracle's sphere mass, a J, <f, phi>, F[phi] or
right-hand side, or the oracle's |cell| sum on a sphere).

Configs are JSON; the schema is documented in the README.  Every field is
read through ``_field``: it parses, or raises ``ConfigError`` with its
path.  Reports are CSV (fixed column schema) or JSON, to stdout or --out,
and identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import asymptotics, qp
from .asymptotics import (
    erdelyi_check,
    predict_expansion,
    theorem_family,
    verify_stabilization,
)
from .characters import chi as chi_value
from .characters import make_character, trivial_character
from .distributions import DiracDelta, PiAlphaLog, PLog, QahDistribution, apply
from .errors import NumericOverflow, PadicError, PoleProximity
from .gamma import bernoulli, gamma_p
from .jets import Jet
from .qp import Prime
from .singular import SingularIntegralRequest, brute_force_oracle, singular_fourier
from .testfn import TestFunction, delta_indicator, fourier

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_NUMERIC = 3

#: the largest log order m of a distribution and the largest ``gamma
#: --order``: a jet of order m costs O(m^2) per product
MAX_JET_ORDER = 64

#: bounds on a t-grid's |M_min|, |M_max| and row count: |M| <= 2500 bounds
#: PLog's exact Horner sums on rationals of size M^m and J0's factor gamma^m
#: (2501^64 is about 3e217)
MAX_GRID_EXPONENT = 2500
MAX_GRID_ROWS = 1024


class ConfigError(PadicError):
    """Invalid configuration; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _coset_label(w: int, p: int, N: int) -> str:
    """str(Fraction(w, p^N)), the coset representative of word w, from
    integers: w p^-N reduced by the powers of p that w holds."""
    if w == 0:
        return "0"
    v, unit = qp._split_power(w, p)
    return str(unit * p ** (v - N)) if v >= N else f"{unit}/{p ** (N - v)}"


def parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))  # ValueError otherwise
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def _integer(value) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _jet_order(value) -> int:
    m = _integer(value)
    if m > MAX_JET_ORDER:
        raise ValueError(f"order {m} exceeds the bound {MAX_JET_ORDER}")
    return m


def _real(value) -> float:
    x = float(value)
    if isinstance(value, bool) or not math.isfinite(x):
        raise ValueError(f"not a finite number: {value!r}")
    return x


def parse_complex(spec) -> complex:
    """A finite complex from a number, {re, im} or 'a+bi'."""
    if isinstance(spec, dict):
        return complex(_real(spec.get("re")), _real(spec.get("im", 0.0)))
    if not isinstance(spec, str):
        return complex(_real(spec))
    z = complex(spec.strip().replace("i", "j"))
    if not cmath.isfinite(z):
        raise ValueError(f"not a finite number: {spec!r}")
    return z


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"expected an object, got {value!r}")
    return value


def _parse(value, where: str, parse):
    """parse(value), with a parse failure a ConfigError naming ``where``."""
    try:
        return parse(value)
    except (TypeError, ValueError, ArithmeticError, PadicError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_REQUIRED = object()


def _field(cfg: dict, key: str, path: str, parse=lambda v: v, default=_REQUIRED):
    """cfg[key] read through ``parse``; ``default`` when the field is
    missing or null and has one, else a ConfigError naming path.key."""
    if cfg.get(key) is None and default is not _REQUIRED:
        return default
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required field")
    return _parse(cfg[key], f"{path}.{key}", parse)


def build_prime(cfg: dict) -> Prime:
    return _field(cfg, "prime", "config", lambda v: Prime(_integer(v)))


def build_character(prime: Prime, spec, path="config.character"):
    if spec is None:
        return trivial_character(prime)
    spec = _parse(spec, path, _object)
    if spec.get("kind") == "table":
        values = _field(spec, "values", path, _object)
        k0 = _field(spec, "modulus_exponent", path, _integer)
        angles = {
            _parse(u, f"{path}.values", _integer): _parse(
                a, f"{path}.values[{u}]", parse_rational
            )
            for u, a in values.items()
        }
        spec = dict(spec, modulus_exponent=k0, values=angles)
    return _parse(spec, path, lambda s: make_character(prime, s))


def build_distribution(prime: Prime, spec, path="config.distribution", top=None):
    # the flat form (alpha / m / character beside a bare variant name) is
    # accepted alongside the nested form
    if isinstance(spec, str):
        spec = {"variant": spec}
    flat = {key: top[key] for key in ("alpha", "m", "character") if key in (top or {})}
    spec = flat | _parse(spec, path, _object)
    variant = _field(spec, "variant", path)
    if variant == "delta":
        return DiracDelta()
    if variant == "p-log":
        return _field(spec, "m", path, lambda v: PLog(_jet_order(v)))
    if variant == "pi-alpha-log":
        alpha = _field(spec, "alpha", path, parse_complex)
        m = _field(spec, "m", path, _jet_order, default=0)
        pi1 = build_character(prime, spec.get("character"), f"{path}.character")
        try:
            return PiAlphaLog(alpha, pi1, m)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.variant: unknown variant {variant!r}")


def _coset_values(raw) -> np.ndarray:
    return np.array([complex(_real(x), _real(y)) for x, y in raw])


def build_test_function(prime: Prime, spec, path="config.test_function"):
    spec = _parse(spec, path, _object)
    kind = _field(spec, "kind", path)
    if kind == "delta":
        return delta_indicator(prime, _field(spec, "k", path, _integer))
    if kind == "table":
        N, l = (_field(spec, key, path, _integer) for key in ("N", "l"))
        values = _field(spec, "values", path, _coset_values)
        return _parse(values, f"{path}.values", lambda v: TestFunction(prime, N, l, v))
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}")


def load_config(pathname: str) -> dict:
    try:
        with open(pathname, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {pathname}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {pathname}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    return cfg


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"output: cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gamma(args) -> int:
    if not 0 <= args.order <= MAX_JET_ORDER:
        raise ConfigError(f"--order: must be in [0, {MAX_JET_ORDER}]")
    prime = _parse(args.p, "--p", Prime)
    alpha = _parse(args.alpha, "--alpha", parse_complex)
    jet = gamma_p(prime, alpha, args.order)
    lines = [f"Gamma_{args.p}({_fmt_complex(alpha)}) = {_fmt_complex(jet.value)}"]
    # the one place a theta-jet turns into d/dalpha: d^k = (ln p)^k theta^k
    d = Jet(tuple(math.log(prime.p) ** k * c for k, c in enumerate(jet.coeffs)))
    for k in range(1, args.order + 1):
        lines.append(f"d^{k}/dalpha^{k} = {_fmt_complex(d.coeffs[k])}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_chi(args) -> int:
    prime = _parse(args.p, "--p", Prime)
    x = _parse(args.x, "--x", parse_rational)
    value = chi_value(x, prime)
    z = value.to_complex()
    _write_output(
        f"chi_{args.p}({x}) = e^(2*pi*i*{value.angle}) = {_fmt_complex(z)}",
        args.out,
    )
    return EXIT_OK


def _cmd_bernoulli(args) -> int:
    if args.upto < 0:
        raise ConfigError("--upto: must be >= 0")
    lines = []
    for r in range(args.upto + 1):
        b = bernoulli(r)
        try:
            x = float(b)
        except OverflowError:
            raise NumericOverflow(f"B_{r} is beyond the floating range") from None
        lines.append(f"B_{r} = {b} = {_fmt(x)}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_fourier(args) -> int:
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    phi = build_test_function(prime, _field(cfg, "test_function", "config"))
    out = fourier(phi)
    lines = [f"# F[phi] in D^{out.l}_{out.N}(Q_{prime.p})", "coset,re,im"]
    values = zip(out.values.real.tolist(), out.values.imag.tolist())
    for w, (re, im) in enumerate(values):
        lines.append("%s,%.17g,%.17g" % (_coset_label(w, prime.p, out.N), re, im))
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _load(args) -> tuple[dict, Prime, QahDistribution, TestFunction]:
    """(cfg, prime, f, phi) from --config: the one route by which a command
    that pairs a distribution with a test function reads its inputs."""
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    f = build_distribution(prime, _field(cfg, "distribution", "config"), top=cfg)
    phi = build_test_function(prime, _field(cfg, "test_function", "config"))
    return cfg, prime, f, phi


def _cmd_eval_dist(args) -> int:
    _, _, f, phi = _load(args)
    _write_output(f"<f, phi> = {_fmt_complex(apply(f, phi))}", args.out)
    return EXIT_OK


def _cmd_singular(args) -> int:
    if args.refine < 0:
        raise ConfigError("--refine: must be >= 0")
    _, prime, f, phi = _load(args)
    t = _parse(args.t, "--t", parse_rational)
    req = SingularIntegralRequest(f, phi, t)
    J = singular_fourier(req)
    lines = [f"J(t = {t}) = {_fmt_complex(J)}"]
    if args.oracle:
        O = brute_force_oracle(req, refine=args.refine)
        lines.append(f"oracle    = {_fmt_complex(O)}")
        lines.append(f"|J - oracle| = {_fmt(abs(J - O))}")
    rhs = predict_expansion(f, phi.l, prime).on_grid(phi.at_zero, req._grid)[0]
    lines.append(f"rhs       = {_fmt_complex(rhs)}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _grid(cfg: dict) -> tuple[int, int, int]:
    grid = _field(cfg, "t_grid", "config", _object)
    M_min = _field(grid, "M_min", "config.t_grid", _integer)
    M_max = _field(grid, "M_max", "config.t_grid", _integer)
    units = _field(grid, "units_per_sphere", "config.t_grid", _integer, default=3)
    for key, M in (("M_min", M_min), ("M_max", M_max)):
        if abs(M) > MAX_GRID_EXPONENT:
            raise ConfigError(f"config.t_grid.{key}: |M| > {MAX_GRID_EXPONENT}")
    if M_max < M_min:
        raise ConfigError("config.t_grid: M_max < M_min")
    if units < 1:
        raise ConfigError("config.t_grid.units_per_sphere: must be >= 1")
    if (M_max - M_min + 1) * units > MAX_GRID_ROWS:
        raise ConfigError(
            f"config.t_grid: (M_max - M_min + 1) * units_per_sphere > {MAX_GRID_ROWS}"
        )
    return M_min, M_max, units


def _emit_report(report, cfg: dict, args) -> None:
    output_cfg = _field(cfg, "output", "config", _object, default={})
    fmt = args.format or output_cfg.get("format") or "csv"
    out = args.out or _field(output_cfg, "path", "config.output", os.fspath, None)
    if fmt == "json":
        _write_output(report.to_json(), out)
    elif fmt == "csv":
        _write_output(report.to_csv(), out)
    else:
        raise ConfigError(f"output.format: unknown format {fmt!r}")


def _cmd_sweep(args) -> int:
    cfg, _, f, phi = _load(args)
    erdelyi = args.command == "erdelyi"
    if erdelyi and not isinstance(f, PiAlphaLog):
        raise ConfigError(
            "config.distribution: the Erdelyi check needs variant pi-alpha-log"
        )
    family = theorem_family(f)
    if not erdelyi and args.theorem not in ("auto", family):
        raise ConfigError(
            f"--theorem {args.theorem} does not match the configured "
            f"distribution (family: {family})"
        )
    M_min, M_max, units = _grid(cfg)
    tol = _field(cfg, "tolerance", "config", _real, default=asymptotics.TOLERANCE_SCALE)
    if tol < 0:
        raise ConfigError("config.tolerance: must be >= 0")
    options = dict(units_per_sphere=units, tolerance_scale=tol, strict=False)
    if erdelyi:
        report = erdelyi_check(f.alpha, f.pi1, f.m, phi, M_min, M_max, **options)
    else:
        report = verify_stabilization(f, phi, M_min, M_max, **options)
    _emit_report(report, cfg, args)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-fourier",
        description="Exact p-adic singular Fourier integrals and their "
        "stabilized asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="evaluate Gamma_p(alpha) with derivatives")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--alpha", required=True)
    g.add_argument("--order", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gamma)

    c = sub.add_parser("chi", help="evaluate the additive character chi_p(x)")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--x", required=True, help="exact rational a/b")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_chi)

    b = sub.add_parser("bernoulli", help="Bernoulli numbers B_0..B_n")
    b.add_argument("--upto", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=_cmd_bernoulli)

    fo = sub.add_parser("fourier", help="Fourier-transform a test function")
    fo.add_argument("--config", required=True)
    fo.add_argument("--out")
    fo.set_defaults(func=_cmd_fourier)

    ev = sub.add_parser("eval-dist", help="pair a distribution with a test function")
    ev.add_argument("--config", required=True)
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_eval_dist)

    si = sub.add_parser("singular", help="evaluate the singular integral J(t)")
    si.add_argument("--config", required=True)
    si.add_argument("--t", required=True, help="exact rational a/b, t != 0")
    si.add_argument("--oracle", action="store_true", help="cross-check J by brute force")
    si.add_argument("--refine", type=int, default=0)
    si.add_argument("--out")
    si.set_defaults(func=_cmd_singular)

    ve = sub.add_parser("verify", help="verify the stabilized asymptotics on a t-grid")
    ve.add_argument("--config", required=True)
    ve.add_argument(
        "--theorem",
        default="auto",
        choices=["auto", "unramified", "principal-log", "ramified"],
    )
    ve.add_argument("--format", choices=["csv", "json"])
    ve.add_argument("--out")
    ve.set_defaults(func=_cmd_sweep)

    er = sub.add_parser("erdelyi", help="p-adic Erdelyi lemma check (Re alpha > 0)")
    er.add_argument("--config", required=True)
    er.add_argument("--format", choices=["csv", "json"])
    er.add_argument("--out")
    er.set_defaults(func=_cmd_sweep)

    return parser


#: built once per process: building takes some 20 times as long as a parse
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PoleProximity, NumericOverflow) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
