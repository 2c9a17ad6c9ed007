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
field-path message, or a cell enumeration beyond 2^24 cosets); 2
verification failure inside the stabilized region; 3 numeric error (pole
proximity, non-stabilized Gamma sum).

Configs are JSON; the schema is documented in the README.  Reports are
CSV (fixed column schema) or JSON, to stdout or --out, and identical
configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import asymptotics, qp
from .asymptotics import (
    erdelyi_check,
    rhs_predict,
    theorem_family,
    verify_stabilization,
)
from .characters import chi as chi_value
from .characters import make_character, trivial_character
from .distributions import DiracDelta, PiAlphaLog, PLog, apply
from .errors import PadicError, PoleProximity, NotStabilized
from .gamma import bernoulli, gamma_p
from .qp import Prime
from .singular import SingularIntegralRequest, brute_force_oracle, singular_fourier
from .testfn import TestFunction, delta_indicator, fourier

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_NUMERIC = 3


class ConfigError(PadicError):
    """Invalid configuration; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def parse_rational(text, path="value") -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}: not a rational 'a/b': {text!r}") from exc


def parse_complex(spec, path="alpha") -> complex:
    if isinstance(spec, (int, float)):
        return complex(spec)
    if isinstance(spec, dict):
        try:
            return complex(float(spec["re"]), float(spec.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: expected {{re, im}}, got {spec!r}") from exc
    if isinstance(spec, str):
        text = spec.strip().replace("i", "j")
        try:
            return complex(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a complex 'a+bi': {spec!r}") from exc
    raise ConfigError(f"{path}: cannot parse complex from {spec!r}")


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required field")
    return cfg[key]


def build_prime(cfg: dict) -> Prime:
    try:
        return Prime(int(_require(cfg, "prime", "config")))
    except ValueError as exc:
        raise ConfigError(f"config.prime: {exc}") from exc


def build_character(prime: Prime, spec, path="config.character"):
    if spec is None:
        return trivial_character(prime)
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    if spec.get("kind") == "table":
        values = _require(spec, "values", path)
        spec = dict(spec)
        spec["values"] = {
            u: parse_rational(a, f"{path}.values[{u}]") for u, a in values.items()
        }
    try:
        return make_character(prime, spec)
    except PadicError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_distribution(prime: Prime, spec, path="config.distribution", top=None):
    # the flat form (alpha / m / character beside a bare variant name) is
    # accepted alongside the nested form
    top = top or {}
    if isinstance(spec, str):
        spec = {"variant": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object or variant name")
    spec = dict(spec)
    for key in ("alpha", "m", "character"):
        if key not in spec and key in top:
            spec[key] = top[key]
    variant = _require(spec, "variant", path)
    if variant == "delta":
        return DiracDelta()
    if variant == "p-log":
        m = int(_require(spec, "m", path))
        try:
            return PLog(m)
        except ValueError as exc:
            raise ConfigError(f"{path}.m: {exc}") from exc
    if variant == "pi-alpha-log":
        alpha = parse_complex(_require(spec, "alpha", path), f"{path}.alpha")
        m = int(spec.get("m", 0))
        pi1 = build_character(prime, spec.get("character"), f"{path}.character")
        try:
            return PiAlphaLog(alpha, pi1, m)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.variant: unknown variant {variant!r}")


def build_test_function(prime: Prime, spec: dict, path="config.test_function"):
    kind = _require(spec, "kind", path)
    if kind == "delta":
        return delta_indicator(prime, int(_require(spec, "k", path)))
    if kind == "table":
        N = int(_require(spec, "N", path))
        l = int(_require(spec, "l", path))
        raw = _require(spec, "values", path)
        try:
            values = [complex(float(re), float(im)) for re, im in raw]
            return TestFunction(prime, N, l, values)
        except (TypeError, ValueError, PadicError) as exc:
            raise ConfigError(f"{path}.values: {exc}") from exc
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
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gamma(args) -> int:
    prime = Prime(args.p)
    alpha = parse_complex(args.alpha, "--alpha")
    jet = gamma_p(prime, alpha, args.order)
    lines = [f"Gamma_{args.p}({_fmt_complex(alpha)}) = {_fmt_complex(jet.value)}"]
    for k in range(1, args.order + 1):
        lines.append(f"d^{k}/dalpha^{k} = {_fmt_complex(jet.coeffs[k])}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_chi(args) -> int:
    prime = Prime(args.p)
    x = parse_rational(args.x, "--x")
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
        lines.append(f"B_{r} = {b} = {_fmt(float(b))}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_fourier(args) -> int:
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    phi = build_test_function(prime, _require(cfg, "test_function", "config"))
    out = fourier(phi)
    lines = [f"# F[phi] in D^{out.l}_{out.N}(Q_{prime.p})", "coset,re,im"]
    for rep, v in zip(qp.enumerate_cosets(prime, out.N, out.l), out.values):
        lines.append(f"{rep},{_fmt(v.real)},{_fmt(v.imag)}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_eval_dist(args) -> int:
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    f = build_distribution(prime, _require(cfg, "distribution", "config"), top=cfg)
    phi = build_test_function(prime, _require(cfg, "test_function", "config"))
    value = apply(f, phi)
    _write_output(f"<f, phi> = {_fmt_complex(value)}", args.out)
    return EXIT_OK


def _cmd_singular(args) -> int:
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    f = build_distribution(prime, _require(cfg, "distribution", "config"), top=cfg)
    phi = build_test_function(prime, _require(cfg, "test_function", "config"))
    t = parse_rational(args.t, "--t")
    split = args.split_level
    if split is None:
        split = cfg.get("split_level")
    try:
        req = SingularIntegralRequest(f, phi, t, split)
    except PadicError as exc:
        raise ConfigError(str(exc)) from exc
    J = singular_fourier(req)
    lines = [f"J(t = {t}) = {_fmt_complex(J)}"]
    if args.oracle:
        O = brute_force_oracle(req, refine=args.refine)
        lines.append(f"oracle    = {_fmt_complex(O)}")
        lines.append(f"|J - oracle| = {_fmt(abs(J - O))}")
    rhs = rhs_predict(f, phi.at_zero, phi.l, t, prime)
    lines.append(f"rhs       = {_fmt_complex(rhs)}")
    _write_output("\n".join(lines), args.out)
    return EXIT_OK


def _grid(cfg: dict) -> tuple[int, int, int]:
    grid = _require(cfg, "t_grid", "config")
    M_min = int(_require(grid, "M_min", "config.t_grid"))
    M_max = int(_require(grid, "M_max", "config.t_grid"))
    units = int(grid.get("units_per_sphere", 3))
    if M_max < M_min:
        raise ConfigError("config.t_grid: M_max < M_min")
    if units < 1:
        raise ConfigError("config.t_grid.units_per_sphere: must be >= 1")
    return M_min, M_max, units


def _emit_report(report, cfg: dict, args) -> None:
    output_cfg = cfg.get("output") or {}
    fmt = args.format or output_cfg.get("format") or "csv"
    out = args.out or output_cfg.get("path")
    if fmt == "json":
        _write_output(report.to_json(), out)
    elif fmt == "csv":
        _write_output(report.to_csv(), out)
    else:
        raise ConfigError(f"output.format: unknown format {fmt!r}")


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    prime = build_prime(cfg)
    f = build_distribution(prime, _require(cfg, "distribution", "config"), top=cfg)
    erdelyi = args.command == "erdelyi"
    if erdelyi and not isinstance(f, PiAlphaLog):
        raise ConfigError(
            "config.distribution: the Erdelyi check needs variant pi-alpha-log"
        )
    phi = build_test_function(prime, _require(cfg, "test_function", "config"))
    family = theorem_family(f)
    if not erdelyi and args.theorem not in ("auto", family):
        raise ConfigError(
            f"--theorem {args.theorem} does not match the configured "
            f"distribution (family: {family})"
        )
    M_min, M_max, units = _grid(cfg)
    tol = cfg.get("tolerance")
    options = dict(
        units_per_sphere=units,
        tolerance_scale=asymptotics.TOLERANCE_SCALE if tol is None else float(tol),
        strict=False,
    )
    if erdelyi:
        report = erdelyi_check(f.alpha, f.pi1, f.m, phi, M_min, M_max, **options)
    else:
        report = verify_stabilization(
            f, phi, M_min, M_max, split_level=cfg.get("split_level"), **options
        )
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
    si.add_argument("--split-level", type=int, default=None)
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PoleProximity, NotStabilized) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PadicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
