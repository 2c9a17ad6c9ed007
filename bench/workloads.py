"""Seeded inputs for the four benchmark workloads.

A workload is a fixed list of operation *shapes*: prime, theorem family,
order m, window position and width, grid depth, output format and call
kind, and their order.  The seed draws everything else: test-function
values, alpha, which primitive character a table holds, and the sampled
directions and check points.  So the same seed gives the same inputs,
and different seeds give different inputs of the same cost, which keeps
run-to-run spread low.

Each operation is one top-level call into the program, either through
``padicfourier.cli.run`` with a generated config file or through the
public library API.  Calls look their target up on the module at call
time, so the tracer's rebinding takes effect.  The program never sees a
workload name.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import padicfourier as pf
from padicfourier import cli

import checks
from checks import Reference, SweepSpec


@dataclass
class Op:
    """One timed call and the untimed check of its result."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], int]  # evaluations completed, or CheckFailed


class Inputs:
    """Seeded draws plus the directory that holds config and output files."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.nprng = np.random.default_rng(seed)
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._files = 0

    def testfn(self, p: int, N: int, l: int) -> pf.TestFunction:
        n = p ** (N - l)
        radius = np.sqrt(self.nprng.uniform(size=n))
        angle = self.nprng.uniform(0.0, 2.0 * np.pi, size=n)
        return pf.TestFunction(pf.Prime(p), N, l, radius * np.exp(1j * angle))

    def alpha(self, re_lo: float, re_hi: float) -> dict:
        return {
            "re": round(self.rng.uniform(re_lo, re_hi), 4),
            "im": round(self.rng.uniform(-1.0, 1.0), 4),
        }

    def character(self, p: int, kind: str) -> dict:
        if kind in ("trivial", "quadratic"):
            return {"kind": kind}
        return primitive_table(self.rng, p, 2)

    def rows(self, M_min: int, M_max: int, units: int, threshold: int, other_path: str) -> list[int]:
        """Seeded rows of a sweep to re-evaluate on the other path.  Oracle
        rows come from at or below the threshold, where the oracle cuts no
        more cells than the evaluator, so the check does not raise the
        process's peak RSS; rows above it are checked against the rhs."""
        top = min(M_max, threshold) if other_path == "oracle" else M_max
        count = (top - M_min + 1) * units
        return sorted(self.rng.sample(range(count), min(checks.SAMPLE_ROWS, count)))

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.workdir / f"op{self._files:04d}.{suffix}"

    def config(self, cfg: dict) -> str:
        path = self.path("json")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)


def primitive_table(rng: random.Random, p: int, k0: int) -> dict:
    """A random character of (Z/p^k0)^* of rank exactly k0 (p odd), as a
    table spec: pi_1(g^j) = e^(2 pi i a j / phi) with p not dividing a."""
    mod = p**k0
    order = mod - mod // p
    g = next(g for g in range(2, mod) if g % p and _order(g, mod) == order)
    a = rng.choice([a for a in range(1, order) if a % p])
    values = {}
    x = 1
    for j in range(order):
        values[str(x)] = str(Fraction(a * j, order) % 1)
        x = x * g % mod
    return {"kind": "table", "modulus_exponent": k0, "values": values}


def _order(g: int, mod: int) -> int:
    k, x = 1, g
    while x != 1:
        x = x * g % mod
        k += 1
    return k


def build_f(p: int, dist: dict):
    """The library object for a CLI distribution spec."""
    if dist["variant"] == "p-log":
        return pf.PLog(dist["m"])
    alpha = complex(dist["alpha"]["re"], dist["alpha"]["im"])
    chr_ = pf.make_character(pf.Prime(p), dist["character"])
    return pf.PiAlphaLog(alpha, chr_, dist["m"])


def rank_of(dist: dict) -> int:
    if dist["variant"] == "p-log" or dist["character"]["kind"] == "trivial":
        return 0
    return 1 if dist["character"]["kind"] == "quadratic" else dist["character"]["modulus_exponent"]


def table_spec(phi: pf.TestFunction) -> dict:
    return {
        "kind": "table",
        "N": phi.N,
        "l": phi.l,
        "values": [[float(z.real), float(z.imag)] for z in phi.values],
    }


def _cli(argv: list[str]) -> int:
    return cli.run(argv)


def _lib(name: str, *args, **kwargs):
    """Call ``padicfourier.<name>`` looked up now, not when the operation
    was built, so the tracer's wrapper is the one called."""
    return getattr(pf, name)(*args, **kwargs)


def _cli_sweep(inp: Inputs, command: str, fmt: str, p: int, dist: dict, phi,
               M_min, M_max, units, other_path) -> Op:
    cfg = {
        "prime": p,
        "distribution": dist,
        "test_function": table_spec(phi),
        "t_grid": {"M_min": M_min, "M_max": M_max, "units_per_sphere": units},
    }
    out = inp.path(fmt)
    argv = [command, "--config", inp.config(cfg), "--format", fmt, "--out", str(out)]
    if command == "verify":
        argv[1:1] = ["--theorem", "auto"]
    threshold = -phi.l + rank_of(dist)
    spec = SweepSpec(
        build_f(p, dist), phi, M_min, M_max, units, threshold, other_path,
        inp.rows(M_min, M_max, units, threshold, other_path),
    )
    return Op(
        f"{command} p={p} {dist['variant']} m={dist['m']} N-l={phi.N - phi.l}",
        partial(_cli, argv),
        partial(checks.check_report_file, spec, out, fmt),
    )


# ---------------------------------------------------------------------------
# narrow-theorems: many short `padic-fourier verify` sweeps

#: (p, character kind or "p-log", m, N, report format); one sweep each per
#: pass, windows p^(N-l) <= 81 cosets
NARROW_SHAPES = [
    (2, "trivial", 0, 0, "csv"), (2, "trivial", 2, 1, "json"),
    (3, "trivial", 1, -1, "csv"), (3, "trivial", 3, 2, "json"),
    (5, "trivial", 0, 1, "json"), (5, "trivial", 2, 0, "csv"),
    (2, "p-log", 1, 2, "json"), (3, "p-log", 2, 0, "csv"),
    (5, "p-log", 3, -1, "csv"), (3, "p-log", 4, 1, "json"),
    (3, "quadratic", 0, 1, "csv"), (3, "quadratic", 1, 0, "json"),
    (5, "quadratic", 0, 2, "csv"), (5, "quadratic", 1, -1, "json"),
    (3, "table", 0, 2, "csv"), (3, "table", 1, -1, "json"),
]
NARROW_WIDTH = {2: 6, 3: 4, 5: 2}


def narrow_theorems(inp: Inputs) -> list[Op]:
    ops = []
    for p, kind, m, N, fmt in NARROW_SHAPES:
        dist = _dist(inp, p, kind, m)
        phi = inp.testfn(p, N, N - NARROW_WIDTH[p])
        e = -phi.l + rank_of(dist)
        ops.append(_cli_sweep(inp, "verify", fmt, p, dist, phi, e - 3, e + 3, 3, "oracle"))
    return ops


# ---------------------------------------------------------------------------
# wide-window: a few long library sweeps, trivial pi_1, 3^8..3^10 cosets

#: (N - l, "p-log" or "trivial", m, N); p = 3
WIDE_SHAPES = [
    (8, "trivial", 0, 0), (8, "p-log", 1, 1), (8, "trivial", 2, 2), (8, "trivial", 1, 1),
    (9, "trivial", 1, 0), (9, "p-log", 2, 1), (9, "trivial", 0, 2), (9, "trivial", 2, 1),
    (10, "trivial", 0, 1), (10, "p-log", 1, 0),
]


def wide_window(inp: Inputs) -> list[Op]:
    ops = []
    for width, kind, m, N in WIDE_SHAPES:
        f = build_f(3, _dist(inp, 3, kind, m))
        phi = inp.testfn(3, N, N - width)
        # below the threshold -l every ball integral is enumerated;
        # above it the sums are exact zeros
        e = -phi.l
        M_min, M_max, units = e - 3, e + 1, 3
        spec = SweepSpec(
            f, phi, M_min, M_max, units, e, "oracle",
            inp.rows(M_min, M_max, units, e, "oracle"),
        )
        ops.append(Op(
            f"verify_stabilization N-l={width}",
            partial(_lib, "verify_stabilization", f, phi, M_min, M_max,
                    units_per_sphere=units, strict=False),
            partial(checks.check_report, spec),
        ))
    return ops


# ---------------------------------------------------------------------------
# oracle-deep: `padic-fourier erdelyi` sweeps and `singular --oracle` calls

#: erdelyi sweeps: (p, character kind, m, N, N - l, depth N + M_max, format)
ERDELYI_SHAPES = [
    (3, "trivial", 0, 0, 2, 9, "csv"), (3, "trivial", 1, 1, 2, 10, "json"),
    (3, "quadratic", 0, 1, 2, 10, "csv"), (2, "trivial", 1, 0, 3, 16, "json"),
    (5, "trivial", 0, 1, 1, 7, "json"), (5, "quadratic", 1, 0, 1, 7, "csv"),
]
#: singular points: (p, character kind, m, N, N - l, depth N + M, refine).
#: The top sphere is cut into p^(depth + refine) cells; that stays at or
#: below 3^11, so no per-call array reaches the 4 MiB at which numpy asks
#: the kernel for huge pages, which it grants or not from run to run.
SINGULAR_SHAPES = [
    (3, "trivial", 0, 0, 2, 10, 0), (3, "quadratic", 1, 1, 2, 10, 0),
    (3, "trivial", 1, 1, 2, 10, 1), (3, "trivial", 0, 1, 2, 11, 0),
    (2, "trivial", 0, 0, 3, 16, 1), (5, "trivial", 1, 1, 1, 7, 0),
    (3, "quadratic", 0, 0, 2, 10, 1), (3, "trivial", 1, 0, 2, 11, 0),
]


def oracle_deep(inp: Inputs) -> list[Op]:
    # Erdelyi needs Re alpha > 0
    ops = []
    for p, kind, m, N, width, depth, fmt in ERDELYI_SHAPES:
        dist = _dist(inp, p, kind, m, re_lo=0.5, re_hi=2.0)
        phi = inp.testfn(p, N, N - width)
        e = -phi.l + rank_of(dist)
        ops.append(_cli_sweep(inp, "erdelyi", fmt, p, dist, phi, e - 1, depth - N, 2, "split"))
    for p, kind, m, N, width, depth, refine in SINGULAR_SHAPES:
        dist = _dist(inp, p, kind, m, re_lo=0.5, re_hi=2.0)
        phi = inp.testfn(p, N, N - width)
        u = inp.rng.choice(checks.unit_directions(p, 4))
        t = Fraction(u, p ** (depth - N))
        cfg = {"prime": p, "distribution": dist, "test_function": table_spec(phi)}
        out = inp.path("txt")
        argv = ["singular", "--config", inp.config(cfg), "--t", str(t),
                "--oracle", "--refine", str(refine), "--out", str(out)]
        f, ref = build_f(p, dist), Reference()
        threshold = -phi.l + rank_of(dist)
        ops.append(Op(
            f"singular --oracle p={p} depth={depth} refine={refine}",
            partial(_cli, argv),
            partial(checks.check_singular_file, f, phi, t, threshold, out, ref),
        ))
    return ops


# ---------------------------------------------------------------------------
# transforms: testfn and distributions, through the library and the CLI


def transforms(inp: Inputs) -> list[Op]:
    ops = []

    def points(n):
        return [inp.rng.randrange(n) for _ in range(3)]

    positions = itertools.cycle([-1, 0, 1, 2])

    def window(p, width):
        N = next(positions)
        return inp.testfn(p, N, N - width)

    # Fourier transforms, up to the 4096-coset dense-matrix cap
    for p, width in [(2, 12), (2, 12), (3, 6), (3, 6), (5, 4), (5, 4)]:
        phi, ref = window(p, width), Reference()
        ops.append(Op(
            f"fourier p={p} N-l={width}", partial(_lib, "fourier", phi),
            partial(checks.check_fourier, phi, points(p**width), ref),
        ))
    # convolutions (a double loop over cosets).  convolve(phi, psi) is only
    # right when phi's constancy level is at most psi's (it samples psi once
    # per phi-coset); the operands are ordered that way, see README.md.
    for p, w1, w2 in [(3, 2, 4), (3, 2, 4), (2, 4, 6), (2, 4, 6), (5, 1, 3)]:
        psi = window(p, w2)
        l1 = psi.l - next(positions) % 2
        phi, ref = inp.testfn(p, l1 + w1, l1), Reference()
        ops.append(Op(
            f"convolve p={p} {w1}x{w2}", partial(_lib, "convolve", phi, psi),
            partial(checks.check_convolve, phi, psi, points(p**w2), ref),
        ))
    # dilations by t = u p^(+-1)
    for p, width in [(3, 5), (3, 5), (2, 7), (2, 7)]:
        phi = window(p, width)
        t = Fraction(inp.rng.choice(checks.unit_directions(p, 3))) * Fraction(p) ** (next(positions) % 2 * 2 - 1)
        ops.append(Op(
            f"dilate p={p} N-l={width}", partial(_lib, "dilate", phi, t),
            partial(checks.check_dilate, phi, t, points(p**width)),
        ))
    # pairings and the graded scaling law
    pairing_shapes = [
        (3, "trivial", 0), (3, "trivial", 2), (5, "quadratic", 1), (3, "table", 0),
        (2, "p-log", 1), (3, "p-log", 3), (5, "trivial", 1), (3, "quadratic", 2),
    ]
    for i, (p, kind, m) in enumerate(pairing_shapes):
        dist = _dist(inp, p, kind, m)
        f, phi, ref = build_f(p, dist), window(p, 4 if p == 3 else 3), Reference()
        ops.append(Op(
            f"apply p={p} {kind} m={m}", partial(_lib, "apply", f, phi),
            partial(checks.check_apply, f, phi, ref),
        ))
        if i % 2 == 0:
            t = Fraction(inp.rng.choice(checks.unit_directions(p, 3))) * Fraction(p) ** (i % 4 - 1)
            hphi, href = window(p, 3), Reference()
            ops.append(Op(
                f"homogeneity_defect p={p} {kind} m={m}",
                partial(_lib, "homogeneity_defect", f, hphi, t),
                partial(checks.check_homogeneity, f, hphi, t, href),
            ))
    # the same work through the CLI
    for p, width in [(3, 5), (3, 5), (2, 6)]:
        phi, ref = window(p, width), Reference()
        out = inp.path("csv")
        cfg = {"prime": p, "test_function": table_spec(phi)}
        ops.append(Op(
            f"cli fourier p={p} N-l={width}",
            partial(_cli, ["fourier", "--config", inp.config(cfg), "--out", str(out)]),
            partial(checks.check_fourier_file, phi, out, points(p**width), ref),
        ))
    for p, kind, m in [(3, "quadratic", 1), (5, "trivial", 0), (3, "p-log", 2)]:
        dist = _dist(inp, p, kind, m)
        phi, ref = window(p, 3), Reference()
        out = inp.path("txt")
        cfg = {"prime": p, "distribution": dist, "test_function": table_spec(phi)}
        ops.append(Op(
            f"cli eval-dist p={p} {kind} m={m}",
            partial(_cli, ["eval-dist", "--config", inp.config(cfg), "--out", str(out)]),
            partial(checks.check_eval_dist_file, build_f(p, dist), phi, out, ref),
        ))
    return ops


def _dist(inp: Inputs, p: int, kind: str, m: int, re_lo=0.3, re_hi=2.5) -> dict:
    if kind == "p-log":
        return {"variant": "p-log", "m": m}
    return {
        "variant": "pi-alpha-log",
        "alpha": inp.alpha(re_lo, re_hi),
        "m": m,
        "character": inp.character(p, kind),
    }


GENERATORS = {
    "narrow-theorems": narrow_theorems,
    "wide-window": wide_window,
    "oracle-deep": oracle_deep,
    "transforms": transforms,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    return GENERATORS[workload](Inputs(seed, workdir))
