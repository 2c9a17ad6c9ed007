"""CLI driver: subcommands, configs, exit codes, determinism."""

import argparse
import copy
import hashlib
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padicfourier import Prime, enumerate_cosets, fourier, gamma_p, qp, random_testfn
from padicfourier.cli import MAX_GRID_EXPONENT, MAX_GRID_ROWS, MAX_JET_ORDER, run

POWER_CFG = {
    "prime": 2,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": 2,
        "m": 0,
        "character": {"kind": "trivial"},
    },
    "test_function": {"kind": "delta", "k": 0},
    "t_grid": {"M_min": -1, "M_max": 5, "units_per_sphere": 3},
}

RAMIFIED_CFG = {
    "prime": 3,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": {"re": 1.5, "im": 0.0},
        "m": 1,
        "character": {"kind": "quadratic"},
    },
    "test_function": {
        "kind": "table",
        "N": 1,
        "l": -1,
        "values": [[1.0, 0.0]] * 6 + [[0.25, -0.5]] * 3,
    },
    "t_grid": {"M_min": 0, "M_max": 5, "units_per_sphere": 2},
    "output": {"format": "json"},
}

PLOG_CFG = {
    "prime": 3,
    "distribution": {"variant": "p-log", "m": 2},
    "test_function": {"kind": "delta", "k": 0},
    "t_grid": {"M_min": 1, "M_max": 6},
}


DELTA_CFG = {
    "prime": 2,
    "distribution": {"variant": "pi-alpha-log", "alpha": 2, "m": 0},
    "test_function": {"kind": "delta", "k": 0},
    "t_grid": {"M_min": 0, "M_max": 1, "units_per_sphere": 1},
}

#: ``verify --format json`` on DELTA_CFG: key names and order, indentation,
#: float repr and complex numbers as [re, im]
DELTA_JSON = """\
{
  "N": 0,
  "alpha": [
    2.0,
    0.0
  ],
  "below_threshold_violation": null,
  "k0": 0,
  "l": 0,
  "m": 0,
  "ok": true,
  "prime": 2,
  "rows": [
    {
      "J": [
        0.6666666666666666,
        0.0
      ],
      "M": 0,
      "abs_err": 2.0,
      "rhs": [
        -1.3333333333333333,
        0.0
      ],
      "stabilized": false,
      "t_unit": 1
    },
    {
      "J": [
        -0.33333333333333337,
        0.0
      ],
      "M": 1,
      "abs_err": 5.551115123125783e-17,
      "rhs": [
        -0.3333333333333333,
        0.0
      ],
      "stabilized": true,
      "t_unit": 1
    }
  ],
  "s_emp_exponent": 0,
  "s_pred_exponent": 0,
  "scale_family": "phi(0) * |t|^-alpha log_p^{m-k}|t|, k = 0..m",
  "theorem": "unramified",
  "tolerance_scale": 1e-09,
  "variant": "pi-alpha-log"
}
"""


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gamma_subcommand(capsys):
    assert run(["gamma", "--p", "2", "--alpha", "2", "--order", "0"]) == 0
    out = capsys.readouterr().out
    assert "-1.3333333333333333" in out


def test_gamma_derivatives_match_central_differences(capsys):
    # the jets hold theta = log_p(e) d/dalpha; the command prints d/dalpha,
    # so its lines must match differences of the plain value Gamma_p(alpha)
    alpha, h = 1.3 - 0.4j, 1e-3
    for p in (2, 3):
        assert run(["gamma", "--p", str(p), "--alpha", "1.3-0.4i", "--order", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()

        def g(x):
            return gamma_p(Prime(p), alpha + x * h, 0).value

        fd = {
            1: (g(1) - g(-1)) / (2 * h),
            2: (g(1) - 2 * g(0) + g(-1)) / h**2,
            3: (g(2) - 2 * g(1) + 2 * g(-1) - g(-2)) / (2 * h**3),
        }
        for k in (1, 2, 3):
            label, value = lines[k].split(" = ")
            assert label == f"d^{k}/dalpha^{k}"
            got = complex(value.replace("i", "j"))
            assert abs(got - fd[k]) < 1e-5 * (1 + abs(fd[k])), (p, k, got, fd[k])


def test_gamma_past_the_float_range_is_a_numeric_error(capsys):
    # near the pole at 0 the jet's high entries pass the float range; the
    # division once made inf - inf of them and printed nan at exit 0
    assert run(["gamma", "--p", "2", "--alpha", "1e-10", "--order", "64"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric error: ")
    assert "nan" not in captured.out


#: phi(0) = 0.5 and eight values near the float limit: F[phi], <f, phi>, the
#: oracle's cell sums and J at most t pass the float range, where each command
#: once printed nan (or erdelyi compared nan rows) instead of a numeric error
HUGE_CFG = {
    "prime": 3,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": 1.5,
        "m": 1,
        "character": {"kind": "trivial"},
    },
    "test_function": {
        "kind": "table",
        "N": 1,
        "l": -1,
        "values": [[0.5, 0.0]] + [[1e308, 1e308]] * 8,
    },
    "t_grid": {"M_min": -3, "M_max": 4, "units_per_sphere": 2},
}


@pytest.mark.parametrize(
    "command, character",
    [
        pytest.param(command, "trivial", id=" ".join(command))
        for command in (["verify"], ["erdelyi"], ["eval-dist"],
                        ["singular", "--t", "1/3", "--oracle"], ["fourier"])
    ] + [
        # J is finite at t = 3 (an exact 0, which the split evaluates to
        # parts of 2^972 of rounding), but the oracle's cell sums are not:
        # it once printed about 1e292 of rounding noise at exit 0
        pytest.param(["singular", "--t", t, "--oracle"], "quadratic",
                     id=f"singular --t {t} --oracle quadratic")
        for t in ("1/3", "3")
    ],
)
def test_values_past_the_float_range_are_a_numeric_error(tmp_path, capsys, command, character):
    cfg = copy.deepcopy(HUGE_CFG)
    cfg["distribution"]["character"] = {"kind": character}
    assert run(command + ["--config", write_cfg(tmp_path, cfg)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric error: ") and "Traceback" not in captured.err
    assert "nan" not in captured.out


def singular_j(tmp_path, capsys, cfg, t):
    assert run(["singular", "--t", t, "--config", write_cfg(tmp_path, cfg)]) == 0
    return complex(capsys.readouterr().out.splitlines()[0].split(" = ")[-1].replace("i", "j"))


@pytest.mark.parametrize(
    "character, t, want",
    [("trivial", "1/3", -0.09836896836084108), ("quadratic", "3", complex(-2.0**972, 2.0**972))],
    ids=["trivial", "quadratic"],
)
def test_a_finite_j_of_a_table_near_the_float_limit(tmp_path, capsys, character, t, want):
    # J is linear in phi: where the split passes the float range on the way,
    # phi 2^-e is evaluated and its J multiplied by 2^e, which rounds
    # nothing, so J has the bits of the table scaled by 2^-64 (which
    # evaluates in range at once) times 2^64.  The quadratic J is exactly 0
    # (chi_p == 1 on both spheres, where pi_1 integrates to 0): its pinned
    # value is the rounding of the 1e308 entries, 2^972 a part, which moved
    # from -2.66e292 when the densities took the cell measure p^lam
    cfg = copy.deepcopy(HUGE_CFG)
    cfg["distribution"]["character"] = {"kind": character}
    J = singular_j(tmp_path, capsys, cfg, t)
    assert J == want
    values = cfg["test_function"]["values"]
    cfg["test_function"]["values"] = [[math.ldexp(x, -64) for x in z] for z in values]
    want = singular_j(tmp_path, capsys, cfg, t) * 2.0**64
    assert (J.real.hex(), J.imag.hex()) == (want.real.hex(), want.imag.hex())


#: phi in D^-100002_-100000 with m = 64: gamma^64 (about 1e320) has no float
#: on the spheres gamma = -100000, -100001, while p^(0.5 gamma) underflows to
#: 0, so the densities, <f, phi>, J and the oracle are all 0
DEEP_CFG = {
    "prime": 3,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": 1.5,
        "m": 64,
        "character": {"kind": "trivial"},
    },
    "test_function": {
        "kind": "table",
        "N": -100000,
        "l": -100002,
        "values": [[0.5, 0.0]] + [[1.0, 0.0]] * 8,
    },
}


def test_a_deep_window_whose_densities_underflow_evaluates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DEEP_CFG)
    assert run(["eval-dist", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == ["<f, phi> = 0+0i"]
    assert run(["singular", "--t", "1", "--oracle", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["J(t = 1) = 0+0i", "oracle    = 0+0i", "|J - oracle| = 0"]


#: phi in D^699_700 (values 1, 0.5, 0.25): the density of S_700 or the cell
#: measure 3^699 is past the float range while <f, phi> is not; the values
#: are the exact sums (tests/test_distributions.py, ONE_ABOVE_A_DELTA)
ONE_ABOVE_A_DELTA_CFG = {
    "prime": 3,
    "test_function": {
        "kind": "table",
        "N": 700,
        "l": 699,
        "values": [[1, 0], [0.5, 0], [0.25, 0]],
    },
    "t_grid": {"M_min": -706, "M_max": -695, "units_per_sphere": 2},
}


@pytest.mark.parametrize(
    "distribution, want",
    [
        ({"variant": "p-log", "m": 3}, 76181466.66666667),
        ({"variant": "pi-alpha-log", "alpha": 0.5, "m": 0}, 1.1406515655861439e167),
        ({"variant": "pi-alpha-log", "alpha": 0.5, "m": 2}, 5.559626516932433e172),
    ],
    ids=["plog3", "alpha0.5", "alpha0.5-m2"],
)
def test_one_level_above_a_delta_window_exits_0(tmp_path, capsys, distribution, want):
    cfg = write_cfg(tmp_path, dict(ONE_ABOVE_A_DELTA_CFG, distribution=distribution))
    assert run(["eval-dist", "--config", cfg]) == 0
    value = capsys.readouterr().out.split(" = ")[-1].strip()
    assert complex(value.replace("i", "j")) == pytest.approx(want, rel=1e-12)
    # |t|_3 = 3^-704: chi_p == 1 on B_700, so J is <f, phi>
    assert run(["singular", "--config", cfg, "--t", str(3**704), "--oracle"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(f") = {value}")
    oracle = complex(out[1].split(" = ")[-1].strip().replace("i", "j"))
    assert oracle == pytest.approx(want, rel=1e-12)
    assert run(["verify", "--config", cfg]) == 0


def test_chi_subcommand(capsys):
    assert run(["chi", "--p", "3", "--x", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "1/3" in out


def test_bernoulli_subcommand(capsys):
    assert run(["bernoulli", "--upto", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[1] for line in out] == [
        "1",
        "-1/2",
        "1/6",
        "0",
        "-1/30",
        "0",
        "1/42",
    ]


def test_bernoulli_past_the_float_range_is_a_numeric_error(capsys):
    # B_258 is about 1.3e306; |B_260| is past the largest float
    assert run(["bernoulli", "--upto", "260"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric error: ") and "B_260" in captured.err


def test_verify_power_case(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER_CFG)
    assert run(["verify", "--theorem", "auto", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("M,t_unit,")
    stabilized = [row.split(",")[7] for row in out[1:] if int(row.split(",")[0]) >= 1]
    assert set(stabilized) == {"1"}


def test_verify_json_report_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, RAMIFIED_CFG)
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] and report["variant"] == "pi-alpha-log" and report["k0"] == 1
    assert report["s_pred_exponent"] == 2


def test_verify_json_layout_is_pinned(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DELTA_CFG)
    assert run(["verify", "--config", cfg, "--format", "json"]) == 0
    assert capsys.readouterr().out == DELTA_JSON


CUBIC_CFG = {
    "prime": 3,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": {"re": 0.8, "im": 0.5},
        "m": 2,
        "character": {
            "kind": "table",
            "modulus_exponent": 2,
            "values": {"1": "0", "2": "2/3", "4": "1/3", "5": "1/3", "7": "2/3", "8": "0"},
        },
    },
    "test_function": {
        "kind": "table",
        "N": 1,
        "l": -1,
        "values": [[0.5 * k, 1.0 - 0.25 * k] for k in range(9)],
    },
    "t_grid": {"M_min": -1, "M_max": 5, "units_per_sphere": 4},
}

#: p = 2 with trivial pi_1 over 2^6 cosets and p = 5 with the quadratic
#: pi_1 over 5^3 cosets; their rows below the threshold read the F[h] table
BINARY_CFG = {
    "prime": 2,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": {"re": 1.3, "im": -0.4},
        "m": 1,
        "character": {"kind": "trivial"},
    },
    "test_function": {
        "kind": "table",
        "N": 2,
        "l": -4,
        "values": [[(k % 7) / 8 - 0.3, (3 * k % 11) / 16] for k in range(64)],
    },
    "t_grid": {"M_min": 1, "M_max": 7, "units_per_sphere": 2},
}

QUINTIC_CFG = {
    "prime": 5,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": {"re": 0.6, "im": 0.9},
        "m": 2,
        "character": {"kind": "quadratic"},
    },
    "test_function": {
        "kind": "table",
        "N": 1,
        "l": -2,
        "values": [[(k % 9) / 4 - 1.1, 0.7 - (2 * k % 13) / 8] for k in range(125)],
    },
    "t_grid": {"M_min": 0, "M_max": 5, "units_per_sphere": 3},
}

#: p = 3 with the cubic pi_1 over 3^5 cosets: 16 spheres x 64 units on
#: both sides of M = 0, so the rows inside F[h]'s support read 64
#: directions per sphere and J0 takes every residue mod 9
LARGE_CFG = {
    "prime": 3,
    "distribution": {
        "variant": "pi-alpha-log",
        "alpha": {"re": 1.3, "im": 0.2},
        "m": 2,
        "character": CUBIC_CFG["distribution"]["character"],
    },
    "test_function": {
        "kind": "table",
        "N": 0,
        "l": -5,
        "values": [[(k % 11) / 8 - 0.6, 0.4 - (5 * k % 17) / 16] for k in range(243)],
    },
    "t_grid": {"M_min": -6, "M_max": 9, "units_per_sphere": 64},
}

#: sha256 of the report files of ``verify`` / ``erdelyi``, pinned from the
#: Fraction-per-row implementation (binary and quintic: from the annulus
#: product multiplied as one broadcast per row; large: from the last
#: implementation that split a Fraction per row; cubic, quintic and large:
#: re-pinned when the ramified P(M) = Gamma (k0 - M)^m became one term
#: about its root, which moved only rhs and abs_err; binary: re-pinned when
#: the jets took theta = log_p(e) d/dalpha, which moved last digits of its
#: J and rhs, 2.6e-16 relative at most; cubic and ramified erdelyi:
#: re-pinned when the oracle folded each sphere's periodic factor, which
#: moved their oracle J by 7.1e-16 at most, |J| <= 2.3; cubic, large,
#: quintic and ramified verify: re-pinned when each sphere's density took the
#: cell measure p^lam, which moved J by 1.2 eps of the report's largest |J|
#: at most; cubic and ramified erdelyi again when the oracle took each
#: sphere's mass g^m p^(alpha g) in place of a cell measure, which moved
#: their oracle J by 0.51 eps of the report's largest |J| at most, 2.5e-16
#: with |J| <= 2.3, and again when the oracle read each sphere's roots off
#: a table of p^d-th roots in place of a stride of the norm's p^E-th
#: roots, which moved their oracle J by 2.1e-17 at most); every row's
#: floats, their formatting and the JSON layout must keep these bytes
#: (PLog has no Erdelyi check)
PINNED_REPORTS = {
    ("ramified", "verify", "csv"): "15c92ea14a1a7e357e1214e536c81740bc001213618b1f127d692c28c8a05b74",
    ("ramified", "verify", "json"): "f47fcea4bdc3b1187c86612dc3e7a0fba00ceb54e71969c728e5b8d4bc669644",
    ("ramified", "erdelyi", "csv"): "37dc02fac877a916e3cb82a42421f58b776f6e5d557bc94ea8d641eb7b72aac5",
    ("ramified", "erdelyi", "json"): "43170cc97b132260fcd2adccd8e4ecb7fa4e7a87107427acb33c00f64584b488",
    ("cubic", "verify", "csv"): "71140342e434f60a61a3668c96eae19c4d836e67461fae807f4c9d9b17319fae",
    ("cubic", "verify", "json"): "c5793f481c6bcd16501336902ecc47af42dba58d243d3319baa6e9d7cb5c1869",
    ("cubic", "erdelyi", "csv"): "8954f9cea0f5e11874096aa4cc557c636fd57639c087453c61574795bffc5701",
    ("cubic", "erdelyi", "json"): "2d49d704e47d97e22f437e3daffb1786bf39de7938485a0d5ad481549fa91c86",
    ("plog", "verify", "csv"): "6233b1cb2894aa0fd39e8d7a21a0d9b0596742762d99abf9a69037e7ec212e30",
    ("plog", "verify", "json"): "4f29e7c15ac230cc846cce503ce1c2422f69a74530d4f372a297a60794a5c00f",
    ("binary", "verify", "csv"): "dd31adf63366f889e6121bed9af47fe828b3f3c75e8337ba46cd2b6e7d313e8c",
    ("binary", "verify", "json"): "10bbc875811cae690638f35273e3433efdada58c63f4e9b7e0dd0996ddb04de4",
    ("quintic", "verify", "csv"): "751dc9171ece5a3477fd8722cd1186b055bd0922b0152977de3565f4c7a9631d",
    ("quintic", "verify", "json"): "bd409e7d41d51d1aeb475e4ac3c00c6bab63fd17409136f5ef56519d18a9f742",
    ("large", "verify", "csv"): "05c36a382c3bac94e949deeb9d8e3e875c3fa1d1ec2ffab3b0885eca5286fd2f",
    ("large", "verify", "json"): "2c98e133384941074397d7bde902af3d3734290118938481bcd350b6d5d3d2b6",
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS), ids="-".join)
def test_report_bytes_are_pinned(tmp_path, case):
    name, command, fmt = case
    cfg = {
        "ramified": RAMIFIED_CFG, "cubic": CUBIC_CFG, "plog": PLOG_CFG,
        "binary": BINARY_CFG, "quintic": QUINTIC_CFG, "large": LARGE_CFG,
    }[name]
    out = tmp_path / f"report.{fmt}"
    argv = [command, "--config", write_cfg(tmp_path, cfg), "--format", fmt]
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[case]


#: sha256 of the ``--out`` files of the commands that write no report,
#: pinned from the implementation that stored pi_1 as RootOfUnity values
#: (``singular cubic --t 1/9``: re-pinned with the ramified P about its
#: root, where its rhs at M = k0 is an exact 0; both ``singular --oracle``
#: lines: re-pinned when the oracle folded each sphere's periodic factor,
#: which moved the oracle line by 1.5e-16 at most, and again when it took
#: each sphere's mass in place of a cell measure, 6.2e-17 at most;
#: ``singular cubic --t 5/243 --oracle`` once more when the oracle read
#: each sphere's roots off a table of p^d-th roots, d = g + M, 2.1e-17; both
#: ``eval-dist`` lines: re-pinned when each sphere's density took the cell
#: measure p^lam, which moved <f, phi>, a cancellation to about 5e-16, by
#: 0.1 eps of ||p^lam h||_1); a config name stands for ``--config`` with
#: that config
PINNED_OUTPUTS = {
    ("chi", "--p", "3", "--x", "1/3"): "e863832c120f52dba52c9836593430d0067edb7c4ddf692908db48df7763fc0a",
    ("chi", "--p", "3", "--x=-5/9"): "f2de7e8bcbfad94b08921c6b7994def02a406d1fdff6f377ebb02879af84348f",
    ("chi", "--p", "3", "--x", f"1/{3**20}"): "bfb9e359157f78bf9839b1c862602eb0a32a852de6d689f63a458f574d36e203",
    ("chi", "--p", "2", "--x", "7/2"): "5f3443134295322dba5b42d9e860c3afd024682356b84a84eae3ead20dc56322",
    ("eval-dist", "cubic"): "161b1432baf67a7a030018756510c1f2b7cc864926b935497b100772ba208289",
    ("eval-dist", "ramified"): "5cd267d569408f9767891349952d9b54abf259849502fe2010e71cf98c7ee072",
    ("singular", "cubic", "--t", "1/9", "--oracle"): "fa850a762b4222566614ec93bee7ffb857345c959b8cf3ff7ed0bdae297891e1",
    ("singular", "cubic", "--t", "5/243", "--oracle"): "3409c311b5a481e4a01fc86369882ec4a531181cdb075fab44bc5915d08e5447",
    ("bernoulli", "--upto", "258"): "9bf2052e61213dd531e3934ac7a69d021e4edd070169d93d9c5361e6980e9f6f",
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS), ids=" ".join)
def test_cli_output_bytes_are_pinned(tmp_path, case):
    configs = {"cubic": CUBIC_CFG, "ramified": RAMIFIED_CFG}
    argv = [f"--config={write_cfg(tmp_path, configs[a])}" if a in configs else a for a in case]
    out = tmp_path / "out.txt"
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_OUTPUTS[case]


def test_run_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["chi", "--p", "3", "--x", "1/3"]) == 0
    assert run(["bernoulli", "--upto", "2"]) == 0
    assert built == []


def test_verify_theorem_flag_mismatch(tmp_path):
    cfg = write_cfg(tmp_path, PLOG_CFG)
    assert run(["verify", "--theorem", "ramified", "--config", cfg]) == 1
    assert run(["verify", "--theorem", "principal-log", "--config", cfg]) == 0


def test_verify_exit_code_two_on_mismatch(tmp_path):
    bad = dict(POWER_CFG)
    bad["tolerance"] = 0.0  # unsatisfiable: every row fails
    cfg = write_cfg(tmp_path, bad)
    assert run(["verify", "--config", cfg]) == 2


def test_exit_code_three_on_pole(tmp_path, capsys):
    cfg = dict(POWER_CFG)
    cfg["distribution"] = dict(cfg["distribution"], alpha=1e-15)
    path = write_cfg(tmp_path, cfg)
    assert run(["verify", "--config", path]) == 3
    assert "numeric error" in capsys.readouterr().err
    # p^(-M alpha) beyond the floating range: Re alpha < 0 at |t|_3 = 3^2100
    cfg = dict(POWER_CFG, prime=3)
    cfg["distribution"] = dict(cfg["distribution"], alpha=-0.5)
    path = write_cfg(tmp_path, cfg, "overflow.json")
    assert run(["singular", "--config", path, "--t", f"1/{3**2100}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "Traceback" not in err



def test_exit_code_one_on_every_pi0_alpha(tmp_path, capsys):
    # |x|^alpha is periodic with period 2 pi i / ln p: these are pi_0 too,
    # while alpha = 1e-15 above is merely near a pole
    for j in (0, 1, 2):
        cfg = dict(POWER_CFG, prime=3)
        alpha = {"re": 0.0, "im": 2 * math.pi * j / math.log(3)}
        cfg["distribution"] = dict(cfg["distribution"], alpha=alpha)
        path = write_cfg(tmp_path, cfg)
        assert run(["verify", "--config", path]) == 1
        assert "use PLog or DiracDelta" in capsys.readouterr().err

def test_jet_order_is_bounded(tmp_path, capsys):
    for base in (RAMIFIED_CFG, PLOG_CFG):
        for m in (MAX_JET_ORDER + 1, 13540, 297170148.0):
            cfg = copy.deepcopy(base)
            cfg["distribution"]["m"] = m
            path = write_cfg(tmp_path, cfg)
            for argv in (["verify", "--config", path], ["eval-dist", "--config", path]):
                assert run(argv) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: config.distribution.m: "), err
        cfg = copy.deepcopy(base)
        cfg["distribution"]["m"] = MAX_JET_ORDER
        path = write_cfg(tmp_path, cfg)
        assert run(["singular", "--config", path, "--t", "1/9"]) == 0
    argv = ["gamma", "--p", "2", "--alpha", "2", "--order"]
    assert run(argv + [str(MAX_JET_ORDER + 1)]) == 1
    assert capsys.readouterr().err.startswith("error: --order: ")
    assert run(argv + [str(MAX_JET_ORDER)]) == 0


def test_exit_code_one_on_bad_config(tmp_path, capsys):
    cfg = dict(POWER_CFG)
    cfg.pop("t_grid")
    path = write_cfg(tmp_path, cfg)
    assert run(["verify", "--config", path]) == 1
    assert "config.t_grid" in capsys.readouterr().err
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    assert run(["verify", "--config", str(bad)]) == 1
    assert run(["verify", "--config", str(tmp_path / "missing.json")]) == 1


#: (config or None, argv with {cfg} for the config path and {tmp} for the
#: test's directory, exit code, text on stdout for 0 and on stderr otherwise)
CLI_BRANCHES = [
    (
        dict(POWER_CFG, distribution={"variant": "delta"}),
        ["eval-dist", "--config", "{cfg}"],
        0,
        "<f, phi> = 1+0i",
    ),
    (
        dict(
            POWER_CFG,
            test_function={"kind": "table", "N": 0, "l": -1, "values": [[1, 0], ["nan", 0]]},
        ),
        ["eval-dist", "--config", "{cfg}"],
        1,
        "error: config.test_function.values: not a finite number: 'nan'",
    ),
    ([1, 2], ["verify", "--config", "{cfg}"], 1, "error: config: top level must be an object"),
    (
        POWER_CFG,
        ["verify", "--config", "{cfg}", "--out", "{tmp}/missing/report.csv"],
        1,
        "error: output: cannot write ",
    ),
    (None, ["bernoulli", "--upto", "-1"], 1, "error: --upto: must be >= 0"),
    (
        dict(POWER_CFG, t_grid={"M_min": 2, "M_max": 1}),
        ["verify", "--config", "{cfg}"],
        1,
        "error: config.t_grid: M_max < M_min",
    ),
    (
        dict(POWER_CFG, t_grid={"M_min": 0, "M_max": 1, "units_per_sphere": 0}),
        ["verify", "--config", "{cfg}"],
        1,
        "error: config.t_grid.units_per_sphere: must be >= 1",
    ),
    (None, ["verify"], 1, "the following arguments are required: --config"),
    (None, ["verify", "--help"], 0, "usage: padic-fourier verify"),
    (
        POWER_CFG,
        ["singular", "--config", "{cfg}", "--t", "1/2", "--split-level", "0"],
        1,
        "unrecognized arguments: --split-level 0",
    ),
    # each built a p^n of millions of digits and took 2-3 s to exit; on a
    # delta window (N = l) h is 0, so the pairing is phi(0) J0, whose ball
    # tail over B_(10^7) is past the float range
    (
        dict(POWER_CFG, prime=3, test_function={"kind": "delta", "k": 10**7}),
        ["eval-dist", "--config", "{cfg}"],
        3,
        "3^(c*alpha) with c = 10000000, alpha = (2+0j) (order 0) is not a finite float",
    ),
    (
        dict(POWER_CFG, prime=3, test_function={"kind": "delta", "k": 10**7}),
        ["fourier", "--config", "{cfg}"],
        3,
        "3^10000000 is not a finite float",
    ),
    (
        dict(
            POWER_CFG,
            prime=3,
            test_function={"kind": "table", "N": 10**7, "l": 0, "values": [[1, 0]] * 3},
        ),
        ["eval-dist", "--config", "{cfg}"],
        1,
        "config.test_function.values: need p^(N-l) = 3^10000000 coset values, got 3",
    ),
    (
        dict(POWER_CFG, prime=3),
        ["singular", "--config", "{cfg}", "--t", "1/3", "--oracle", "--refine", "10000000"],
        1,
        "coset enumeration too large: 3^10000001 words",
    ),
    # a boolean is no number here either, as for every other numeric field
    (
        dict(
            POWER_CFG,
            test_function={"kind": "table", "N": 0, "l": -1, "values": [[1, 0], [True, False]]},
        ),
        ["eval-dist", "--config", "{cfg}"],
        1,
        "error: config.test_function.values: not a finite number: True",
    ),
    # a sphere density past the float range names f, the sphere and the
    # power of p it carries, not the jet's variables
    (
        dict(
            RAMIFIED_CFG,
            distribution=dict(RAMIFIED_CFG["distribution"], alpha=-800),
            test_function={"kind": "table", "N": 0, "l": -2, "values": [[1.0, 0.0]] * 9},
        ),
        ["eval-dist", "--config", "{cfg}"],
        3,
        "numeric error: the density of PiAlphaLog(alpha=(-800+0j), pi1=NormedMultChar(p=3, k0=1),"
        " m=1) on S_-1, times 3^-2, is not a finite float",
    ),
    # a zero denominator is named, not shown as the Fraction it would make
    (None, ["chi", "--p", "3", "--x", "1/0"], 1, "error: --x: zero denominator: '1/0'"),
    (
        POWER_CFG,
        ["singular", "--config", "{cfg}", "--t", "1/0"],
        1,
        "error: --t: zero denominator: '1/0'",
    ),
]


@pytest.mark.parametrize("cfg, argv, code, message", CLI_BRANCHES)
def test_cli_branch_exits_with_its_code_and_message(tmp_path, capsys, cfg, argv, code, message):
    path = None if cfg is None else write_cfg(tmp_path, cfg)
    argv = [a.format(cfg=path, tmp=tmp_path) for a in argv]
    start = time.perf_counter()
    assert run(argv) == code
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert message in (out if code == 0 else err)
    assert "Traceback" not in out + err


def test_annulus_table_past_the_word_cap_exits_one(tmp_path, monkeypatch, capsys):
    # cubic mod 9 tiles the 3^4 coset values into a 3^5-word table
    cfg = copy.deepcopy(RAMIFIED_CFG)
    cfg["distribution"]["character"] = {
        "kind": "table",
        "modulus_exponent": 2,
        "values": {"1": "0", "2": "2/3", "4": "1/3", "5": "1/3", "7": "2/3", "8": "0"},
    }
    cfg["test_function"] = {"kind": "table", "N": 1, "l": -3, "values": [[1.0, 0.0]] * 81}
    monkeypatch.setattr(qp, "MAX_WORDS", 3**5 - 1)
    assert run(["verify", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "coset enumeration too large: 3^5 words" in err and "Traceback" not in err


def test_singular_subcommand_with_oracle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, POWER_CFG)
    assert run(["singular", "--config", cfg, "--t", "1/2", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "J(t = 1/2)" in out and "oracle" in out
    assert "-0.333333333333" in out
    # an oversize oracle refinement is a validation error, not a traceback
    cfg = write_cfg(tmp_path, RAMIFIED_CFG, "ramified.json")
    argv = ["singular", "--config", cfg, "--t", "1/3", "--oracle", "--refine", "30"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "coset enumeration too large: 3^31 words" in err
    assert "Traceback" not in err
    # so is a negative one
    argv[-1] = "-5"
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--refine: must be >= 0" in err
    assert "Traceback" not in err


def test_singular_splits_its_t_once(tmp_path, monkeypatch, capsys):
    # J, the oracle and the right-hand side all read the request's one split
    splits = []
    real_split = qp.split
    monkeypatch.setattr(qp, "split", lambda *a: splits.append(a[0]) or real_split(*a))
    for cfg in (POWER_CFG, RAMIFIED_CFG, PLOG_CFG):
        splits.clear()
        argv = ["singular", "--config", write_cfg(tmp_path, cfg), "--t", "5/27", "--oracle"]
        assert run(argv) == 0
        assert splits == [Fraction(5, 27)]
    assert "rhs" in capsys.readouterr().out


def test_eval_dist_and_fourier_subcommands(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLOG_CFG)
    assert run(["eval-dist", "--config", cfg]) == 0
    assert "<f, phi> = 0" in capsys.readouterr().out
    assert run(["fourier", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "coset,re,im"
    # a table of 2^13 cosets has no width cap
    table = {"kind": "table", "N": 5, "l": -8, "values": [[1.0, 0.0]] * 2**13}
    wide = {"prime": 2, "test_function": table}
    assert run(["fourier", "--config", write_cfg(tmp_path, wide, "wide.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# F[phi] in D^-5_8(Q_2)" and len(lines) == 2 + 2**13
    # the indicator of B_5 has F = 2^5 on B_-5, the zero coset, and 0 elsewhere
    rows = (line.split(",") for line in lines[2:])
    values = [complex(float(re), float(im)) for _, re, im in rows]
    assert abs(values[0] - 32) < 1e-12 and max(map(abs, values[1:])) < 1e-12


def test_fourier_rows_are_the_coset_fractions(tmp_path, capsys):
    # each row is the coset representative as str(Fraction), then re, im
    for p in (2, 3, 5, 7):
        prime = Prime(p)
        for N in range(-3, 5):
            for width in range(4):
                phi = random_testfn(prime, N, N - width, seed=100 * p + 10 * N + width)
                cfg = {"prime": p, "test_function": {
                    "kind": "table", "N": N, "l": N - width,
                    "values": [[z.real, z.imag] for z in phi.values.tolist()],
                }}
                assert run(["fourier", "--config", write_cfg(tmp_path, cfg)]) == 0
                F = fourier(phi)
                want = [
                    f"{rep},{v.real:.17g},{v.imag:.17g}"
                    for rep, v in zip(enumerate_cosets(prime, F.N, F.l), F.values)
                ]
                assert capsys.readouterr().out.splitlines()[2:] == want, (p, N, width)


def test_erdelyi_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, RAMIFIED_CFG)
    assert run(["erdelyi", "--config", cfg, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("M,t_unit,")
    # Re alpha <= 0 is a validation error for the erdelyi subcommand
    bad = dict(RAMIFIED_CFG)
    bad["distribution"] = dict(bad["distribution"], alpha={"re": -1.0, "im": 0.0})
    cfg2 = write_cfg(tmp_path, bad, "bad.json")
    assert run(["erdelyi", "--config", cfg2]) == 1


def test_byte_identical_reports(tmp_path):
    cfg = write_cfg(tmp_path, RAMIFIED_CFG)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--config", cfg, "--out", str(a)]) == 0
    assert run(["verify", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_quadratic_character_past_the_unit_cap_is_a_validation_error(tmp_path, capsys):
    # p = 16777259 has more than 2^24 units to list
    cfg = dict(RAMIFIED_CFG, prime=16777259, test_function={"kind": "delta", "k": 0})
    assert run(["verify", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.distribution.character: ") and "Traceback" not in err


def test_table_character_config(tmp_path):
    cfg = {
        "prime": 3,
        "distribution": {
            "variant": "pi-alpha-log",
            "alpha": "1.0+0.0i",
            "m": 0,
            "character": {
                "kind": "table",
                "modulus_exponent": 2,
                "values": {
                    "1": "0",
                    "2": "2/3",
                    "4": "1/3",
                    "5": "1/3",
                    "7": "2/3",
                    "8": "0",
                },
            },
        },
        "test_function": {"kind": "delta", "k": 0},
        "t_grid": {"M_min": 3, "M_max": 6, "units_per_sphere": 2},
    }
    path = write_cfg(tmp_path, cfg)
    assert run(["verify", "--config", path]) == 0


def test_huge_table_rank_is_a_bad_table(tmp_path, capsys):
    # a one-entry table cannot hold the 2 * 3^(k0-1) units: rejected from
    # the entry count, before any unit mod 3^k0 is listed
    for k0 in (20, 40):
        character = {"kind": "table", "modulus_exponent": k0, "values": {"1": "0"}}
        cfg = dict(POWER_CFG, prime=3)
        cfg["distribution"] = dict(cfg["distribution"], character=character)
        start = time.monotonic()
        assert run(["eval-dist", "--config", write_cfg(tmp_path, cfg)]) == 1
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"table keys must be exactly the units mod 3^{k0}" in err


def test_flat_config_form(tmp_path, capsys):
    flat = {
        "prime": 2,
        "alpha": {"re": 2.0, "im": 0.0},
        "m": 0,
        "character": {"kind": "trivial"},
        "distribution": "pi-alpha-log",
        "test_function": {"kind": "delta", "k": 0},
        "t_grid": {"M_min": 1, "M_max": 4},
    }
    cfg = write_cfg(tmp_path, flat)
    assert run(["verify", "--config", cfg]) == 0
    nested = write_cfg(tmp_path, POWER_CFG, "nested.json")
    run(["verify", "--config", nested])
    out = capsys.readouterr().out
    # flat and nested configs agree row by row where grids overlap
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert any(line.startswith("1,1,") for line in rows)


def test_density_overflow_is_a_numeric_error(tmp_path, capsys):
    # p^((alpha-1) gamma) on S_-1 is 3^801, beyond the floating range
    cfg = dict(RAMIFIED_CFG, prime=3)
    cfg["distribution"] = dict(cfg["distribution"], alpha=-800)
    cfg["test_function"] = {"kind": "table", "N": 0, "l": -2, "values": [[1.0, 0.0]] * 9}
    path = write_cfg(tmp_path, cfg)
    for argv in (["eval-dist", "--config", path], ["singular", "--config", path, "--t", "1/3"]):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "Traceback" not in err



def test_oracle_sphere_mass_overflow_is_a_numeric_error(tmp_path, capsys):
    # the oracle sums down to S_-699 at |t|_3 = 3^700, where the PLog mass
    # of a sphere, gamma^(m-1), is a float: S_-684's 3^16 words are past the cap
    path = write_cfg(tmp_path, PLOG_CFG)
    assert run(["singular", "--config", path, "--t", f"1/{3**700}", "--oracle"]) == 1
    err = capsys.readouterr().err
    assert "coset enumeration too large: 3^16 words" in err and "Traceback" not in err
    # alpha = 647 on S_1: J is finite, as the split's density there is
    # 3^646, but the oracle's mass 3^647 of the sphere is past the range
    cfg = dict(POWER_CFG, prime=3, distribution=dict(POWER_CFG["distribution"], alpha=647))
    values = [[1, 0], [0.5, 0], [0.25, 0]]
    cfg["test_function"] = {"kind": "table", "N": 1, "l": 0, "values": values}
    path = write_cfg(tmp_path, cfg, "mass.json")
    assert run(["singular", "--config", path, "--t", "1/3", "--oracle"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: the density of PiAlphaLog(alpha=(647+0j)")
    assert "on S_1, times 3^1, is not a finite float" in err and "Traceback" not in err


def test_gamma_p_takes_p_to_alpha_minus_one_in_range(tmp_path, capsys):
    # Gamma_3(647) holds p^646: p^647 alone is past the float range
    assert run(["gamma", "--p", "3", "--alpha", "647"]) == 0
    assert capsys.readouterr().out == "Gamma_3(647+0i) = -1.6608505280232736e+308+0i\n"
    cfg = dict(POWER_CFG, prime=3, distribution=dict(POWER_CFG["distribution"], alpha=647))
    values = [[1, 0], [0.5, 0], [0.25, 0]]
    cfg["test_function"] = {"kind": "table", "N": 1, "l": 0, "values": values}
    assert run(["singular", "--config", write_cfg(tmp_path, cfg), "--t", "1/3"]) == 0
    out = [line.rpartition(" = ") for line in capsys.readouterr().out.splitlines()]
    lines = {key.strip(): value for key, _, value in out}
    assert lines["J(t = 1/3)"] == "-0.33333333333333331+0i"
    J, rhs = (complex(lines[key].replace("i", "j")) for key in ("J(t = 1/3)", "rhs"))
    assert abs(J - rhs) <= 6e-14


def test_pole_check_overflow_is_a_numeric_error(tmp_path, capsys):
    # the pole check's 7^-alpha at alpha = -400 is beyond the floating range
    cfg = dict(POWER_CFG, prime=7)
    cfg["distribution"] = dict(cfg["distribution"], alpha=-400)
    path = write_cfg(tmp_path, cfg)
    for argv in (["verify", "--config", path], ["eval-dist", "--config", path]):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "Traceback" not in err


def test_window_scale_overflow_is_a_numeric_error(tmp_path, capsys):
    # phi = Delta_2000 puts 3^2000 into the Fourier table scale and the
    # pairing's p^lam, beyond the floating range
    cfg = dict(POWER_CFG, prime=3)
    cfg["distribution"] = dict(cfg["distribution"], alpha=1.5)
    cfg["test_function"] = {"kind": "delta", "k": 2000}
    cfg["t_grid"] = {"M_min": -2001, "M_max": -1999}
    path = write_cfg(tmp_path, cfg)
    for command in ("eval-dist", "fourier", "verify", "erdelyi"):
        assert run([command, "--config", path]) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "Traceback" not in err


def test_grid_bounds_admit_their_edge(tmp_path):
    cfg = copy.deepcopy(PLOG_CFG)
    cfg["t_grid"] = {"M_min": -MAX_GRID_EXPONENT, "M_max": -MAX_GRID_EXPONENT + 1}
    assert run(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0
    cfg["t_grid"] = {"M_min": 1, "M_max": 4, "units_per_sphere": MAX_GRID_ROWS // 4}
    assert run(["verify", "--config", write_cfg(tmp_path, cfg)]) == 0


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


BAD_FIELDS = [
    (PLOG_CFG, ("distribution", "m"), 1.5, "config.distribution.m"),
    (RAMIFIED_CFG, ("distribution", "m"), "one", "config.distribution.m"),
    (RAMIFIED_CFG, ("test_function", "N"), [1], "config.test_function.N"),
    (RAMIFIED_CFG, ("test_function", "l"), None, "config.test_function.l"),
    (POWER_CFG, ("test_function", "k"), "zero", "config.test_function.k"),
    (RAMIFIED_CFG, ("t_grid", "M_min"), "0.5", "config.t_grid.M_min"),
    (RAMIFIED_CFG, ("t_grid", "M_max"), {}, "config.t_grid.M_max"),
    (RAMIFIED_CFG, ("t_grid", "units_per_sphere"), "two", "config.t_grid.units_per_sphere"),
    (RAMIFIED_CFG, ("t_grid", "M_min"), -MAX_GRID_EXPONENT - 1, "config.t_grid.M_min"),
    (RAMIFIED_CFG, ("t_grid", "M_max"), MAX_GRID_EXPONENT + 1, "config.t_grid.M_max"),
    (RAMIFIED_CFG, ("t_grid", "M_max"), 10**6, "config.t_grid.M_max"),
    (RAMIFIED_CFG, ("t_grid", "units_per_sphere"), MAX_GRID_ROWS, "config.t_grid"),
    (RAMIFIED_CFG, ("t_grid", "units_per_sphere"), 100000, "config.t_grid"),
    (RAMIFIED_CFG, ("tolerance",), "tight", "config.tolerance"),
    (RAMIFIED_CFG, ("tolerance",), -1, "config.tolerance"),
    (RAMIFIED_CFG, ("test_function",), [1, 2], "config.test_function"),
    (RAMIFIED_CFG, ("distribution", "alpha"), "nan", "config.distribution.alpha"),
    (RAMIFIED_CFG, ("distribution", "alpha"), {"re": "inf"}, "config.distribution.alpha"),
    (POWER_CFG, ("distribution", "alpha"), float("nan"), "config.distribution.alpha"),
]


def test_every_config_field_parses_or_names_itself(tmp_path, capsys):
    for base, field, value, where in BAD_FIELDS:
        cfg = copy.deepcopy(base)
        _set(cfg, field, value)
        path = write_cfg(tmp_path, cfg)
        commands = [["verify", "--config", path]]
        if field[0] not in ("t_grid", "tolerance"):  # fields singular reads too
            commands.append(["singular", "--config", path, "--t", "1/9"])
        for argv in commands:
            assert run(argv) == 1, (field, value, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {where}: "), (err, where)
            assert "Traceback" not in err


def test_a_retired_split_level_key_is_ignored(tmp_path, capsys):
    # J splits at phi's own l: a config that still names a split level
    # reads as one without it, like any other unknown key
    plain = write_cfg(tmp_path, RAMIFIED_CFG)
    keyed = write_cfg(tmp_path, dict(RAMIFIED_CFG, split_level=1), "keyed.json")
    assert run(["verify", "--config", plain]) == 0
    want = capsys.readouterr().out
    assert run(["verify", "--config", keyed]) == 0
    assert capsys.readouterr().out == want


def _paths(node, prefix=()):
    """Every key path of a config tree, into the first entry of each list."""
    items = node.items() if isinstance(node, dict) else list(enumerate(node))[:1]
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


#: small windows and grids, so one mutated field keeps every enumeration
#: far below the 2^24-word cap
FUZZ_BASES = [
    POWER_CFG,
    PLOG_CFG,
    dict(
        RAMIFIED_CFG,
        test_function={"kind": "table", "N": -1, "l": -3, "values": [[0.5, 0.25]] * 9},
        t_grid={"M_min": 0, "M_max": 4, "units_per_sphere": 2},
    ),
]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-12, 12),
    st.floats(-12, 12),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "1/0", "2/3", "", "x"]),
    st.text(alphabet="ab1.-", max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["re", "im", "kind"]), st.integers(-2, 2), max_size=2),
)


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.sampled_from(list(_paths(cfg))))
    if draw(st.booleans()) and not isinstance(path[-1], int):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    else:
        _set(cfg, path, draw(JUNK))
    command = draw(st.sampled_from(["verify", "erdelyi", "eval-dist", "singular", "fourier"]))
    argv = [command]
    if command == "verify":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "singular":
        # an integer t has |t|_p <= 1 for every p, which keeps the oracle's
        # refined cells at most p^N per sphere
        argv += ["--t", str(draw(st.sampled_from([1, -1, 2, 3, 18, 25, 0])))]
        if draw(st.booleans()):
            argv += ["--oracle"]
    return cfg, argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_configs())
def test_fuzzed_configs_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, case):
    cfg, argv = case
    monkeypatch.chdir(tmp_path)  # an "output.path" lands here
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(cfg))
    argv = argv[:1] + ["--config", str(path)] + argv[1:]
    assert run(argv) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
