"""CLI driver: subcommands, configs, exit codes, determinism."""

import json

from padicfourier import StabilizationReport
from padicfourier.cli import run

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


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gamma_subcommand(capsys):
    assert run(["gamma", "--p", "2", "--alpha", "2", "--order", "0"]) == 0
    out = capsys.readouterr().out
    assert "-1.3333333333333333" in out


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
    report = StabilizationReport.from_json(out.read_text())
    assert report.ok and report.variant == "pi-alpha-log" and report.k0 == 1
    assert report.s_pred_exponent == 2


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


def test_eval_dist_and_fourier_subcommands(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PLOG_CFG)
    assert run(["eval-dist", "--config", cfg]) == 0
    assert "<f, phi> = 0" in capsys.readouterr().out
    assert run(["fourier", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "coset,re,im"


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
