"""Self-tests of the benchmark itself: python3 -m pytest -q bench/selftest.py

Kept out of the repository's test suite on purpose: they run whole
workload passes (tens of seconds) and they pin the benchmark's view of
the program, not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import padicfourier as pf  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from checks import CheckFailed  # noqa: E402

SEED = 7

#: per workload, the traced functions it must reach (the README's table)
EXERCISED = {
    "narrow-theorems": [
        "cli.run", "asymptotics.verify_stabilization", "asymptotics.rhs_predict",
        "asymptotics.StabilizationReport.to_csv", "asymptotics.StabilizationReport.to_json",
        "singular.singular_fourier", "singular.j0_closed_form", "sums.sphere_cell_sum",
        "gamma.gamma_p", "gamma.gamma_pi", "characters.make_character",
        "characters.sphere_char_chi_integral",
    ],
    "wide-window": [
        "asymptotics.verify_stabilization", "asymptotics.rhs_predict",
        "singular.singular_fourier", "sums.sphere_cell_sum", "gamma.gamma_p",
    ],
    "oracle-deep": [
        "cli.run", "asymptotics.erdelyi_check", "singular.brute_force_oracle",
        "singular.singular_fourier", "sums.sphere_cell_sum",
    ],
    "transforms": [
        "cli.run", "testfn.fourier", "testfn.convolve", "testfn.dilate",
        "distributions.apply", "distributions.homogeneity_defect",
    ],
}


def traced(workload: str, tmp_path: Path):
    ops = workloads.build(workload, SEED, tmp_path)
    tally, tracer = worker.Tally(), tracing.Tracer()
    worker.traced_pass(ops, tracer, tally)
    return tally, tracer


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.GENERATORS)
    assert set(EXERCISED) == set(names)


def test_every_traced_function_is_reached(tmp_path):
    covered = set()
    for workload, names in EXERCISED.items():
        tally, tracer = traced(workload, tmp_path / workload)
        assert tally.failed == 0
        assert tracer.absent == []
        layers = tracer.layer_metrics()
        for name in names:
            assert layers[f"{name}.calls"][0] >= 1, (workload, name)
        covered.update(names)
    assert covered == set(tracing.TRACED_NAMES)


def test_wrappers_rebind_every_import_and_restore(tmp_path):
    orig = pf.sums.sphere_cell_sum
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (pf.sums, pf.singular, pf.distributions):
            assert module.sphere_cell_sum is not orig
            assert module.sphere_cell_sum.__wrapped__ is orig
    finally:
        tracer.uninstall()
    for module in (pf.sums, pf.singular, pf.distributions):
        assert module.sphere_cell_sum is orig


def test_missing_function_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(pf.gamma, "gamma_pi")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gamma.gamma_pi"]
    assert tracer.layer_metrics()["gamma.gamma_pi.calls"] == (0, "count")


def test_perturbed_library_J_counts_as_failed(tmp_path):
    op = workloads.build("wide-window", SEED, tmp_path)[0]
    tally = worker.Tally()
    _, report, raised = worker.call(op)
    assert tally.record(op, report, raised) == len(report.rows)
    row = report.rows[0]
    report.rows[0] = type(row)(row.M, row.t_unit, row.J * (1 + 1e-6) + 1e-6, row.rhs,
                               row.abs_err, row.stabilized)
    assert tally.record(op, report, None) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_perturbed_cli_J_counts_as_failed(tmp_path):
    ops = workloads.build("narrow-theorems", SEED, tmp_path)
    op = next(o for o in ops if o.label.startswith("verify"))
    tally = worker.Tally()
    _, code, raised = worker.call(op)
    assert tally.record(op, code, raised) == 21
    out = Path(op.run.args[0][op.run.args[0].index("--out") + 1])
    text = out.read_text()
    if out.suffix == ".json":
        d = json.loads(text)
        d["rows"][-1]["J"][0] += 1e-6 * (1 + abs(complex(*d["rows"][-1]["J"])))
        out.write_text(json.dumps(d))
    else:
        lines = text.splitlines()
        cells = lines[-1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6 * (1 + abs(float(cells[2]))))
        lines[-1] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        op.check(code)
    assert tally.record(op, code, None) is None
    assert tally.failed == 1


@pytest.mark.xfail(strict=True, raises=CheckFailed,
                   reason="testfn.convolve(phi, psi) is wrong when phi.l > psi.l")
def test_convolve_with_coarser_first_operand(tmp_path):
    """The transforms workload passes the finer operand first because the
    other order is wrong; once convolve is fixed this passes, and the
    workload may draw both orders."""
    inp = workloads.Inputs(SEED, tmp_path)
    psi = inp.testfn(3, 0, -4)
    phi = inp.testfn(3, 1, -1)  # phi.l = -1 > psi.l = -4
    out = pf.convolve(phi, psi)
    checks.check_convolve(phi, psi, [0, 1, 2, 5, 7], checks.Reference(), out)


def bench_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, env=dict(os.environ),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    result = bench_run("narrow-theorems", 0)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["narrow-theorems", "oracle-deep"])
def test_operation_counts_repeat_exactly(workload):
    """Two traced runs of the same seed give identical operation counts."""
    counted = ("calls", "cells", "zero_share", "calls_per_sweep")
    seen = []
    for _ in range(2):
        result = bench_run(workload, 1)
        seen.append({
            k: v["value"] for k, v in result["metrics"].items()
            if k.rsplit(".", 1)[-1] in counted
        })
    assert seen[0] == seen[1]
    assert seen[0]["sums.sphere_cell_sum.cells"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transforms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
