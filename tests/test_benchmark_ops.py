"""The benchmark's own result checks, run once per workload: a change that
breaks what ``bench/checks.py`` accepts fails here, not first in a
benchmark run."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))

import workloads  # noqa: E402

SEED = 301


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_every_op_passes_its_benchmark_check(workload, tmp_path):
    for op in workloads.build(workload, SEED, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            result = op.run()
        assert op.check(result) >= 1, op.label
