"""The README's library quick start, run as it stands."""

import contextlib
import csv
import io
import math
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_quick_start_runs_and_prints_its_report():
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(quick_start(), names)
    # J = Gamma_2(2) / |t|_2^2 = -1/3, which the block's comment gives to one ulp
    assert abs(names["J"] - (-1 / 3)) <= math.ulp(1 / 3)
    # the printed report: 3 units on each sphere M = -1 .. 6, stabilized
    # from M = 1 on, as the report the block built holds it
    assert out.getvalue() == names["report"].to_csv() + "\n"
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert [int(row["M"]) for row in rows] == [M for M in range(-1, 7) for _ in range(3)]
    for row in rows:
        assert row["stabilized"] == ("1" if int(row["M"]) >= 1 else "0"), row
