"""Time one workload's operations for two checkouts in one process, op by op.

    python tools/interleave.py --old ../parent --workload oracle-deep --seed 301

Imports ``bench/workloads.py`` and the ``padicfourier`` it imports from
each checkout (``--new`` defaults to the one holding this script),
swapping ``sys.modules`` between the two.  Each of ``--repeat`` rounds
runs every operation once per side, alternating which side goes first;
each operation is charged its best time.  Prints each side's total ms per
pass and evaluations per second, counted by each operation's check as in
``bench/run.py``.  Host noise hits both sides of one process alike; this
adds to the separate-process pairs of ``bench/run.py``, not replaces them.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path
from time import perf_counter

OWN = ("padicfourier", "workloads", "checks")


def use(modules: dict) -> None:
    """Make ``modules`` the ones ``import`` finds for this tool's names."""
    for name in [n for n in sys.modules if n.split(".")[0] in OWN]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(root: Path, workload: str, seed: int, workdir: Path):
    """The operations of one checkout, and the modules they were built from."""
    use({})
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        import workloads

        ops = workloads.build(workload, seed, workdir)
    finally:
        del sys.path[:2]
    return ops, {n: m for n, m in sys.modules.items() if n.split(".")[0] in OWN}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--old", type=Path, required=True)
    ap.add_argument("--new", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=301)
    ap.add_argument("--repeat", type=int, default=40)
    args = ap.parse_args()
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        built = {}
        for side, root in sides.items():
            workdir = Path(tempfile.mkdtemp(dir=tmp))
            built[side] = load(root, args.workload, args.seed, workdir)
        n = len(built["old"][0])
        best, evals = {s: [float("inf")] * n for s in sides}, {s: [0] * n for s in sides}
        with contextlib.redirect_stdout(io.StringIO()):
            for rnd in range(args.repeat):
                for j in range(n):
                    for side in ("old", "new") if (rnd + j) % 2 == 0 else ("new", "old"):
                        ops, modules = built[side]
                        use(modules)
                        start = perf_counter()
                        out = ops[j].run()
                        best[side][j] = min(best[side][j], perf_counter() - start)
                        evals[side][j] = ops[j].check(out)
    for side, root in sides.items():
        total = sum(best[side])
        print(f"{side} {root}: {total * 1e3:.3f} ms, {sum(evals[side]) / total:.1f} evals/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
