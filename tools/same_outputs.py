"""Fingerprint every benchmark operation's outputs, to compare two checkouts.

    python tools/same_outputs.py --seeds 301 302 303 > new.txt
    python tools/same_outputs.py --root ../other --seeds 301 302 303 > old.txt
    diff old.txt new.txt

Builds the operations of the four workloads in ``bench/workloads.py`` of
the checkout at ``--root`` (default: the one holding this script), runs
each and prints its label and a sha256 of what it produced: the return
value (floats as ``float.hex``, arrays as their bytes) and the bytes of
every file the operation wrote.  The last line hashes them all.  Two
checkouts whose outputs are byte-identical print the same lines.

Each operation runs twice, first with every cache in ``KEPT`` as the
operations before it left it, then with none kept (each swapped for its
uncached ``__wrapped__``), and the tool exits 1, naming it, when the two
digests differ: a cache kept across calls must hand a warm call the bits
a cold one computes.  (A second warm run would not see a cache keyed too
coarsely, as the first one is already warm from the operations before
it.)  The swap is made in the modules of the checkout at ``--root``; a
cache that checkout lacks is skipped, so an older checkout still runs.

With ``--flags`` each line hashes only what is not a floating value: a
change that is documented to move last digits can then show that no
exit code, ``ok`` or ``stabilized`` flag, exponent, M or unit moved with
them.  That is the return value with every float, complex and floating
array reduced to its type (and shape), a JSON file the same way, the
float-free columns (``FLAG_COLUMNS``) of a CSV file, and the label left of
`` = `` on each line of any other file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

#: the columns of the CSV files the CLI writes that hold no float: a
#: report's M, t_unit, stabilized and exponents, and fourier's coset
FLAG_COLUMNS = {"M", "t_unit", "stabilized", "s_pred_exponent", "s_emp_exponent", "coset"}

#: the caches kept across calls, as (module of padicfourier, name): the
#: oracle's root classes, and the partial transform's roots and column index
KEPT = (("singular", "_kept"), ("testfn", "_kept"))


def canonical(x, out: list[bytes], floats: bool = True) -> None:
    """Append the bits of x, recursing into containers and objects; with
    floats=False a floating value leaves only its type."""
    if isinstance(x, (float, np.floating)):
        out.append(float(x).hex().encode() if floats else b"float")
    elif isinstance(x, (complex, np.complexfloating)):
        z = complex(x)
        out.append(f"{z.real.hex()},{z.imag.hex()}".encode() if floats else b"complex")
    elif isinstance(x, np.ndarray):
        out += [str(x.dtype).encode(), str(x.shape).encode()]
        if floats or x.dtype.kind not in "fc":
            out.append(x.tobytes())
    elif x is None or isinstance(x, (bool, int, str, Fraction, np.integer)):
        out.append(repr(x).encode())
    elif isinstance(x, (list, tuple)):
        out.append(b"[")
        for item in x:
            canonical(item, out, floats)
        out.append(b"]")
    elif isinstance(x, dict):
        out.append(b"{")
        for key in sorted(x, key=repr):
            canonical(key, out, floats)
            canonical(x[key], out, floats)
        out.append(b"}")
    else:
        out.append(type(x).__name__.encode())
        canonical(getattr(x, "__dict__", repr(x)), out, floats)


def file_flags(name: str, data: bytes) -> bytes:
    """What a written file holds besides floating values (see --flags)."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        parts: list[bytes] = []
        canonical(json.loads(text), parts, floats=False)
        return b"|".join(parts)
    lines = text.splitlines()
    if name.endswith(".csv"):
        notes = [line for line in lines if line.startswith("#")]
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        keep = [i for i, column in enumerate(rows[0]) if column in FLAG_COLUMNS]
        lines = notes + [",".join(row[i] for i in keep) for row in rows]
    else:
        lines = [line.rsplit(" = ", 1)[0] for line in lines]
    return "\n".join(lines).encode()


def snapshot(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


def digest(op, workdir: Path, flags: bool) -> str | None:
    """The sha256 of what op.run() returns and writes to workdir, or None
    when a run that keeps nothing across calls gives another one than a
    run that reads what is kept."""
    kept = []
    for module, name in KEPT:
        module = importlib.import_module(f"padicfourier.{module}")
        if hasattr(module, name):
            kept.append((module, name, getattr(module, name)))
    before = snapshot(workdir)
    digests = set()
    for cold in (False, True):
        for module, name, cache in kept:
            setattr(module, name, cache.__wrapped__ if cold else cache)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = op.run()
        finally:
            for module, name, cache in kept:
                setattr(module, name, cache)
        parts: list[bytes] = []
        canonical(result, parts, floats=not flags)
        for file, data in snapshot(workdir).items():
            if before.get(file) != data:
                parts += [file.encode(), file_flags(file, data) if flags else data]
        digests.add(hashlib.sha256(b"\0".join(parts)).hexdigest())
    return digests.pop() if len(digests) == 1 else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[301, 302, 303])
    ap.add_argument(
        "--flags", action="store_true", help="hash only what is not a floating value"
    )
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    total = hashlib.sha256()
    for name in workloads.GENERATORS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                for op in workloads.build(name, seed, workdir):
                    label = f"{name} seed={seed} {op.label}"
                    sha = digest(op, workdir, args.flags)
                    if sha is None:
                        print(f"{label}: a run that keeps nothing across calls differs "
                              "from one that reads what is kept", file=sys.stderr)
                        return 1
                    total.update(sha.encode())
                    print(f"{label}: {sha}")
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
