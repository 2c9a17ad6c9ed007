"""Fingerprint every benchmark operation's outputs, to compare two checkouts.

    python tools/same_outputs.py --seeds 301 302 303 > new.txt
    python tools/same_outputs.py --root ../other --seeds 301 302 303 > old.txt
    diff old.txt new.txt

Builds the operations of the four workloads in ``bench/workloads.py`` of
the checkout at ``--root`` (default: the one holding this script), runs
each once and prints its label and a sha256 of what it produced: the
return value (floats as ``float.hex``, arrays as their bytes) and the
bytes of every file the operation wrote.  The last line hashes them all.
Two checkouts whose outputs are byte-identical print the same lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

def canonical(x, out: list[bytes]) -> None:
    """Append the bits of x, recursing into containers and objects."""
    if isinstance(x, (float, np.floating)):
        out.append(float(x).hex().encode())
    elif isinstance(x, (complex, np.complexfloating)):
        out.append(f"{complex(x).real.hex()},{complex(x).imag.hex()}".encode())
    elif isinstance(x, np.ndarray):
        out += [str(x.dtype).encode(), str(x.shape).encode(), x.tobytes()]
    elif x is None or isinstance(x, (bool, int, str, Fraction, np.integer)):
        out.append(repr(x).encode())
    elif isinstance(x, (list, tuple)):
        out.append(b"[")
        for item in x:
            canonical(item, out)
        out.append(b"]")
    elif isinstance(x, dict):
        out.append(b"{")
        for key in sorted(x, key=repr):
            canonical(key, out)
            canonical(x[key], out)
        out.append(b"}")
    else:
        out.append(type(x).__name__.encode())
        canonical(getattr(x, "__dict__", repr(x)), out)


def snapshot(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[301, 302, 303])
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
                    before = snapshot(workdir)
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = op.run()
                    parts: list[bytes] = []
                    canonical(result, parts)
                    for file, data in snapshot(workdir).items():
                        if before.get(file) != data:
                            parts += [file.encode(), data]
                    digest = hashlib.sha256(b"\0".join(parts)).hexdigest()
                    total.update(digest.encode())
                    print(f"{name} seed={seed} {op.label}: {digest}")
    print(f"total: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
