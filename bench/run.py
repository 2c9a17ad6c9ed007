"""padicfourier benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload narrow-theorems --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout (the program is imported from
``src/``).  Set-up is measured in ``SETUP_REPEATS`` fresh processes, the
last of which then runs the timed closed loop; ``setup_s`` is their
median.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

WORKLOADS = ("narrow-theorems", "wide-window", "oracle-deep", "transforms")
SETUP_REPEATS = 3
#: every process this run starts must have ended by then
DEADLINE_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    for an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(argv: list[str], env: dict, deadline: float):
    """(exit code, seconds from spawn to BENCH-READY, result dict or None)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "worker.py"), *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(1.0, deadline - monotonic()), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("BENCH-READY") and ready is None:
                ready = perf_counter() - start
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line[len("BENCH-RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return proc.returncode, ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="padicfourier benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "padicfourier" / "__init__.py").is_file():
        print(f"bench: no padicfourier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    env = dict(
        os.environ,
        PADIC_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        # glibc's default mmap threshold moves with the allocation history,
        # which differs per seed; pinning it at its 64-bit ceiling (with the
        # matching trim threshold) stops ~1 MB arrays from flipping between
        # mmap and the heap from run to run
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        MALLOC_TRIM_THRESHOLD_=str(64 << 20),
    )
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    for _ in range(SETUP_REPEATS - 1):
        code, ready, _ = run_worker([*common, "--setup-only"], env, deadline)
        if code != 0 or ready is None:
            print(f"bench: set-up process failed (exit {code})", file=sys.stderr)
            return 1
        setup.append(ready)
    code, ready, res = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    if code != 0 or ready is None or res is None:
        print(f"bench: workload process failed (exit {code})", file=sys.stderr)
        return 1
    setup.append(ready)

    end_to_end = {
        "evals_per_s": (res["evals_per_s"], "1/s"),
        "call_ms_p50": (res["call_ms_p50"], "ms"),
        "call_ms_p90": (res["call_ms_p90"], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    error_rate = res["failed"] / res["attempted"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "PADIC_THREADS": res["padic_threads"],
        "calls": res["calls"],
        "passes": res["passes"],
        "ops_per_pass": res["ops_per_pass"],
        "setup_samples_s": setup,
    }
    metrics = dict(res["layers"]) if args.trace else end_to_end
    if args.trace:
        meta["absent"] = res["absent"]
        meta["trace_file"] = res["trace_file"]

    print("# meta " + json.dumps(meta))
    for name, (value, unit) in {**end_to_end, "error_rate": (error_rate, "ratio")}.items():
        print(f"# {name:<14} {value:>14.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"# {name:<48} {value:>14.6g} {unit}")
        for name in res["absent"]:
            print(f"# {name:<48} {'absent':>14}")
    record = {
        "meta": meta,
        "end_to_end": end_to_end,
        "pass_rates": res["pass_rates"],
        "raw": res["raw"],
        "error_rate": error_rate,
        "metrics": metrics,
    }
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
