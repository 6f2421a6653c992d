"""Run the LOVO benchmark: one workload, or every workload in its own process.

    python3 lovobench/run.py --workload query-closed --seed 1 --seconds 25 --trace 0
    python3 lovobench/run.py --seed 1            # every workload, one process each

Run from the repository root; the system under test is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
exit code is 1 when a correctness check failed and 2 when the system under
test cannot be found.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("query-closed", "serve-open", "ingest-stream")
#: A workload process that has not finished by then has failed.
WORKLOAD_TIMEOUT_S = 600


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="minimum measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
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


def environment(args: argparse.Namespace) -> Dict[str, object]:
    import numpy

    return {
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    measured = outcome.layers if args.trace else outcome.metrics
    for name, (value, unit) in measured.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for message in outcome.errors:
        print(f"CHECK FAILED: {message}")
    record = {"environment": environment(args), "facts": outcome.facts}
    print("run " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        try:
            finished = subprocess.run(command, capture_output=True, text=True,
                                      timeout=WORKLOAD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
            combined["correct"] = False
            continue
        lines = finished.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(finished.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exited {finished.returncode} without a result", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"system under test not found: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
