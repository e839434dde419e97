"""Check that the traced counts repeat exactly between two traced runs.

    python3 perfbench/check_counts.py --workload NAME [--seed N]

Runs `run.py --trace 1` twice with the same seed and compares every
`*_calls`, `*_nnz`, `*_builds` and `faces.cells` metric.  Exits 1 on any
difference or failed op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def is_exact(metric: str) -> bool:
    return metric == "faces.cells" or metric.endswith(("_calls", "_nnz", "_builds"))


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    first, second = (traced_run(args.workload, args.seed) for _ in range(2))
    ok = first["failed"] == second["failed"] == 0
    for name, m in first["metrics"].items():
        if is_exact(name):
            again = second["metrics"][name]["value"]
            same = m["value"] == again
            ok = ok and same
            print(f"{name:32s} {m['value']:>12} {again:>12} {'ok' if same else 'DIFFERS'}")
    print(f"{args.workload}: {'counts repeat exactly' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
