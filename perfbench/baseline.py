"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/baseline.py [--workloads census,...] [--seeds 10]
                                  [--seconds 30] [--traced-seed 3] [--out PATH]

Runs `run.py --trace 0` once per seed (1..N) for each workload, one run at a
time, and prints every end-to-end metric's median, quartiles and
(q3 - q1) / median, the spread the benchmark's bounds are checked against.
With `--traced-seed` it also makes one `--trace 1` run per workload.  With
`--out` it writes the summary as JSON (the form of `baseline.json`).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args()
    out = {"commit": run.commit(), "src_sha256": run.source_digest(),
           "python": f"{platform.python_implementation()} {platform.python_version()}",
           "host": platform.platform(), "nproc": run.os.cpu_count(),
           "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        seeds = list(range(1, args.seeds + 1))
        results = [bench(workload, s, args.seconds, 0) for s in seeds]
        w = {"seeds": seeds,
             "attempted": sum(r["attempted"] for r in results),
             "failed": sum(r["failed"] for r in results),
             "end_to_end": {}}
        for name, m in results[0]["metrics"].items():
            w["end_to_end"][name] = summary(
                [r["metrics"][name]["value"] for r in results], m["unit"])
            s = w["end_to_end"][name]
            print(f"{workload:9s} {name:12s} median {s['median']:10.4f} "
                  f"spread {s['iqr_over_median']:.3f}", flush=True)
        if args.traced_seed is not None:
            traced = bench(workload, args.traced_seed, args.seconds, 1)
            w["attempted"] += traced["attempted"]
            w["failed"] += traced["failed"]
            w["traced_seed"] = args.traced_seed
            w["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        out["workloads"][workload] = w
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
