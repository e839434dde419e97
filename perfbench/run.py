"""halfcube benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each op runs in a fresh interpreter, one at a time.  With
`--trace 0` the run repeats whole passes of the workload while the next one
is expected to finish within S seconds (at least one pass) and reports the
end-to-end metrics as medians over passes.  Times are scaled to a reference
host speed by probes taken while they run (`hostspeed.py`); the raw times
are in the `meta` line.  With `--trace 1` it runs one
untraced and one traced pass and reports the per-layer metrics of the traced
pass.  Every op's output is checked against the golden digests in
`golden.json` after its clock stops; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import pipeline
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUNS = ROOT / ".perfbench_runs"
DEADLINE_S = 170  # a run must exit within 180 s
SETUP_BLOCK_S = 2.0  # set-up sampling before the passes, and again after them


def cli_op(*argv: str) -> dict:
    return {"kind": "cli", "argv": list(argv), "name": " ".join(argv)}


# Why each workload exists, and what should not move on it, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "census": {"setup_n": 9, "ops": [
        cli_op("betti", "--n-max", "9"),
        cli_op("--n", "9", "match", "--verify"),
    ]},
    "pipeline": {"setup_n": pipeline.N, "ops": [
        {"kind": "pipeline", "name": "pipeline"},
    ]},
    "oracle": {"setup_n": 7, "ops": [
        cli_op("--n", "7", "--k", "4", "basis", "--certify"),
        cli_op("betti", "--n-max", "6", "--oracle"),
    ]},
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_line(stdout: str) -> str | None:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    return lines[-1] if lines else None


def spawn(spec: dict, report: Path, deadline: float) -> tuple[float, dict | None, str | None]:
    """Run op.py on one spec; returns (spawn time, report or None, error)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), json.dumps(spec), str(report)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return t0, None, "timeout"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not report.exists():
        return t0, None, f"exit {code} without a report"
    with open(report) as fh:
        return t0, json.load(fh), None


def check_cli(rep: dict, out: Path, golden: dict) -> str | None:
    """Why a CLI op failed, or None when it matches its golden digests."""
    if rep["error"]:
        return "traceback: " + rep["error"].strip().splitlines()[-1]
    if rep["exit"] != 0:
        return f"exit {rep['exit']}"
    line = result_line(rep["stdout"])
    if line is None or not line.startswith("RESULT pass"):
        return f"result line {line!r}"
    if "Traceback" in rep["stdout"]:
        return "traceback in stdout"
    if not out.exists():
        return "no --out file"
    if sha256_text(line) != golden["result"]:
        return f"result digest mismatch: {line!r}"
    if sha256_file(out) != golden["out"]:
        return "--out digest mismatch"
    return None


def run_pass(workload: str, solves, trace: bool, tag: str, deadline: float,
             golden: dict) -> dict:
    """One pass over the workload's ops; timing first, then the checks."""
    work = WORK / tag
    work.mkdir(parents=True)
    ops = []  # (op, out path, spawn time, report, error, time waited until)
    for i, op in enumerate(WORKLOADS[workload]["ops"]):
        spec = {"root": str(ROOT), "kind": op["kind"], "trace": int(trace)}
        out = work / f"op{i}.out"
        if op["kind"] == "cli":
            spec["argv"] = op["argv"] + ["--out", str(out)]
        else:
            spec["solves"] = solves
        report = work / f"op{i}.json"
        t0, rep, err = spawn(spec, report, deadline)
        ops.append((op, out, t0, rep, err, time.monotonic()))
    t_last = ops[-1][3]["t_return"] if ops[-1][3] else ops[-1][5]
    raw_wall_s = t_last - ops[0][2]
    # the pass is scaled by its ops' speed factors, weighted by their times
    timed = [(rep["t_return"] - t0, rep["speed"]) for _, _, t0, rep, _, _ in ops if rep]
    speed = (sum(t * f for t, f in timed) / sum(t for t, _ in timed)
             if timed else 1.0)

    attempted = failed = out_bytes = 0
    failures, traces, rss = [], [], []
    for op, out, _, rep, err, _ in ops:
        if op["kind"] == "cli":
            attempted += 1
            why = err or check_cli(rep, out, golden["cli"][op["name"]])
            if why:
                failed += 1
                failures.append(f"{op['name']}: {why}")
            if rep:
                out_bytes += len(rep["stdout"].encode())
                out_bytes += out.stat().st_size if out.exists() else 0
        else:
            got = {name: (error, dg) for name, error, dg in rep["ops"]} if rep else {}
            for name in pipeline.op_names(solves):
                attempted += 1
                error, dg = got.get(name, (err or "not run", None))
                why = (error.strip().splitlines()[-1] if error
                       else None if dg == golden["pipeline"].get(name)
                       else "digest mismatch")
                if why:
                    failed += 1
                    failures.append(f"{name}: {why}")
        if rep:
            rss.append(rep["maxrss_kb"] / 1024)
            if trace:
                traces.append(rep["trace"])
    shutil.rmtree(work)
    return {"wall_s": raw_wall_s * speed, "raw_wall_s": raw_wall_s, "speed": speed,
            "peak_rss_mb": max(rss, default=0.0),
            "attempted": attempted, "failed": failed, "failures": failures,
            "traces": traces, "out_bytes": out_bytes}


SETUP_CODE = ("import sys, time, halfcube; "
              "halfcube.faces.enumerate_faces(int(sys.argv[1])); "
              "print(time.monotonic()); "
              "sys.path.insert(0, sys.argv[2]); import hostspeed; "
              "print(*(hostspeed.probe() for _ in range(3)))")


def setup_once(n: int) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import halfcube and enumerate n,
    raw and scaled by probes taken just before and just after it."""
    probes = [hostspeed.probe() for _ in range(3)]
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(n), str(HERE)],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    t_end, after = done.stdout.splitlines()[-2:]
    probes += [float(p) for p in after.split()]
    raw = float(t_end) - t0
    return raw, raw * hostspeed.factor_of(probes)


def setup_block(n: int) -> list[tuple[float, float]]:
    """Set-up samples for SETUP_BLOCK_S seconds, and at least five: the host
    speed changes over seconds, so a longer block sees more of it."""
    samples: list[tuple[float, float]] = []
    t_end = time.monotonic() + SETUP_BLOCK_S
    while len(samples) < 5 or time.monotonic() < t_end:
        samples.append(setup_once(n))
    return samples


def host_calib() -> float:
    """A fixed pure-Python probe loop; tracks host speed between runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    if not (ROOT / "src" / "halfcube" / "__init__.py").is_file():
        print(f"no halfcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "golden.json") as fh:
        golden = json.load(fh)
    wl = WORKLOADS[args.workload]
    solves = pipeline.draws(args.seed)
    calib = [host_calib() for _ in range(3)]

    # set-up is sampled before and after the passes, so that its median sees
    # the same host speed as the passes do; the first call warms the
    # bytecode and page caches
    setup: list[tuple[float, float]] = []  # (raw, scaled)
    if not args.trace:
        setup_once(wl["setup_n"])
        setup += setup_block(wl["setup_n"])

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    passes = []
    t_measure = time.monotonic()
    while True:
        p = run_pass(args.workload, solves, False, f"{tag}-{len(passes)}",
                     deadline, golden)
        passes.append(p)
        now = time.monotonic()
        if args.trace or (now - t_measure + p["wall_s"] > args.seconds
                          or now + 1.5 * p["wall_s"] > deadline):
            break
    traced = None
    if args.trace:
        traced = run_pass(args.workload, solves, True, f"{tag}-traced",
                          deadline, golden)
    calib += [host_calib() for _ in range(3)]
    if not args.trace:
        setup += setup_block(wl["setup_n"])

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    wall = statistics.median(p["wall_s"] for p in passes)
    if traced:
        metrics = spans.layer_metrics(traced["traces"], traced["out_bytes"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        metrics["host.calib_s"] = statistics.median(calib)
        units = {k: spans.unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(s for _, s in setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "src_sha256": source_digest(),
        "host.calib_s": statistics.median(calib),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_speed": [p["speed"] for p in passes],
        "traced_raw_wall_s": traced["raw_wall_s"] if traced else None,
        "traced_speed": traced["speed"] if traced else None,
        "setup_s": [s for _, s in setup], "setup_raw_s": [r for r, _ in setup],
        "failures": [f for p in all_passes for f in p["failures"]],
        "skipped_trace_names": sorted({name for t in traced["traces"]
                                       for name in t["skipped"]}) if traced else [],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"{tag}.json", "w") as fh:
        json.dump({"meta": meta, "result": result,
                   "traces": traced["traces"] if traced else []}, fh)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
