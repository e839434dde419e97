"""Record the golden digests that `run.py` checks every op against.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference.  It runs every CLI op of every workload once, and the pipeline
with the whole solver cycle pool, and writes `perfbench/golden.json`.
Refuses to record an op that did not pass.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import time

import pipeline
import run


def main() -> int:
    deadline = time.monotonic() + 3600
    work = run.WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden = {"commit": run.commit(), "src_sha256": run.source_digest(),
              "python": platform.python_version(), "cli": {}, "pipeline": {}}
    for wl in run.WORKLOADS.values():
        for op in wl["ops"]:
            report = work / f"{len(golden['cli'])}.json"
            if op["kind"] == "pipeline":
                solves = [(k, j) for k in range(pipeline.N) for j in range(pipeline.POOL)]
                _, rep, err = run.spawn({"root": str(run.ROOT), "kind": "pipeline",
                                         "trace": 0, "solves": solves}, report, deadline)
                if err:
                    print(f"pipeline did not run: {err}", file=sys.stderr)
                    return 1
                for name, error, digest in rep["ops"]:
                    if error:
                        print(f"{name} failed:\n{error}", file=sys.stderr)
                        return 1
                    golden["pipeline"][name] = digest
                continue
            out = work / f"{len(golden['cli'])}.out"
            _, rep, err = run.spawn({"root": str(run.ROOT), "kind": "cli", "trace": 0,
                                     "argv": op["argv"] + ["--out", str(out)]},
                                    report, deadline)
            line = run.result_line(rep["stdout"]) if rep else None
            if err or rep["exit"] != 0 or not (line or "").startswith("RESULT pass"):
                print(f"{op['name']} did not pass: {err or rep}", file=sys.stderr)
                return 1
            golden["cli"][op["name"]] = {"out": run.sha256_file(out),
                                         "result": run.sha256_text(line)}
    shutil.rmtree(work)
    with open(run.HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
