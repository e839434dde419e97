"""Run one benchmark op in this (fresh) process and write a JSON report.

    python3 perfbench/op.py SPEC_JSON REPORT_PATH

SPEC_JSON holds `root` (the checkout), `kind` ("cli" or "pipeline"),
`trace` (0 or 1) and either `argv` (cli) or `solves`, the (level, pool
index) pairs of the solver's cycles (pipeline).  The report
holds `t_return`, the `time.monotonic()` reading when the op's last call
returned, so the parent can time the op from before it started this
process, and `speed`, the host speed factor sampled while the op ran
(`hostspeed.Sampler`).  Digests and the trace export are made after that
reading.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import pipeline
import spans


def _load(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import halfcube

    if Path(halfcube.__file__).resolve().parent != (src / "halfcube").resolve():
        raise SystemExit(f"halfcube imported from {halfcube.__file__}, not {src}")
    layers = {name: importlib.import_module(f"halfcube.{name}")
              for name in spans.LAYERS}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "halfcube" or name.startswith("halfcube.")]
    return halfcube, layers, namespaces


def _run_cli(hc, argv) -> dict:
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out):
            code = hc.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # a library error ending in a traceback is a failed op
        code = 1
        error = traceback.format_exc()
    return {"t_return": time.monotonic(), "exit": code, "stdout": out.getvalue(),
            "error": error}


def _digests(outputs) -> list[list]:
    """[name, error or None, digest or None] for every pipeline stage."""
    ops = []
    for name, value in outputs:
        if isinstance(value, pipeline.Failed):
            ops.append([name, value.error, None])
            continue
        try:
            ops.append([name, None, pipeline.digest(name, value)])
        except Exception:  # an output that no longer dumps is a failed op
            ops.append([name, traceback.format_exc(), None])
    return ops


def main() -> None:
    sampler = hostspeed.Sampler()
    sampler.start()
    spec = json.loads(sys.argv[1])
    report_path = sys.argv[2]
    hc, layers, namespaces = _load(Path(spec["root"]))
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install(layers, namespaces)
    try:
        if spec["kind"] == "cli":
            report = _run_cli(hc, spec["argv"])
        else:
            outputs = pipeline.run(hc, [tuple(s) for s in spec["solves"]])
            report = {"t_return": time.monotonic()}
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.restore()
    report["speed"] = sampler.factor()
    if spec["kind"] == "pipeline":
        report["ops"] = _digests(outputs)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["trace"] = tracer.export()
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
