"""A catalogue of planted defects ("mutants") and the tests that must
catch them.

Each mutant is one exact text edit to a file under `src/` and the test
node ids that must fail once it is applied.  For each mutant the runner
copies `src/` to a temporary directory, applies the edit to the copy,
runs only the named tests against it, and reports the mutant as

* killed: every named test fails or errors, or pytest cannot collect
  them;
* survived: some named test passes, and those tests are listed;
* stale: the old text is not in the file exactly once.

Before the mutants it runs every named test on the unmutated copy and
stops if one fails or is not found, since such a test kills nothing.
Run it from the repository root, with pytest installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these

The exit status is 0 when every mutant run was killed, 1 otherwise, and
2 for an unknown mutant name.
The file is not named `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    kills: tuple[str, ...]


SNF = "halfcube/snf.py"
REDUCTION = "tests/test_snf.py::TestReduction::"
PLANTED = REDUCTION + "test_planted_torsion_is_left_to_the_elimination"

MUTANTS = [
    # snf._Reduction: the pairing moves
    Mutant("coreduction-pairs-non-unit", SNF,
           "                if signs[t] == 1 or signs[t] == -1:\n"
           "                    pair = flat[t], g\n",
           "                pair = flat[t], g\n",
           (PLANTED,)),
    Mutant("collapse-pairs-non-unit", SNF,
           "                if signs[t] == 1 or signs[t] == -1:\n"
           "                    pair = g, up\n",
           "                pair = g, up\n",
           (PLANTED,)),
    Mutant("last-in-queue", SNF,
           "g = queue.popleft()", "g = queue.pop()",
           (REDUCTION + "test_every_cell_pairs_off[7]",
            REDUCTION + "test_certificate_eliminates_only_the_reduced_stack[7]")),
    Mutant("pair-count-off-by-a-dimension", SNF,
           "pairs = self.pairs[d] if d < len(self.pairs) else 0",
           "pairs = self.pairs[d - 1] if 0 < d <= len(self.pairs) else 0",
           (REDUCTION + "test_reports_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]",
            REDUCTION + "test_random_combinations_equal_reference[4]")),
    # snf._Reduction.project: the cycles carried through the pairs
    Mutant("projection-subtraction-skipped", SNF,
           "                if not z:\n                    continue\n",
           "                continue\n",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
    Mutant("projection-sign-dropped", SNF,
           "w = row.get(j, 0) - c * eps * s", "w = row.get(j, 0) - c * s",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_random_combinations_equal_reference[5]",
            REDUCTION + "test_random_combinations_equal_reference[6]")),
    Mutant("projection-boundary-not-restricted", SNF,
           "                    if not alive[f]:\n"
           "                        continue  # l itself, or a cell paired before\n",
           "",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
    Mutant("projection-upper-coefficient-kept", SNF,
           "                rows.pop(u - lo, None)\n", "",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
]


def run_tests(src: Path, node_ids) -> tuple[set[str], str | None]:
    """The named tests that fail against `src`, or an error text when
    pytest could not run them all."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "--no-header",
         "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        lines = (proc.stdout + proc.stderr).strip().splitlines()
        return set(), "; ".join(
            [ln for ln in lines if ln.startswith("ERROR: ")] or lines[-1:])
    failed = set()
    for line in proc.stdout.splitlines():
        for status in ("FAILED ", "ERROR "):
            if line.startswith(status):
                failed.add(line[len(status):].split(" - ")[0])
    return failed, None


def run(mutants) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({t for m in mutants for t in m.kills})
        failed, error = run_tests(src, named)
        if error or failed:
            print(f"unmutated source: {error or 'fails ' + ', '.join(sorted(failed))}")
            return 1
        for m in mutants:
            path = src / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                status = f"stale: old text found {text.count(m.old)} times"
            else:
                path.write_text(text.replace(m.old, m.new))
                failed, error = run_tests(src, m.kills)
                path.write_text(text)
                passed = [t for t in m.kills if t not in failed]
                if error:  # the mutant breaks collection, so nothing passes
                    status = f"killed ({error})"
                elif passed:
                    status = "survived: " + ", ".join(passed)
                else:
                    status = "killed"
            bad += not status.startswith("killed")
            print(f"{m.name}: {status}", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} killed")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [a for a in argv if a not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; "
              f"known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    return run([by_name[a] for a in argv] if argv else MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
