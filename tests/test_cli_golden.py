"""Every byte the command line produces, pinned: for each argv below,
the exit code, the sha256 of stdout, of stderr (the temporary directory
masked as <tmp>) and of the --out file, and the files left in the
directory the command ran in, must equal tests/cli_golden.json.

The argv cover every subcommand, every usage error and every kind of
--out target, at n <= 6.  After a deliberate change to the output,
re-record the file from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from halfcube.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# where "{out}" points; {tmp} is the directory the command runs in,
# "stale" a file that holds old bytes before the run, "link" a symlink
# to one
OUT_TARGETS = {
    "file": "{tmp}/out.txt",
    "relative": "out.txt",
    "stale": "{tmp}/out.txt",
    "link": "{tmp}/link.txt",
    "dev_null": "/dev/null",
    "directory": "{tmp}",
    "missing_directory": "{tmp}/nowhere/out.txt",
    "no_new_files": "/proc/out.txt",
    "no_name": "",
}

CASES = [
    # enum
    ("--n 4 enum", None),
    ("--n 5 --dim 2 enum", None),
    ("enum --n 4 --dim -1", None),
    ("--n 6 --dim 6 enum", None),
    ("--n 4 enum --out {out}", "file"),
    ("--n 5 --dim 3 enum --out {out}", "dev_null"),
    ("--out {out} --n 4 enum", "stale"),
    ("--n 4 enum --out {out}", "link"),
    # match
    ("--n 4 match", None),
    ("--n 5 match --verify", None),
    ("-v --n 5 match --verify --out {out}", "file"),
    ("--n 6 match --verify --out {out}", "relative"),
    ("--n 6 match --face 110011", None),
    ("--n 6 match --face 11I00O", None),
    ("match --n 4 --face EMPTY", None),
    ("--n 5 match --out {out}", "dev_null"),
    # basis
    ("--n 4 --k 3 basis", None),
    ("--n 5 --k 4 basis --certify -v", None),
    ("--n 5 --k 3 basis --certify --out {out}", "file"),
    ("--n 6 --k 5 basis --out {out}", "stale"),
    # betti
    ("betti --n-max 6", None),
    ("betti --n-max 5 --oracle", None),
    ("betti --n-min 5 --n-max 6 --include-k-eq-n --out {out}", "file"),
    ("--out {out} betti --n-max 4 --oracle --force", "dev_null"),
    # usage errors found by argparse
    ("", None),
    ("--n 4", None),
    ("--n 4 frobnicate", None),
    ("--n four enum", None),
    ("--n 4 --jobs 2 enum", None),
    ("betti --n-max 4 --verify", None),
    # usage errors found after parsing
    ("enum", None),
    ("match --verify", None),
    ("--k 3 basis", None),
    ("--n 3 enum", None),
    ("--n 5 basis", None),
    ("--n 5 --k 2 basis", None),
    ("--n 5 --k 5 basis", None),
    ("--n 4 --dim 5 enum", None),
    ("--n 4 --dim -2 enum", None),
    ("--n 3 enum --out {out}", "stale"),
    ("--n 4 match --face 1100 --verify", None),
    ("--n 4 match --face xyzw", None),
    ("betti --n-min 3", None),
    ("betti --n-min 6 --n-max 5", None),
    ("betti --n-min 10 --n-max 10 --oracle", None),
    ("--n 4 --k 3 enum", None),
    ("--n 5 match --k 3", None),
    ("--n 5 --k 3 --dim 2 basis -v", None),
    ("--n 4 betti --n-max 4", None),
    ("--n 4 match --face 1100 --out {out}", "dev_null"),
    # --out targets that cannot be written
    ("--n 4 enum --out {out}", "directory"),
    ("--n 4 match --verify --out {out}", "missing_directory"),
    ("--n 4 --k 3 basis --out {out}", "no_new_files"),
    ("betti --n-max 5 --out {out}", "no_name"),
    ("--n 4 enum --out {out}", "no_new_files"),
    ("betti --n-max 5 --out {out}", "directory"),
]


def case_id(case) -> str:
    argv, target = case
    return f"{argv or '(no argv)'} [{target}]" if target else argv or "(no argv)"


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def listing(root: Path) -> list[str]:
    """Every entry under `root`, as "path kind"."""
    out = []
    for p in sorted(root.rglob("*")):
        kind = "link" if p.is_symlink() else "dir" if p.is_dir() else "file"
        out.append(f"{p.relative_to(root)} {kind}")
    return out


def observe(case, tmp: Path) -> dict:
    """Run one case with `tmp` as the working directory and describe it."""
    argv, target = case
    out = OUT_TARGETS[target].format(tmp=tmp) if target else None
    if target in ("stale", "link"):
        (tmp / "out.txt").write_text("stale\n")
    if target == "link":
        (tmp / "link.txt").symlink_to("out.txt")
    args = [out if a == "{out}" else a for a in argv.split()]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(args)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    written = None
    if out and out != "/dev/null" and os.path.isfile(tmp / out):
        written = sha((tmp / out).read_bytes())
    return {"code": code,
            "stdout": sha(stdout.getvalue()),
            "stderr": sha(stderr.getvalue().replace(str(tmp), "<tmp>")),
            "out": written,
            "files": listing(tmp)}


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden["cases"]) == sorted(map(case_id, CASES))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_bytes(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    want = json.loads(GOLDEN.read_text())["cases"][case_id(case)]
    assert observe(case, tmp_path) == want


def record() -> None:
    """Rewrite the golden file from the current source."""
    os.environ["COLUMNS"] = "80"
    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case_id(case)] = observe(case, Path(tmp).resolve())
    GOLDEN.write_text(json.dumps(
        {"python": sys.version.split()[0], "cases": cases}, indent=1) + "\n")
    print(f"{len(cases)} cases written to {GOLDEN}")


if __name__ == "__main__":
    record()
