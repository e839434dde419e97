"""The command-line contract, fuzzed: argv drawn from the four
subcommands' flags, with values at and around their bounds, must give
exit 0, 1 or 2; a usage error (2) prints the subcommand's usage line and
no RESULT line, any other run ends with its one RESULT line; nothing
prints a traceback, and no temporary --out file is left behind."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from halfcube.cli import main

COMMANDS = ("enum", "match", "basis", "betti")
# valid faces at some n in 3..6, and texts that are faces at none
FACE_TEXTS = ("1100", "EMPTY", "O1I0O", "**1*0", "0000", "IO00", "OI00",
              "0000I", "xyzw", "", "00i0", "*0*0")
GLOBAL = ("--n", "--k", "--dim", "--out", "-v")
OUT_TARGETS = ("file", "dev_null", "directory", "missing_directory",
               "no_new_files", "no_name")


@st.composite
def command_lines(draw):
    """(argv, the --out target or None) for one command: the flags the
    command reads, with values at and past their bounds, and now and
    then a stray global flag it does not read."""
    command = draw(st.sampled_from(COMMANDS))
    before: list[str] = []
    after: list[str] = []

    def flag(name, *value):
        # a global flag goes on either side of the subcommand
        side = before if name in GLOBAL and draw(st.booleans()) else after
        side += [name, *map(str, value)]

    def sometimes(name, *value, chance=2):
        if draw(st.integers(1, chance)) == 1:
            flag(name, *value)

    def value(lo, hi, past):
        # mostly within [lo, hi], one draw in five among `past`
        if draw(st.integers(0, 4)) < 4:
            return draw(st.integers(lo, hi))
        return draw(st.sampled_from(past))

    n = value(4, 6, (3,))
    if command != "betti" and draw(st.integers(0, 7)):  # --n left out 1 in 8
        flag("--n", n)
    face = command == "match" and draw(st.integers(0, 3)) == 0
    if command == "enum":
        sometimes("--dim", value(-1, n, (-2, n + 1)))
    elif face:
        flag("--face", draw(st.sampled_from(FACE_TEXTS)))
    elif command == "match":
        sometimes("--verify")
    elif command == "basis":
        flag("--k", value(3, max(3, n - 1), (2, n, n + 1)))
        sometimes("--certify")
    else:  # always bounded, since the default --n-max is 8
        n_max = value(4, 6, (3,))
        flag("--n-max", n_max)
        sometimes("--n-min", value(4, max(4, n_max), (3, n_max + 1)))
        for name in ("--oracle", "--force", "--include-k-eq-n"):
            sometimes(name, chance=3)
    if "--verify" in after or "--certify" in after:
        sometimes("-v")
    out = None
    if not face and draw(st.booleans()):
        out = draw(st.sampled_from(OUT_TARGETS))
        flag("--out", "{out}")
    if draw(st.integers(0, 5)) == 5:  # a flag the command may not read
        stray = draw(st.sampled_from(("--n", "--k", "--dim", "-v")))
        flag(stray, *([] if stray == "-v" else [draw(st.integers(-1, 7))]))
    return [*before, command, *after], out


@contextlib.contextmanager
def inside(directory):
    """Run in `directory`, so that a relative --out lands there."""
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def out_path(target: str, tmp: Path) -> str:
    return {"file": str(tmp / "out.txt"),
            "directory": str(tmp),
            "missing_directory": str(tmp / "nowhere" / "out.txt"),
            "no_new_files": "/proc/out.txt",
            "no_name": "",
            "dev_null": "/dev/null"}[target]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(command_lines())
def test_contract(drawn):
    argv, target = drawn
    command = next(a for a in argv if a in COMMANDS)
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        if target is not None:
            argv = [out_path(target, Path(tmp)) if a == "{out}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        left = sorted(p.name for p in Path(tmp).rglob(".*.tmp"))
    out, err = out.getvalue(), err.getvalue()
    results = [line for line in out.splitlines() if line.startswith("RESULT")]
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err.startswith(f"usage: halfcube {command} [-h]"), argv
        assert f"\nhalfcube {command}: error: " in err, argv
        assert results == [], argv
    else:
        assert len(results) == 1 and out.splitlines()[-1] == results[0], argv
        assert results[0].startswith("RESULT pass" if code == 0 else "RESULT fail"), argv
    assert left == [], argv
