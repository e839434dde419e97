"""Command-line front end.

Subcommands: `enum` (face listing + census check), `match` (matching dump
and verification), `basis` (homology basis chains, optional oracle
certification), `betti` (closed-form / census / oracle comparison table).
Every verification command prints a final machine-readable line
`RESULT pass ...` or `RESULT fail ...`; exit codes are 0 for pass, 1 for a
verification failure, 2 for a usage error.

`main` owns each run: it rejects a global flag the command does not
read, requires --n and --k where read, opens the --out file (`_Sink`)
before any work, prints the `RESULT fail ... error=<Class>` line for the
library's errors and for an --out file that cannot be written or renamed
into place (an `OSError`), followed by the `k=`, `face=` and `dim=` the
error names, and on every way out removes a temporary --out file that
was not renamed into place.  The `cmd_*` handlers do only their
command's work.  A run killed by a signal may leave `.NAME.PID.tmp`
behind; a closed stdout (`| head`) ends the run with exit 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from collections.abc import Iterable

from . import faces, morse, snf
from . import subcomplex as subc
from .chains import ChainComplex, ChainError

ORACLE_N_CAP = 9  # SNF cost grows quickly; require --force beyond this

# strings `_Sink.write` joins into one write: few enough that the strings
# a block holds stay small, many enough that a write is not made per line
BLOCK = 8192

# the library's own errors; every command reports them as a failed RESULT
# line instead of a traceback
LIBRARY_ERRORS = (faces.FaceError, ChainError, morse.MorseError,
                  subc.SubcomplexError, snf.OracleError)


def _global_flags(p: argparse.ArgumentParser, default) -> None:
    """Flags accepted before and after the subcommand.  The main parser's
    default None marks a flag not given; the subparsers pass SUPPRESS so
    that a value given before the subcommand is kept."""
    p.add_argument("--n", type=int, default=default)
    p.add_argument("--k", type=int, default=default)
    p.add_argument("--dim", type=int, default=default)
    p.add_argument("--out", default=default)
    p.add_argument("-v", "--verbose", action="store_true", default=default)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="halfcube",
        description="Half-cube face complexes: enumeration, complete acyclic "
                    "matching, homology bases, Betti tables.")
    _global_flags(p, None)
    sub = p.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enum", help="enumerate faces and check the census")
    _global_flags(enum, argparse.SUPPRESS)

    match = sub.add_parser("match", help="dump the matching, optionally verify it")
    _global_flags(match, argparse.SUPPRESS)
    match.add_argument("--face", default=None,
                       help="print only this face's partner and rule")
    match.add_argument("--verify", action="store_true",
                       help="run involution/exclusivity/codimension/"
                            "completeness/acyclicity checks")

    basis = sub.add_parser("basis", help="homology basis chains for one (n, k)")
    _global_flags(basis, argparse.SUPPRESS)
    basis.add_argument("--certify", action="store_true",
                       help="certify independence/generation with the SNF oracle")

    betti = sub.add_parser("betti", help="Betti table across n and k")
    _global_flags(betti, argparse.SUPPRESS)
    betti.add_argument("--n-max", type=int, default=8)
    betti.add_argument("--n-min", type=int, default=4)
    betti.add_argument("--include-k-eq-n", action="store_true",
                       help="add the k = n rows (closed forms only)")
    betti.add_argument("--oracle", action="store_true",
                       help="fill the oracle column, the SNF rank in degree k-1, "
                            "and fail a row with homology in any other degree "
                            "or torsion (n <= %d)" % ORACLE_N_CAP)
    betti.add_argument("--force", action="store_true",
                       help="run the oracle above the n cap")
    # usage errors found after parsing go through the subcommand's parser
    for cmd in sub.choices.values():
        cmd.set_defaults(parser=cmd)
    return p


class _Sink:
    """Where a command's data lines go: the --out file, or stdout.

    A regular --out file is written under a temporary name in its
    directory (a symlink's in its target's).  The constructor opens that
    file before any work, so that a path which cannot be written, such
    as one in /proc, is found first (as a ValueError naming the problem);
    `write` renames it into place after the last line, and `close`
    removes it when the run ends without that, so a failed command never
    leaves a partial file.  A non-regular target, such as /dev/null, is
    written directly.
    """

    def __init__(self, path: str | None):
        if path is not None and os.path.islink(path):
            path = os.path.realpath(path)  # written through to the link's target
        self.path = path
        self.tmp = None
        self.fh = sys.stdout
        if path is None:
            return
        head, tail = os.path.split(path)
        if os.path.isdir(path):
            raise ValueError("is a directory")
        if not os.path.isdir(head or "."):
            raise ValueError(f"no such directory {head}")
        if not tail:
            raise ValueError("names no file")
        if not os.path.exists(path) or os.path.isfile(path):
            self.tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            self.fh = open(self.tmp or path, "w")
        except OSError as e:
            why = f"create a file in {head or '.'}" if self.tmp else "open it"
            raise ValueError(f"cannot {why} ({e.strerror})") from None

    def write(self, parts: Iterable[str]) -> None:
        """Write the parts end to end, joined into blocks of `BLOCK`
        parts, then put the --out file in place."""
        parts = iter(parts)
        blocks = iter(lambda: list(itertools.islice(parts, BLOCK)), [])
        self.fh.writelines(map("".join, blocks))
        if self.path is not None:
            self.fh.close()
        if self.tmp is not None:
            os.replace(self.tmp, self.path)
            self.tmp = None

    def close(self) -> None:
        """Close the --out file, and remove the temporary file unless
        `write` has put it in place.  A run that ends here without `write`
        doing so has failed already, so a flush that fails as the file
        closes is not reported a second time."""
        if self.path is not None:
            with contextlib.suppress(OSError):
                self.fh.close()
        if self.tmp is not None:
            os.remove(self.tmp)


def cmd_enum(args, parser, sink) -> int:
    n = args.n
    if args.dim is not None and not -1 <= args.dim <= n:
        parser.error(f"--dim must satisfy -1 <= dim <= n, got dim={args.dim}, n={n}")
    table = faces.enumerate_faces(n)  # raises on a census mismatch
    dims = [args.dim] if args.dim is not None else sorted(table.cells)
    sink.write(table.jsonl_parts(dims))
    for d, count in table.counts().items():
        print(f"dim {d:2d}: {count:8d} ok")
    print(f"RESULT pass n={n} cells={table.size}")
    return 0


def cmd_match(args, parser, sink) -> int:
    n = args.n
    if args.face is not None:
        if args.verify:
            parser.error("--verify cannot be combined with --face")
        try:
            f = faces.parse_seq(args.face, n)
        except faces.FaceError as e:
            parser.error(str(e))
        partner, rule = morse.match_face(f, n)
        print(json.dumps({"face": f, "partner": partner, "rule": rule}))
        print(f"RESULT pass n={n} face={f}")
        return 0
    table = faces.enumerate_faces(n)
    m = morse.build_matching(table)
    sink.write(m.jsonl_parts())
    if args.verify:
        bad = morse.exclusivity_violation(m)
        if bad is not None:
            d, i = bad
            f = table.faces(d)[i]
            bits = morse.applicable_rules(f, d)
            print(f"RESULT fail n={n} exclusivity face={f} "
                  f"rules={[r for r in range(1, 12) if bits >> r & 1]}")
            return 1
        report = morse.verify_acyclic(m, table)
        if args.verbose:
            print(json.dumps(report))
        # build_matching has already checked that every face is paired
        if not report["acyclic"]:
            layer = next(l for l in report["layers"] if l["cycle"] is not None)
            print(f"RESULT fail n={n} acyclic=false layer={layer['p']} "
                  f"face={layer['cycle'][0]}")
            return 1
        print(f"pairs: {m.pair_count()}, unpaired: 0, cycles: none")
    print(f"RESULT pass n={n} pairs={m.pair_count()}")
    return 0


def cmd_basis(args, parser, sink) -> int:
    n, k = args.n, args.k
    table = faces.enumerate_faces(n)
    cx = ChainComplex(table)
    basis = subc.homology_basis(n, k, table, cx)
    sink.write(s + "\n" for s in basis.jsonl_lines())
    ok = len(basis.ids) == subc.betti_power(n, k)
    if args.certify:
        verdict = snf.class_independence(cx.boundary(k), basis.ids,
                                         subc.subcomplex_faces(k, table), cx)
        print(f"independent and generating: {str(verdict.ok).lower()}")
        if args.verbose:
            print(json.dumps(verdict.detail))
        ok = ok and verdict.ok
    print(f"RESULT {'pass' if ok else 'fail'} n={n} k={k} chains={len(basis.ids)}")
    return 0 if ok else 1


def _betti_rows(n: int, args) -> tuple[list[tuple], tuple[int, str] | None]:
    """The Betti table rows of one n, and the (k, column) of the first
    column that disagrees with betti_binomial, or None.  The whole C_{n,k}
    family is restricted, and with --oracle reduced, once."""
    rows = []
    first_bad = None
    table = faces.enumerate_faces(n)
    specs = subc.build_family(morse.build_matching(table))
    # cmd_betti has checked the n cap
    reports = snf.family_homology(ChainComplex(table)) if args.oracle else {}
    k_top = n + 1 if args.include_k_eq_n else n
    for k in range(3, k_top):
        a = subc.betti_binomial(n, k)
        b = subc.betti_power(n, k)
        bad = [] if a == b else ["betti_power"]
        unmatched = oracle = ""
        if k < n:
            # build_family has checked that every unmatched cell has dim k-1
            unmatched = len(specs[k].unmatched)
            if unmatched != a:
                bad.append("unmatched")
            if args.oracle:
                h = reports[k]
                oracle = h["betti"][k - 1]
                # reduced homology free and concentrated in degree k-1
                if (oracle != a or h["torsion"]
                        or any(h["betti"][d] for d in h["betti"] if d != k - 1)):
                    bad.append("oracle_rank")
        if bad and first_bad is None:
            first_bad = (k, bad[0])
        rows.append((n, k, a, b, unmatched, oracle))
    return rows, first_bad


def cmd_betti(args, parser, sink) -> int:
    if args.n_min < 4:
        parser.error("--n-min must be >= 4")
    if args.n_max < args.n_min:
        parser.error("--n-max must be >= --n-min")
    if args.oracle and args.n_max > ORACLE_N_CAP and not args.force:
        parser.error(f"--oracle runs up to n={ORACLE_N_CAP}; "
                     f"give --force to run it at --n-max {args.n_max}")
    rows = []
    failure = ""
    for n in range(args.n_min, args.n_max + 1):
        args.n = n  # the n a library error's RESULT line names
        n_rows, bad = _betti_rows(n, args)
        rows += n_rows
        if bad and not failure:
            failure = f" n={n} k={bad[0]} column={bad[1]}"
    sink.write(["n,k,betti_binomial,betti_power,unmatched,oracle_rank\n",
                *(",".join(map(str, row)) + "\n" for row in rows)])
    print(f"RESULT {'fail' if failure else 'pass'} rows={len(rows)}{failure}")
    return 1 if failure else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.parser
    opts = vars(args)
    # the global flags the command reads
    reads = {"enum": "n dim out", "match": "n out", "basis": "n k out",
             "betti": "out"}[args.command].split()
    if opts.get("verify") or opts.get("certify"):
        reads.append("verbose")
    if opts.get("face") is not None:
        reads = ["n"]
    unread = [f"--{d}" for d in ("n", "k", "dim", "out", "verbose")
              if opts[d] is not None and d not in reads]
    if unread:
        parser.error(f"{args.command} does not use {', '.join(unread)}")
    try:
        sink = _Sink(args.out)
    except ValueError as e:
        parser.error(f"--out {args.out}: {e}")
    try:
        if "n" in reads:
            if args.n is None:
                parser.error("--n is required")
            if args.n < 4:
                parser.error(f"--n must be >= 4, got {args.n}")
        if "k" in reads:
            if args.k is None:
                parser.error("--k is required")
            if not 3 <= args.k < args.n:
                parser.error(f"--k must satisfy 3 <= k < n, got k={args.k}, n={args.n}")
        # looked up by name at call time, so that a wrapped handler runs
        return globals()[f"cmd_{args.command}"](args, parser, sink)
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: exit quietly, and point
        # stdout at os.devnull so that the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (*LIBRARY_ERRORS, OSError) as e:
        # a library error, or an --out file that could not be written or
        # renamed into place; the line names the error's k, face and dim too
        where = {d: opts[d] for d in ("n", "k") if opts[d] is not None}
        named = {a: v for a in ("k", "face", "dim")
                 if (v := getattr(e, a, None)) is not None and a not in where}
        print(f"error: {e}", file=sys.stderr)
        print(" ".join(["RESULT fail", *(f"{d}={v}" for d, v in where.items()),
                        f"error={type(e).__name__}",
                        *(f"{a}={v}" for a, v in named.items())]))
        return 1
    finally:
        sink.close()


if __name__ == "__main__":
    sys.exit(main())
