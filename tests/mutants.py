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
GOLDEN_PAIRS = "tests/test_reduction_golden.py::test_pairs_equal_golden"

MUTANTS = [
    # snf._Reduction: the pairing moves
    Mutant("coreduction-pairs-non-unit", SNF,
           "coreduce = signs[d][t] == 1 or signs[d][t] == -1",
           "coreduce = True",
           (PLANTED,)),
    Mutant("collapse-pairs-non-unit", SNF,
           "                if signs[d + 1][t] != 1 and signs[d + 1][t] != -1:\n"
           "                    continue\n",
           "",
           (PLANTED,)),
    Mutant("last-in-queue", SNF,
           "popleft, push = queue.popleft, queue.append",
           "popleft, push = queue.pop, queue.append",
           (REDUCTION + "test_every_cell_pairs_off[7]",
            REDUCTION + "test_certificate_eliminates_only_the_reduced_stack[7]")),
    Mutant("seed-ascending-within-dimension", SNF,
           "for i in reversed(range(len(alive[d]))) if alive[d][i]",
           "for i in range(len(alive[d])) if alive[d][i]",
           (GOLDEN_PAIRS + "[4]", GOLDEN_PAIRS + "[8]")),
    # the neighbour update after a pair: b's cofaces keep b in their counts
    Mutant("reduction-b-cofaces-not-counted", SNF,
           "(d, b, not coreduce, d < top)", "(d, b, not coreduce, False)",
           (GOLDEN_PAIRS + "[4]", REDUCTION + "test_every_cell_pairs_off[5]")),
    Mutant("pair-count-off-by-a-dimension", SNF,
           "pairs = self.pairs[d] if d < len(self.pairs) else 0",
           "pairs = self.pairs[d - 1] if 0 < d <= len(self.pairs) else 0",
           (REDUCTION + "test_reports_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]",
            REDUCTION + "test_random_combinations_equal_reference[4]")),
    # snf._Reduction.project: the cycles carried through the pairs
    Mutant("projection-subtraction-skipped", SNF,
           "            if not z:\n                continue\n",
           "            continue\n",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
    Mutant("projection-sign-dropped", SNF,
           "w = row.get(j, 0) - c * eps * s", "w = row.get(j, 0) - c * s",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_random_combinations_equal_reference[5]",
            REDUCTION + "test_random_combinations_equal_reference[6]")),
    Mutant("projection-boundary-not-restricted", SNF,
           "                if not alive[f]:\n"
           "                    continue  # l itself, or a cell paired or dropped\n",
           "",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
    Mutant("projection-upper-coefficient-kept", SNF,
           "            alive[u] = 0\n", "            pass\n",
           (REDUCTION + "test_random_combinations_equal_reference[4]",
            REDUCTION + "test_verdicts_equal_reference[4]")),
    # snf.class_independence: each column checked to be a cycle
    Mutant("certify-cycle-check-dropped", SNF,
           "            raise NotCycles(f\"a cycle's boundary is nonzero at {f!r}\", f)\n",
           "            pass\n",
           ("tests/test_snf.py::TestClassIndependence::test_non_cycle_rejected",
            "tests/test_cli.py::TestBasis::test_fail_line_names_where_a_boundary_is_nonzero")),
    # snf._sparse_snf: a heap record of a value the entry no longer holds
    Mutant("snf-dead-record-check-dropped", SNF,
           "            if abs(rows[r][c]) != key >> 2 * pbits:\n"
           "                continue  # another |v|, which has its own record\n",
           "",
           ("tests/test_snf.py::TestHeapElimination::"
            "test_record_of_another_value_is_skipped",)),
]


FACES = "halfcube/faces.py"
ENUMERATION = "tests/test_faces.py::TestEnumeration::"
REJECTS = ENUMERATION + "test_lookup_rejects_non_faces"
ACYCLICITY = "tests/test_morse.py::TestAcyclicity::"
ENTRIES = "tests/test_morse.py::TestInducedOrderEntries::"
HOMOLOGY = "tests/test_snf.py::TestHomology::"
BASIS = "tests/test_subcomplex.py::TestHomologyBasis::"
CYCLE_CHECK = "tests/test_subcomplex.py::TestCycleCheckEqualsReference::"

MUTANTS += [
    # faces.FaceTable._locate: a face text looked up by its code
    Mutant("lookup-bisect-right", FACES,
           "i = bisect_left(codes, c)", "i = bisect_right(codes, c)",
           (ENUMERATION + "test_index_lookup",
            ENUMERATION + "test_reads_agree_before_and_after_lookups")),
    Mutant("lookup-equal-code-dropped", FACES,
           "if i < len(codes) and codes[i] == c:", "if i < len(codes):",
           (REJECTS + "[5-'0000I']", REJECTS + "[4-'00I1']",
            ENUMERATION + "test_reads_agree_before_and_after_lookups")),
    Mutant("lookup-symbol-check-dropped", FACES,
           "        if b.translate(None, _CODE_BYTES):\n"
           "            return None  # a symbol other than * 0 1 I O\n",
           "",
           (REJECTS + "[4-'0021']", REJECTS + "[4-'00io']")),
    # faces.enumerate_faces
    Mutant("O-before-I", FACES,
           "(UND1, plain.get((u - 1, 1 - p), [])), (UND0, plain.get((u - 1, p), [])))",
           "(UND0, plain.get((u - 1, p), [])), (UND1, plain.get((u - 1, 1 - p), [])))",
           (ENUMERATION + "test_equals_reference_enumeration[4]",
            "tests/test_faces.py::TestFacetIndex::test_codes_order_as_the_texts")),
    Mutant("canonical-edge-class-dropped", FACES,
           "1: _text(_canon_parts(plain, canon, 2, 1))", "1: _text(_plain_parts(plain, 2, 1))",
           (ENUMERATION + "test_n4_counts",
            ENUMERATION + "test_equals_reference_enumeration[4]")),
    Mutant("census-check-dropped", FACES,
           "    if got != want:\n", "    if False:\n",
           (ENUMERATION + "test_census_mismatch_raises",)),
    # in a dimension d >= 3, the simplex and half-cube suffixes under one
    # prefix written one run after the other: every count stays right, only
    # the order is wrong.  Both sides reach one list only from n = 8, where
    # the lists of the nested classes hold four symbols
    Mutant("enumeration-star-run-not-merged", FACES,
           "        return sorted(a + b)\n", "        return a + b\n",
           (ENUMERATION + "test_text_equals_per_face_enumeration[8]",
            ENUMERATION + "test_equals_reference_enumeration[8]")),
    # the same, one level up: the two sides' parts under one prefix
    Mutant("enumeration-nested-merge-concatenated", FACES,
           "    return tuple(sorted(merged.items()))\n", "    return a + b\n",
           (ENUMERATION + "test_text_equals_per_face_enumeration[5]",
            ENUMERATION + "test_equals_reference_enumeration[5]")),
    # chains: the closed-form incidence signs
    Mutant("epsilon-flipped-for-m5-odd", "halfcube/chains.py",
           "return -1 if ((m - 1) // 2 + parity) % 2 else 1",
           "return -1 if ((m - 1) // 2 + parity + (m == 5 and parity)) % 2 else 1",
           ("tests/test_chains.py::TestClosedForms::test_epsilon_is_the_frame_sign[6]",
            "tests/test_chains.py::TestBoundaryMatrix::"
            "test_chain_condition_pins_sigma_and_reference_pins_epsilon")),
    # morse: the induced order and the triangular solver
    Mutant("kahn-edge-dropped", "halfcube/morse.py",
           "if u >= 0 and i != e:", "if u > 0 and i != e:",
           (ACYCLICITY + "test_planted_cycle_is_found",
            ACYCLICITY + "test_planted_cycle_raises_in_morse_boundary[first]")),
    # every level reads the first entry the matching made
    Mutant("induced-order-entry-ignores-level", "halfcube/morse.py",
           "entry = self._induced.get(k)",
           "entry = next(iter(self._induced.values()), None)",
           (ENTRIES + "test_one_pass_per_level[verify-first]",
            ENTRIES + "test_up_ids_are_the_reference_order[4]",
            "tests/test_morse.py::TestMorseBoundary::test_equals_string_reference[4]")),
    Mutant("triangular-row-bound-dropped", "halfcube/morse.py",
           "if r not in seg or max(seg) > r or", "if r not in seg or",
           ("tests/test_morse.py::TestMorseBoundary::"
            "test_planted_defects_break_triangularity",)),
    # snf.check_closed and subcomplex.homology_basis
    Mutant("closed-empty-face-reversed", SNF,
           "if 1 in sub.mask(0) and 1 not in sub.mask(-1):",
           "if 1 in sub.mask(0) and 1 in sub.mask(-1):",
           (HOMOLOGY + "test_vertex_needs_the_empty_face",
            HOMOLOGY + "test_full_complex_contractible[4]")),
    Mutant("basis-column-shifted", "halfcube/subcomplex.py",
           "array(\"i\", [j for j, f in zip(starred", "array(\"i\", [j - 1 for j, f in zip(starred",
           (BASIS + "test_chains_are_cycles", BASIS + "test_5_3_has_31_chains")),
    Mutant("basis-cycle-check-dropped", "halfcube/subcomplex.py",
           "if same != sorted(itertools.compress(rows, agree.translate(_FLIP))):",
           "if False:",
           (BASIS + "test_boundary_that_is_not_a_cycle_is_an_error",)),
    # the cycle check's +-1 premise, and its last column
    Mutant("basis-sign-premise-unchecked", "halfcube/subcomplex.py",
           "    if t >= 0:\n        f = cells[bisect_right(bmat.offsets, t) - 1]\n",
           "    if False:\n        f = cells[bisect_right(bmat.offsets, t) - 1]\n",
           (CYCLE_CHECK + "test_sign_of_two_is_a_premise_error[4-3-k]",
            CYCLE_CHECK + "test_sign_of_two_is_a_premise_error[7-6-k-1]")),
    Mutant("basis-last-column-skipped", "halfcube/subcomplex.py",
           "    for j in ids:\n        rows, agree = [], bytearray()\n",
           "    for j in ids[:-1]:\n        rows, agree = [], bytearray()\n",
           (CYCLE_CHECK + "test_flipped_sign_is_rejected_at_the_same_face[4-3-last]",
            CYCLE_CHECK + "test_flipped_sign_is_rejected_at_the_same_face[7-6-last]")),
]


CLI = "halfcube/cli.py"
CLI_TESTS = "tests/test_cli.py::"
OUT_PATH = CLI_TESTS + "TestOutPath::"

MUTANTS += [
    # cli: the temporary --out file
    Mutant("cli-finally-close-dropped", CLI,
           "    finally:\n        sink.close()\n", "    finally:\n        pass\n",
           (CLI_TESTS + "TestEnum::test_library_error_is_a_fail_line",
            CLI_TESTS + "TestMatch::test_library_error_is_a_fail_line",
            CLI_TESTS + "TestBetti::test_library_error_is_a_fail_line",
            OUT_PATH + "test_out_turned_directory_leaves_no_temporary_file[basis]")),
    Mutant("cli-rename-before-write", CLI,
           "        self.fh.writelines(map(\"\".join, blocks))\n"
           "        if self.path is not None:\n"
           "            self.fh.close()\n"
           "        if self.tmp is not None:\n"
           "            os.replace(self.tmp, self.path)\n"
           "            self.tmp = None\n",
           "        if self.tmp is not None:\n"
           "            os.replace(self.tmp, self.path)\n"
           "            self.tmp = None\n"
           "        self.fh.writelines(map(\"\".join, blocks))\n"
           "        if self.path is not None:\n"
           "            self.fh.close()\n",
           (CLI_TESTS + "TestBasis::test_failure_mid_write_leaves_no_file",
            OUT_PATH + "test_failure_mid_write_keeps_the_old_file")),
]


MUTANTS += [
    # a table that is not the one the matching or complex holds
    Mutant("morse-table-check-dropped", "halfcube/morse.py",
           "    if table is not m.table:\n"
           "        raise MorseError(\"the table given is not the matching's\")\n",
           "",
           ("tests/test_morse.py::TestMixedTables::"
            "test_table_not_the_owners_is_an_error[verify_acyclic]",
            "tests/test_morse.py::TestMixedTables::"
            "test_table_not_the_owners_is_an_error[verify_acyclic-equal-table]")),
    Mutant("subcomplex-table-check-dropped", "halfcube/subcomplex.py",
           "if owner is not None and owner.table is not table:",
           "if False:",
           ("tests/test_subcomplex.py::TestBuildSubcomplex::"
            "test_table_must_be_the_owners[matching]",
            "tests/test_subcomplex.py::TestBuildSubcomplex::"
            "test_table_must_be_the_owners[complex]",
            "tests/test_subcomplex.py::TestBuildSubcomplex::"
            "test_table_must_be_the_owners[equal-table]")),
    # snf.homology: reduced homology has no negative degree to report
    Mutant("snf-negative-degree-accepted", SNF,
           "    if degree < 0:\n"
           "        raise OracleError(f\"degree must be >= 0, got {degree}\")\n",
           "",
           (HOMOLOGY + "test_negative_degree_is_an_error[C53--1]",
            HOMOLOGY + "test_negative_degree_is_an_error[C53--2]",
            HOMOLOGY + "test_negative_degree_is_an_error[empty--1]")),
]


GOLDEN = "tests/test_cli_golden.py::test_cli_bytes"

MUTANTS += [
    # the package surface: no layer loads with the package
    Mutant("init-eager-import", "halfcube/__init__.py",
           "import importlib\n", "import importlib\n\nfrom .snf import homology\n",
           ("tests/test_package.py::TestLazyImport::"
            "test_enumeration_loads_faces_alone",)),
    # faces._JSONL_TAIL: the enum line written without json.dumps
    Mutant("faces-jsonl-spacing", FACES,
           "'\", \"dim\": %d, \"kind\"", "'\", \"dim\":%d, \"kind\"",
           ("tests/test_faces.py::TestJson::test_line_is_the_json_dump[4]",
            GOLDEN + "[--n 4 enum]", GOLDEN + "[--n 5 --dim 2 enum]")),
]

FAMILY = "tests/test_snf.py::TestFamily::"
MATCHING_PLANTS = ("tests/test_morse.py::TestMatchingArrays::"
                   "test_planted_defect_as_string_reference")
SUBCOMPLEX = "tests/test_subcomplex.py::TestBuildSubcomplex::"

MUTANTS += [
    # subcomplex._restrict: a cell is external from its partner's level on
    Mutant("family-halfcube-partner-kept-for-every-k", "halfcube/subcomplex.py",
           "for k in range(max(levels[dg][j], ks[0]), min(level[i], ks[-1] + 1)):",
           "for k in range(ks[0], min(level[i], ks[-1] + 1)):",
           (SUBCOMPLEX + "test_equals_string_set_reference[5]",
            SUBCOMPLEX + "test_family_equals_one_subcomplex_at_a_time[8]",
            CLI_TESTS + "TestBetti::test_columns_agree")),
    # snf.family_homology (`_family`): the cells attached through the chain map
    Mutant("family-projection-skips-a-pair", SNF,
           "for l, u in itertools.compress(zip(self.lower, self.upper), downs):",
           "for l, u in itertools.islice(itertools.compress(\n"
           "                zip(self.lower, self.upper), downs), 1, None):",
           (FAMILY + "test_reports_equal_per_subset[5]",
            FAMILY + "test_reports_equal_per_subset[6]")),
    Mutant("family-projection-epsilon-dropped", SNF,
           "eps = signs[a + flat[a:b].index(l)]", "eps = 1",
           (FAMILY + "test_attached_complexes_are_chain_complexes[6]",
            FAMILY + "test_attached_complexes_are_chain_complexes[7]")),
    Mutant("family-h3-attached-without-projection", "halfcube/_family.py",
           "for i, z in red.project(bmat, attached).items():",
           "for i, z in {i: {j: v for j, c in enumerate(attached)\n"
           "                                 if (v := bmat.column_chain(c).coeffs.get(i))}\n"
           "                             for i in red.left.indices(d - 1)}.items():",
           (FAMILY + "test_reports_equal_per_subset[5]",
            FAMILY + "test_reports_equal_reference[5]")),
    # chains.halfcube_epsilon past the tables the other tests enumerate
    Mutant("epsilon-flipped-above-7", "halfcube/chains.py",
           "return -1 if ((m - 1) // 2 + parity) % 2 else 1",
           "return -1 if ((m - 1) // 2 + parity + (m >= 8 and parity)) % 2 else 1",
           ("tests/test_chains.py::TestClosedForms::"
            "test_halfcube_class_past_n7_equals_reference[8-1]",
            "tests/test_chains.py::TestClosedForms::"
            "test_halfcube_class_past_n7_equals_reference[9-1]")),
    # the coface index of each boundary and the counts taken per call
    Mutant("coface-count-keeps-outside-cells", SNF,
           "        for c in itertools.compress(range(len(out)), out):\n"
           "            for f in fl[off[c]:off[c + 1]]:\n"
           "                count[f] -= 1\n",
           "",
           ("tests/test_snf.py::TestCofaceIndex::test_subsets_equal_reference[4]",
            GOLDEN_PAIRS + "[5]")),
    Mutant("coface-offsets-shifted", "halfcube/chains.py",
           'array("i", accumulate(map(len, lists), initial=0))',
           'array("i", accumulate(map(len, lists), initial=1))',
           ("tests/test_snf.py::TestCofaceIndex::test_subsets_equal_reference[4]",
            "tests/test_snf.py::TestCofaceIndex::test_attached_complexes_equal_reference[5]",
            GOLDEN_PAIRS + "[4]")),
    # the matching's per-dimension arrays: a partner below is held as ~j
    Mutant("restrict-down-partner-not-complemented", "halfcube/subcomplex.py",
           "dg, j = (d + 1, g) if g >= 0 else (d - 1, ~g)",
           "dg, j = (d + 1, g) if g >= 0 else (d - 1, -g)",
           (SUBCOMPLEX + "test_equals_string_set_reference[5]",)),
    Mutant("validate-down-backpointer-dropped", "halfcube/morse.py",
           "            if q != back:\n", "            if p >= 0 and q != back:\n",
           (MATCHING_PLANTS + "[one_way_down]",)),
    # cli.main: the failing RESULT line names the error's face
    Mutant("cli-fail-line-drops-face", CLI,
           '                        *(f"{a}={v}" for a, v in named.items())]))',
           "                        ]))",
           (CLI_TESTS + "TestBetti::test_fail_line_names_the_first_bad_face[closure]",
            CLI_TESTS + "TestBetti::test_fail_line_names_the_first_bad_face[leak]")),
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
