import errno
import inspect
import json
import os
import socket
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import halfcube
from halfcube import chains, cli, faces, morse, snf
from halfcube import subcomplex as subc
from halfcube.chains import ChainError
from halfcube.cli import main
import reference
from reference import PLANTED_OFFENDERS, add_scaled, from_pairs, planted_defect


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


class TestEnum:
    def test_pass_and_result_last(self, capsys):
        code, lines = run(capsys, "--n", "4", "enum")
        assert code == 0
        assert lines[-1].startswith("RESULT pass n=4 cells=82")
        seqs = [json.loads(l) for l in lines if l.startswith("{")]
        assert len(seqs) == 82
        assert seqs[0] == {"seq": "EMPTY", "dim": -1, "kind": "empty"}

    def test_dim_filter(self, capsys):
        code, lines = run(capsys, "--n", "4", "--dim", "2", "enum")
        assert code == 0
        seqs = [json.loads(l) for l in lines if l.startswith("{")]
        assert len(seqs) == 32
        assert all(s["dim"] == 2 for s in seqs)

    def test_n_too_small_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "3", "enum"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "faces.jsonl"
        code, lines = run(capsys, "--n", "4", "enum", "--out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 82
        assert not any(l.startswith("{") for l in lines)

    def test_dim_bounds(self, capsys):
        code, lines = run(capsys, "--n", "4", "--dim", "-1", "enum")
        assert code == 0
        assert lines[0] == '{"seq": "EMPTY", "dim": -1, "kind": "empty"}'
        code, lines = run(capsys, "--n", "4", "--dim", "4", "enum")
        assert code == 0
        assert lines[0] == '{"seq": "****", "dim": 4, "kind": "halfcube"}'

    @pytest.mark.parametrize("dim", ["5", "-2"])
    def test_dim_out_of_range_is_usage_error(self, capsys, dim):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "4", "--dim", dim, "enum"])
        assert exc.value.code == 2

    def test_library_error_is_a_fail_line(self, capsys, monkeypatch, tmp_path):
        def broken(n):
            raise faces.FaceError("planted census mismatch")

        monkeypatch.setattr(faces, "enumerate_faces", broken)
        path = tmp_path / "faces.jsonl"
        code, lines = run(capsys, "--n", "4", "enum", "--out", str(path))
        assert code == 1
        assert lines == ["RESULT fail n=4 error=FaceError"]
        assert list(tmp_path.iterdir()) == []  # no temporary file either


class TestMatch:
    def test_verify(self, capsys):
        code, lines = run(capsys, "--n", "5", "match", "--verify",
                          "--out", "/dev/null")
        assert code == 0
        assert "pairs: 202, unpaired: 0, cycles: none" in lines
        assert lines[-1] == "RESULT pass n=5 pairs=202"

    def test_single_face(self, capsys):
        code, lines = run(capsys, "--n", "7", "match", "--face", "1110010")
        assert code == 0
        assert json.loads(lines[0]) == {
            "face": "1110010", "partner": "11I00O0", "rule": 9}

    def test_empty_face(self, capsys):
        code, lines = run(capsys, "--n", "4", "match", "--face", "EMPTY")
        assert code == 0
        assert json.loads(lines[0]) == {
            "face": "EMPTY", "partner": "0000", "rule": 11}

    def test_every_face_as_text_rewriting(self, capsys, tables):
        for f in tables(6):
            p, r = reference.match_face(f, 6)
            code, lines = run(capsys, "--n", "6", "match", "--face", f)
            assert code == 0
            assert lines == [json.dumps({"face": f, "partner": p, "rule": r}),
                             f"RESULT pass n=6 face={f}"]

    def test_planted_rule_tag_fails_exclusivity(self, capsys, monkeypatch):
        # the first rule-3 pair, tagged 7/8 instead: the tags stay inverse,
        # so the pair check passes, but rule 7 is a rule for edges
        build = morse.build_matching

        def planted(table):
            m = build(table)
            rules = {d: array("b", a) for d, a in m.rules.items()}
            d, i = next((d, a.index(3)) for d, a in rules.items() if 3 in a)
            rules[d][i], rules[d + 1][m.mate[d][i]] = 7, 8
            morse.validate_matching(m.mate, rules, table)
            return morse.MorseMatching(table, m.mate, rules)

        monkeypatch.setattr(morse, "build_matching", planted)
        code, lines = run(capsys, "--n", "5", "match", "--verify",
                          "--out", "/dev/null")
        assert code == 1
        assert lines == ["RESULT fail n=5 exclusivity face=01OOO rules=[3]"]

    MATCHING_FAIL_LINES = {
        "unpaired": "RESULT fail n=4 error=Unpaired face=0011",
        "involution": "RESULT fail n=4 error=InvolutionBroken face=0011",
        "codim": "RESULT fail n=4 error=NotCodimOne face=0011",
    }

    @pytest.mark.parametrize("defect", list(MATCHING_FAIL_LINES))
    def test_fail_line_names_the_first_bad_face(self, capsys, monkeypatch,
                                                tables, matchings, defect):
        # the defect planted at the first two rule-9 vertices, and a
        # triangle with no partner later in table order; the pair check
        # stops at the first vertex, which the line names
        t, m = tables(4), matchings(4)
        mate = {d: array("i", a) for d, a in m.mate.items()}
        v1, v2 = [i for i, r in enumerate(m.rules[0]) if r == 9][:2]
        vertices, edges = mate[0], mate[1]
        if defect == "unpaired":
            vertices[v1] = morse.UNPAIRED
        elif defect == "involution":  # v1 one way to v2's edge
            vertices[v1] = vertices[v2]
        else:  # v1 and v2 swap their edges, which do not hold them
            e1, e2 = vertices[v1], vertices[v2]
            vertices[v1], vertices[v2], edges[e1], edges[e2] = e2, e1, ~v2, ~v1
        mate[2][0] = morse.UNPAIRED
        monkeypatch.setattr(morse, "build_matching",
                            lambda table: morse.validate_matching(mate, m.rules, table))
        code, lines = run(capsys, "--n", "4", "match", "--verify",
                          "--out", "/dev/null")
        assert (code, lines) == (1, [self.MATCHING_FAIL_LINES[defect]])
        assert lines[0].endswith(f" face={t.faces(0)[v1]}")

    def test_bad_face_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "4", "match", "--face", "xyzw"])
        assert exc.value.code == 2

    def test_dump_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "--n", "4", "match", "--out", str(a))
        run(capsys, "--n", "4", "match", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dump_is_streamed(self, capsys, tmp_path, tables, matchings):
        # one JSON line per face, produced as parts of lines one at a time
        # and written in blocks of `cli.BLOCK` parts
        parts = matchings(4).jsonl_parts()
        assert iter(parts) is parts and not isinstance(parts, (list, tuple))
        path = tmp_path / "m.jsonl"
        run(capsys, "--n", "4", "match", "--out", str(path))
        parts = list(parts)
        assert path.read_text() == "".join(parts)
        assert len(parts) == 5 * 82 and len(path.read_text().splitlines()) == 82

    def test_planted_cycle_names_layer_and_face(self, capsys, monkeypatch,
                                                tables, quadrilateral_pairs):
        # the planted quadrilateral is checked in place of the real matching
        verify = morse.verify_acyclic
        bad = from_pairs(tables(4), quadrilateral_pairs)
        monkeypatch.setattr(morse, "verify_acyclic",
                            lambda m, table: verify(bad, bad.table))
        cycle = next(l["cycle"] for l in verify(bad, tables(4))["layers"]
                     if l["cycle"] is not None)
        code, lines = run(capsys, "--n", "4", "match", "--verify",
                          "--out", "/dev/null")
        assert code == 1
        assert lines == [f"RESULT fail n=4 acyclic=false layer=0 face={cycle[0]}"]
        assert cycle[0] in quadrilateral_pairs

    def test_library_error_is_a_fail_line(self, capsys, monkeypatch, tmp_path):
        def broken(table):
            raise morse.InvolutionBroken("planted")

        monkeypatch.setattr(morse, "build_matching", broken)
        path = tmp_path / "m.jsonl"
        code, lines = run(capsys, "--n", "4", "match", "--verify",
                          "--out", str(path))
        assert code == 1
        assert lines == ["RESULT fail n=4 error=InvolutionBroken"]
        assert list(tmp_path.iterdir()) == []  # no temporary file either


class TestBasis:
    def test_4_3_seven_chains(self, capsys):
        code, lines = run(capsys, "--n", "4", "--k", "3", "basis")
        assert code == 0
        chains = [json.loads(l) for l in lines if l.startswith("{")]
        assert len(chains) == 7
        assert lines[-1] == "RESULT pass n=4 k=3 chains=7"

    def test_certify(self, capsys):
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--certify")
        assert code == 0
        assert "independent and generating: true" in lines

    def test_doubled_chain_fails_certification(self, capsys, monkeypatch):
        # the basis columns are read-only, so chain 3 is doubled where the
        # certificate reads it
        certify = snf.class_independence

        def doubled(cols, ids, subset, cx):
            cycles = list(map(cols.column_chain, ids))
            cycles[3] = add_scaled(cycles[3], cycles[3])
            return certify(reference.columns(cycles), range(len(cycles)), subset, cx)

        monkeypatch.setattr(snf, "class_independence", doubled)
        code, lines = run(capsys, "--n", "5", "--k", "3", "basis", "--certify",
                          "--out", "/dev/null")
        assert code == 1
        assert lines == ["independent and generating: false",
                         "RESULT fail n=5 k=3 chains=31"]

    @pytest.mark.parametrize("sign,face", [(None, "***0"), (2, "III0")])
    def test_fail_line_names_the_chain_that_is_not_a_cycle(self, capsys, monkeypatch,
                                                            sign, face):
        # one sign of ∂_2 under the first basis chain of C_{4,3}, the one of
        # the chain's first facet III0: flipped, the line names the chain's
        # basis face; a 2 breaks the check's premise at III0's column
        def planted(table):
            cx = chains.ChainComplex(table)
            b3, b2 = cx.boundary(3), cx.boundary(2)
            first = table.index_of(subc.basis_faces(3, table)[0])
            t = b2.offsets[b3.flat[b3.offsets[first]]]
            new = -b2.signs[t] if sign is None else sign
            return reference.PlantedComplex(table, {2: reference.with_sign(b2, t, new)})

        monkeypatch.setattr(cli, "ChainComplex", planted)
        code, lines = run(capsys, "--n", "4", "--k", "3", "basis")
        assert (code, lines) == (1, [f"RESULT fail n=4 k=3 error=SubcomplexError face={face}"])

    def test_fail_line_names_the_first_face_not_closed(self, capsys, monkeypatch,
                                                        tables):
        # an edge and a triangle of C_{5,4} taken out, their cofaces kept:
        # the closure check stops at the first face in table order with a
        # facet gone, a triangle on the edge, which the line names
        t = tables(5)
        edge, triangle = t.faces(1)[3], t.faces(2)[-1]
        planted = set(subc.subcomplex_faces(4, t)) - {edge, triangle}
        first = next(f for f in t if f in planted
                     and any(g not in planted for g in reference.facets(f)))
        certify = snf.class_independence
        monkeypatch.setattr(snf, "class_independence",
                            lambda cols, ids, subset, cx: certify(cols, ids, planted, cx))
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--certify",
                          "--out", "/dev/null")
        assert (code, lines) == (1, ["RESULT fail n=5 k=4 error=NotClosed face=00IOO"])
        assert lines[0].endswith(f" face={first}") and edge in reference.facets(first)

    def test_fail_line_names_the_first_cell_a_cycle_leaves(self, capsys,
                                                           monkeypatch, tables,
                                                           complexes):
        # the open stars of a cell of the last basis cycle and of a later
        # cell of the first one taken out of C_{5,4}, which stays closed:
        # the cycles are checked in order, so the line names the first
        # cycle's cell
        t, cx = tables(5), complexes(5)
        cycles = subc.homology_basis(5, 4, t, cx).chains
        cells = t.faces(3)
        early = cells[list(cycles[0].coeffs)[-1]]
        late = next(cells[i] for i in cycles[-1].coeffs
                    if cells[i] != early and i not in cycles[0].coeffs)
        star = {early, late}
        for d in range(4, 6):
            star |= {f for f in t.faces(d) if star.intersection(reference.facets(f))}
        planted = set(subc.subcomplex_faces(4, t)) - star
        certify = snf.class_independence
        monkeypatch.setattr(snf, "class_independence",
                            lambda cols, ids, subset, cx: certify(cols, ids, planted, cx))
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--certify",
                          "--out", "/dev/null")
        assert (code, lines) == (1, ["RESULT fail n=5 k=4 error=NotCycles face=OOOI0"])
        assert lines[0].endswith(f" face={early}")

    def test_fail_line_names_where_a_boundary_is_nonzero(self, capsys, monkeypatch,
                                                         tables, complexes):
        # one sign of the first certified column flipped where the
        # certificate reads it: the column's boundary is then -2·s·∂g for
        # the facet g at that entry, and the line names the first 2-face,
        # in table order, of ∂g
        t, cx = tables(5), complexes(5)
        b4 = cx.boundary(4)
        first = subc.homology_basis(5, 4, t, cx).ids[0]
        e = b4.offsets[first]
        g = b4.flat[e]
        want = t.faces(2)[min(cx.boundary(3).column_chain(g).coeffs)]
        certify = snf.class_independence

        def flipped(cols, ids, subset, cx):
            return certify(reference.with_sign(cols, e, -cols.signs[e]), ids, subset, cx)

        monkeypatch.setattr(snf, "class_independence", flipped)
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--certify",
                          "--out", "/dev/null")
        assert (code, lines) == (1, ["RESULT fail n=5 k=4 error=NotCycles face=III00"])
        assert lines[0].endswith(f" face={want}")

    def test_fail_line_names_the_face_whose_facet_is_missing(self, capsys,
                                                             monkeypatch, tables):
        # a 3-cell dropped from the table: the facet index of the 4-cells,
        # whose boundaries are the basis chains, stops at the first 4-cell
        # on it, which the line names
        t = tables(5)
        gone = t.faces(3)[3]
        cells = {d: [f for f in c if f != gone] for d, c in t.cells.items()}
        monkeypatch.setattr(faces, "enumerate_faces", lambda n: reference.face_table(n, cells))
        first = next(f for f in t.faces(4) if gone in reference.facets(f))
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--out", "/dev/null")
        assert (code, lines) == (1, ["RESULT fail n=5 k=4 error=FaceError face=****1"])
        assert lines[0].endswith(f" face={first}")

    def test_k_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "5", "--k", "5", "basis"])
        assert exc.value.code == 2

    def test_library_error_is_a_fail_line(self, capsys, monkeypatch):
        def broken(*args):
            raise snf.NotCycles("planted")

        monkeypatch.setattr(snf, "class_independence", broken)
        code, lines = run(capsys, "--n", "5", "--k", "4", "basis", "--certify")
        assert code == 1
        assert lines[-1] == "RESULT fail n=5 k=4 error=NotCycles"
        assert not any("Traceback" in l for l in lines)

    def test_failure_mid_write_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        def broken(self):
            yield "{}"
            raise ChainError("planted")

        monkeypatch.setattr(subc.HomologyBasis, "jsonl_lines", broken)
        path = tmp_path / "basis.jsonl"
        code, lines = run(capsys, "--n", "4", "--k", "3", "basis",
                          "--out", str(path))
        assert code == 1
        assert lines[-1] == "RESULT fail n=4 k=3 error=ChainError"
        assert list(tmp_path.iterdir()) == []

    def test_chain_error_names_its_dimension(self, capsys, monkeypatch, tmp_path):
        # one sign dropped from every simplex face's column: the first
        # boundary the basis builds, of the 3-cells, fails its count check
        signs = chains.simplex_signs
        monkeypatch.setattr(chains, "simplex_signs", lambda p: signs(p)[:-1])
        path = tmp_path / "basis.jsonl"
        code, lines = run(capsys, "--n", "5", "--k", "3", "basis",
                          "--out", str(path))
        assert (code, lines) == (1, ["RESULT fail n=5 k=3 error=ChainError dim=3"])
        assert list(tmp_path.iterdir()) == []

    def test_out_file_replaces_old_content(self, capsys, tmp_path):
        path = tmp_path / "basis.jsonl"
        path.write_text("stale\n")
        code, lines = run(capsys, "--n", "4", "--k", "3", "basis",
                          "--out", str(path))
        assert code == 0
        assert len(path.read_text().splitlines()) == 7
        assert list(tmp_path.iterdir()) == [path]


class TestBetti:
    def test_columns_agree(self, capsys):
        code, lines = run(capsys, "betti", "--n-max", "6")
        assert code == 0
        rows = [l.split(",") for l in lines[1:] if l and not l.startswith("RESULT")]
        for row in rows:
            assert row[2] == row[3] == row[4]

    def test_row_4_3_with_oracle(self, capsys):
        code, lines = run(capsys, "betti", "--n-max", "4", "--oracle")
        assert code == 0
        assert "4,3,7,7,7,7" in lines

    def test_oracle_fills_n7_without_force(self, capsys):
        code, lines = run(capsys, "betti", "--n-max", "7", "--oracle")
        assert code == 0
        rows = [l.split(",") for l in lines[1:] if l.startswith("7,")]
        assert [r[1] for r in rows] == ["3", "4", "5", "6"]
        for row in rows:
            assert row[5] == row[2] == row[4]

    def test_oracle_above_the_cap_is_usage_error(self, capsys, monkeypatch):
        def no_work(n):
            raise AssertionError("faces enumerated before the usage check")

        monkeypatch.setattr(faces, "enumerate_faces", no_work)
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--n-min", "10", "--n-max", "10", "--oracle"])
        assert exc.value.code == 2
        assert "n=9" in capsys.readouterr().err

    def test_k_eq_n_rows(self, capsys):
        code, lines = run(capsys, "betti", "--n-max", "5", "--include-k-eq-n")
        assert code == 0
        assert any(l.startswith("4,4,1,1") for l in lines)
        assert any(l.startswith("5,5,1,1") for l in lines)

    def test_header(self, capsys):
        code, lines = run(capsys, "betti", "--n-max", "4")
        assert lines[0] == "n,k,betti_binomial,betti_power,unmatched,oracle_rank"

    def test_library_error_is_a_fail_line(self, capsys, monkeypatch, tmp_path):
        def broken(table):
            raise morse.Unpaired("planted")

        monkeypatch.setattr(morse, "build_matching", broken)
        path = tmp_path / "betti.csv"
        code, lines = run(capsys, "betti", "--n-max", "5", "--out", str(path))
        assert code == 1
        assert lines == ["RESULT fail n=4 error=Unpaired"]
        assert list(tmp_path.iterdir()) == []  # no temporary file either

    def test_fail_line_names_first_bad_power_column(self, capsys, monkeypatch):
        power = subc.betti_power
        monkeypatch.setattr(subc, "betti_power",
                            lambda n, k: power(n, k) + ((n, k) in ((5, 4), (6, 3))))
        code, lines = run(capsys, "betti", "--n-max", "6")
        assert code == 1
        assert "5,4,9,10,9," in lines
        assert lines[-1] == "RESULT fail rows=6 n=5 k=4 column=betti_power"

    def test_fail_line_names_first_bad_unmatched_column(self, capsys, monkeypatch):
        build = subc.build_family

        def lost_cell(matching):
            specs = build(matching)
            if matching.table.n == 5:
                specs[3].unmatched.pop()
            return specs

        monkeypatch.setattr(subc, "build_family", lost_cell)
        code, lines = run(capsys, "betti", "--n-max", "5")
        assert code == 1
        assert lines[-1] == "RESULT fail rows=3 n=5 k=3 column=unmatched"

    FAIL_LINES = {
        "closure": "RESULT fail n=5 error=SubcomplexError k=3 face=0OIII",
        "unmatched": "RESULT fail n=5 error=SubcomplexError k=3 face=IIIO0",
        "external": "RESULT fail n=4 error=SubcomplexError k=3 face=IIIO",
        "leak": "RESULT fail n=5 error=SupportLeak k=4 face=***1*",
    }

    @pytest.mark.parametrize("defect", list(FAIL_LINES))
    def test_fail_line_names_the_first_bad_face(self, capsys, monkeypatch, tables,
                                                matchings, defect):
        # the restriction defects of `reference.planted_defect`, each
        # planted at its own n only; the line names the first offender
        n, _, planted_m, planted = planted_defect(tables, matchings, defect)
        levels, build = subc.filtration_levels, morse.build_matching
        monkeypatch.setattr(subc, "filtration_levels", lambda table:
                            planted if table.n == n else levels(table))
        monkeypatch.setattr(morse, "build_matching", lambda table:
                            planted_m if table.n == n else build(table))
        code, lines = run(capsys, "betti", "--n-max", "5")
        assert code == 1
        assert lines == [self.FAIL_LINES[defect]]
        assert lines[0].endswith(f" face={PLANTED_OFFENDERS[defect]}")

    def test_oracle_fails_on_homology_outside_degree_k_minus_1(self, capsys,
                                                               monkeypatch):
        # a planted H_{k-2} in C_{5,4}: the k-1 column still agrees, and
        # the row fails on the other degree
        family = snf.family_homology

        def planted(cx):
            reports = family(cx)
            if cx.table.n == 5:
                reports[4]["betti"][2] = 1
            return reports

        monkeypatch.setattr(snf, "family_homology", planted)
        code, lines = run(capsys, "betti", "--n-max", "5", "--oracle")
        assert code == 1
        assert "5,4,9,9,9,9" in lines
        assert lines[-1] == "RESULT fail rows=3 n=5 k=4 column=oracle_rank"


class TestGlobalFlags:
    def test_flags_after_subcommand(self, capsys):
        code, lines = run(capsys, "enum", "--n", "4")
        assert code == 0
        assert lines[-1].startswith("RESULT pass n=4")

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--format", "csv"]])
    def test_removed_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["--n", "4", *flag, "enum"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--k", "3", "enum"],
        ["--n", "5", "match", "--k", "3"],
        ["--n", "4", "--dim", "2", "match"],
        ["--n", "5", "--k", "3", "--dim", "2", "basis"],
        ["-v", "--n", "4", "enum"],
        ["--n", "5", "--k", "3", "basis", "-v"],
        ["--n", "4", "match", "-v"],
        ["--n", "4", "betti", "--n-max", "4"],
        ["betti", "--n-max", "4", "--k", "3"],
        ["--dim", "1", "betti", "--n-max", "4"],
        ["betti", "--n-max", "4", "-v"],
        ["--n", "4", "match", "--face", "1100", "--verify"],
        ["--n", "4", "match", "--face", "1100", "--out", "/dev/null"],
        ["--n", "4", "-v", "match", "--face", "1100"],
    ], ids=lambda argv: " ".join(argv))
    def test_unread_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--k", "4", "basis", "--certify", "-v"],
        ["basis", "--n", "5", "-v", "--certify", "--k", "4"],
        ["-v", "match", "--n", "4", "--verify"],
        ["--out", "/dev/null", "betti", "--n-max", "4"],
        ["betti", "--n-max", "4", "--out", "/dev/null"],
        ["--n", "4", "--dim", "0", "enum"],
        ["--n", "4", "match", "--face", "1100"],
    ], ids=lambda argv: " ".join(argv))
    def test_read_flags_accepted_on_either_side(self, capsys, argv):
        code, lines = run(capsys, *argv)
        assert code == 0
        assert lines[-1].startswith("RESULT pass")

    def test_face_dim_removed(self):
        assert not hasattr(halfcube, "face_dim")
        assert not hasattr(faces, "face_dim")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["betti", "--n-min", "10", "--n-max", "10", "--oracle"],
        ["basis", "--n", "5", "--k", "9"],
        ["--n", "3", "enum"],
        ["--n", "4", "match", "--face", "xyzw"],
        ["--n", "5", "match", "--k", "3"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_names_the_subcommand(self, capsys, argv):
        command = next(a for a in argv if a in ("enum", "match", "basis", "betti"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: halfcube {command} [-h]")
        assert f"\nhalfcube {command}: error: " in err


class TestTextLookup:
    @pytest.fixture
    def looked_up(self, monkeypatch):
        """Every face text looked up in a table."""
        out = []
        locate = faces.FaceTable._locate
        monkeypatch.setattr(faces.FaceTable, "_locate",
                            lambda self, f: out.append(f) or locate(self, f))
        return out

    @pytest.mark.parametrize("argv", [
        ["betti", "--n-max", "6"],
        ["--n", "6", "match", "--verify"],
    ], ids=lambda argv: " ".join(argv))
    def test_census_commands_look_no_face_up(self, capsys, looked_up, argv):
        code, lines = run(capsys, *argv)
        assert code == 0 and lines[-1].startswith("RESULT pass")
        assert looked_up == []

    @pytest.mark.parametrize("argv", [
        ["--n", "5", "--k", "3", "basis"],
        ["--n", "5", "--k", "3", "basis", "--certify"],
    ], ids=lambda argv: " ".join(argv))
    def test_basis_commands_look_no_face_up(self, capsys, looked_up, argv):
        code, lines = run(capsys, *argv)
        assert code == 0 and lines[-1].startswith("RESULT pass")
        assert looked_up == []

    def test_the_spy_sees_lookups(self, tables, looked_up):
        assert "0000" in tables(4) and looked_up == ["0000"]


class TestOutPath:
    COMMANDS = {
        "enum": ["--n", "4", "enum"],
        "match": ["--n", "4", "match", "--verify"],
        "basis": ["--n", "4", "--k", "3", "basis"],
        "betti": ["betti", "--n-max", "5"],
    }

    @pytest.mark.parametrize("target", ["missing_directory", "directory",
                                        "no_new_files", "no_name"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unwritable_out_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                           command, target):
        # rejected before any work, naming the path, leaving no file;
        # /proc holds no files but its own, so the temporary file the
        # output is written to cannot be created there
        def no_work(n):
            raise AssertionError("enumerated before the --out check")

        monkeypatch.setattr(faces, "enumerate_faces", no_work)
        monkeypatch.chdir(tmp_path)
        path = {"missing_directory": tmp_path / "nowhere" / "out.jsonl",
                "directory": tmp_path,
                "no_new_files": "/proc/out.jsonl",
                "no_name": ""}[target]
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + ["--out", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"--out {path}" in captured.err
        assert "RESULT" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unopenable_out_is_usage_error(self, capsys, monkeypatch, tmp_path,
                                           command):
        # a socket is written directly, as a non-regular file, but cannot
        # be opened; that is found before any work too
        def no_work(n):
            raise AssertionError("enumerated before the --out check")

        monkeypatch.setattr(faces, "enumerate_faces", no_work)
        path = tmp_path / "s"
        with socket.socket(socket.AF_UNIX) as s:
            s.bind(str(path))
            with pytest.raises(SystemExit) as exc:
                main(self.COMMANDS[command] + ["--out", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--out {path}: cannot open it (No such device or address)" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_mid_write_keeps_the_old_file(self, capsys, monkeypatch,
                                                  tmp_path):
        # the writer fails as it starts the tenth line, three parts a line
        jsonl_parts = faces.FaceTable.jsonl_parts

        def broken(table, dims):
            for t, part in enumerate(jsonl_parts(table, dims)):
                if t == 27:
                    raise faces.FaceError("planted")
                yield part

        monkeypatch.setattr(faces.FaceTable, "jsonl_parts", broken)
        path = tmp_path / "faces.jsonl"
        path.write_text("old\n")
        code, lines = run(capsys, "--n", "4", "enum", "--out", str(path))
        assert code == 1
        assert lines == ["RESULT fail n=4 error=FaceError"]
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == "old\n"

    def test_symlink_is_written_through(self, capsys, tmp_path):
        # the link stays a link, and its target, in another directory,
        # takes the bytes a plain --out file gets; before, the link was
        # replaced by a regular file and the target kept its old bytes
        here, there = tmp_path / "here", tmp_path / "there"
        here.mkdir()
        there.mkdir()
        plain, target, link = here / "plain.jsonl", there / "faces.jsonl", here / "link"
        target.write_text("stale\n")
        link.symlink_to(target)
        assert run(capsys, "--n", "4", "enum", "--out", str(plain))[0] == 0
        assert run(capsys, "--n", "4", "enum", "--out", str(link))[0] == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(p.name for p in here.iterdir()) == ["link", "plain.jsonl"]
        assert [p.name for p in there.iterdir()] == ["faces.jsonl"]
        assert list(tmp_path.rglob(".*.tmp")) == []

    def test_dangling_symlink_creates_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "faces.jsonl", tmp_path / "link"
        link.symlink_to(target)
        code, lines = run(capsys, "--n", "4", "enum", "--out", str(link))
        assert code == 0 and lines[-1] == "RESULT pass n=4 cells=82"
        assert link.is_symlink() and target.is_file()
        assert len(target.read_text().splitlines()) == 82
        assert sorted(p.name for p in tmp_path.iterdir()) == ["faces.jsonl", "link"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_turned_directory_leaves_no_temporary_file(
            self, capsys, monkeypatch, tmp_path, command):
        # the target becomes a directory while the command runs, so the
        # final rename fails: a failed RESULT line, and the temporary file
        # goes; before, the error escaped with a traceback
        enumerate_faces = faces.enumerate_faces
        path = tmp_path / "out"

        def mkdir_target(n):
            path.mkdir(exist_ok=True)
            return enumerate_faces(n)

        monkeypatch.setattr(faces, "enumerate_faces", mkdir_target)
        code, lines = run(capsys, *self.COMMANDS[command], "--out", str(path))
        where = {"basis": "n=4 k=3", "betti": "n=5"}.get(command, "n=4")
        assert (code, lines) == (1, [f"RESULT fail {where} error=IsADirectoryError"])
        assert list(tmp_path.iterdir()) == [path]
        assert list(path.iterdir()) == []

    def test_failed_rename_is_a_fail_line(self, capsys, monkeypatch, tmp_path):
        def refused(src, dst):
            raise IsADirectoryError(errno.EISDIR, "Is a directory", dst)

        monkeypatch.setattr(os, "replace", refused)
        path = tmp_path / "faces.jsonl"
        code = main(["--n", "4", "enum", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == ["RESULT fail n=4 error=IsADirectoryError"]
        assert captured.err == f"error: [Errno 21] Is a directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("old", [None, "old\n"])
    def test_failed_write_is_a_fail_line(self, capsys, monkeypatch, tmp_path, old):
        # the disk fills while the lines are written: a failed RESULT line,
        # no temporary file, and an old file as it was
        class Full:
            def __init__(self, fh):
                self.fh = fh

            def writelines(self, lines):
                self.fh.write(next(iter(lines)))
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                self.fh.close()

        monkeypatch.setattr(cli, "open", lambda *a: Full(open(*a)), raising=False)
        path = tmp_path / "faces.jsonl"
        if old is not None:
            path.write_text(old)
        code = main(["--n", "4", "enum", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == ["RESULT fail n=4 error=OSError"]
        assert captured.err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == ([] if old is None else [path])
        assert old is None or path.read_text() == old


@pytest.mark.parametrize("command", ["enum", "match"])
def test_closed_stdout_exits_quietly(command):
    # the n=7 dump is far larger than a pipe buffer, so the command is
    # still writing when the reader closes the pipe after one line
    env = dict(os.environ, PYTHONPATH=str(Path(halfcube.__file__).parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "halfcube", "--n", "7", command],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b'{"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
