import itertools
import json
import re
import sys
import tracemalloc
from array import array
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference
from halfcube import faces
from halfcube.faces import (
    EMPTY,
    PLAIN0,
    PLAIN1,
    STAR,
    BadParity,
    BadSymbol,
    FaceError,
    FaceSubset,
    FaceTable,
    Kind,
    MixedMask,
    NonCanonicalEdge,
    NTooSmall,
    TooFewStars,
    canonical_edge,
    classify,
    code_face,
    enumerate_faces,
    expected_counts,
    face_code,
    facet_deltas,
    parse_seq,
)
from reference import NotKType, facets, mask, total_and_u, vertices_of


@st.composite
def face_strategy(draw, n):
    kind = draw(st.sampled_from(["vertex", "edge", "simplex", "halfcube"]))
    if kind == "halfcube":
        m = draw(st.integers(3, n))
        positions = sorted(draw(st.permutations(range(n)))[:m])
        seq = [faces.STAR] * n
        for i in range(n):
            if i not in positions:
                seq[i] = draw(st.sampled_from("01"))
        return "".join(seq)
    if kind == "vertex":
        bits = [draw(st.sampled_from("01")) for _ in range(n - 1)]
        bits.append("1" if bits.count("1") % 2 else "0")
        return "".join(bits)
    m = 2 if kind == "edge" else draw(st.integers(3, n))
    positions = sorted(draw(st.permutations(range(n)))[:m])
    bits = [draw(st.sampled_from("01")) for _ in range(n - 1)]
    bits.append("1" if bits.count("1") % 2 == 0 else "0")  # odd underlying point
    seq = list("".join(bits))
    for i in positions:
        seq[i] = faces.UND0 if seq[i] == "0" else faces.UND1
    out = "".join(seq)
    return canonical_edge(out) if m == 2 else out


class TestParse:
    def test_vertex_example(self):
        assert parse_seq("1110100", 7) == "1110100"
        assert classify("1110100") == (Kind.VERTEX, 0)

    def test_all_plus_one_vertex(self):
        assert parse_seq("0000000", 7) == "0000000"

    def test_edge_canonical_accept_reject(self):
        assert parse_seq("I1O0100", 7) == "I1O0100"
        with pytest.raises(NonCanonicalEdge):
            parse_seq("O1I0100", 7)

    def test_empty(self):
        assert parse_seq("EMPTY", 9) == EMPTY

    def test_bad_symbol(self):
        with pytest.raises(BadSymbol):
            parse_seq("0102", 4)

    def test_bad_parity_vertex(self):
        with pytest.raises(BadParity):
            parse_seq("1000", 4)

    def test_bad_parity_marked(self):
        with pytest.raises(BadParity):
            parse_seq("OO00", 4)  # zero total 1s, needs odd

    def test_mixed_mask(self):
        with pytest.raises(MixedMask):
            parse_seq("*I*I0", 5)

    def test_too_few_stars(self):
        with pytest.raises(TooFewStars):
            parse_seq("**000", 5)

    def test_single_underline(self):
        with pytest.raises(FaceError):
            parse_seq("I1000", 5)

    def test_wrong_length(self):
        with pytest.raises(FaceError):
            parse_seq("0000", 5)


class TestClassify:
    def test_simplex_example(self):
        assert classify("O1I01OO") == (Kind.SIMPLEX, 3)

    def test_halfcube_example(self):
        assert classify("010**1*010") == (Kind.HALFCUBE, 3)

    def test_empty(self):
        assert classify(EMPTY) == (Kind.EMPTY, -1)

    def test_edge_and_vertex(self):
        assert classify("I1O0100") == (Kind.EDGE, 1)
        assert classify("0000") == (Kind.VERTEX, 0)

    def test_top_cell(self):
        assert classify("*****") == (Kind.HALFCUBE, 5)


class TestVertices:
    def test_simplex_example(self):
        assert vertices_of("O1I01OO") == {"1110100", "0100100", "0110110", "0110101"}

    def test_halfcube_example(self):
        assert vertices_of("010**1*010") == {
            "0100011010", "0100110010", "0101010010", "0101111010"}

    def test_vertex_is_its_own(self):
        assert vertices_of("0110") == {"0110"}

    def test_empty_rejected(self):
        with pytest.raises(FaceError):
            vertices_of(EMPTY)

    def test_counts(self):
        assert len(vertices_of("0I1I10I")) == 3
        assert len(vertices_of("****0000")) == 2 ** 3


class TestFacets:
    def test_triangle_edges_by_vertex_sets(self):
        tri = "0I1I10I"
        tri_verts = vertices_of(tri)
        fs = facets(tri)
        assert len(fs) == 3
        for g in fs:
            assert classify(g).kind is Kind.EDGE
            assert vertices_of(g) < tri_verts
            assert len(vertices_of(g)) == 2
        # the three 2-subsets are pairwise distinct
        assert len({frozenset(vertices_of(g)) for g in fs}) == 3

    def test_halfcube4_split(self):
        fs = facets("****0000")
        assert len(fs) == 16
        kinds = [classify(g).kind for g in fs]
        assert kinds.count(Kind.HALFCUBE) == 8  # 2k at k=4
        assert kinds.count(Kind.SIMPLEX) == 8   # 2**(k-1) at k=4

    def test_vertex(self):
        assert facets("1110100") == [EMPTY]

    def test_edge(self):
        assert facets("I1O0100") == ["0100100", "1110100"]

    def test_halfcube3_four_triangles(self):
        fs = facets("0*1*10*")
        assert len(fs) == 4
        assert all(classify(g) == (Kind.SIMPLEX, 2) for g in fs)


class TestFacetIndex:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_parsed_facets(self, tables, n):
        t = tables(n)
        for d in sorted(t.cells):
            assert t.facet_index(d) == reference.facet_index(t, d), (n, d)
        flat, offsets = t.facet_index(n - 1)
        f = t.faces(n - 1)[-1]
        assert list(flat[offsets[-2]:]) == [t.index_of(g) for g in facets(f)]

    def test_built_lazily_once_per_dimension(self, monkeypatch):
        built = []
        build = FaceTable._build_facet_index
        monkeypatch.setattr(FaceTable, "_build_facet_index",
                            lambda self, d: built.append(d) or build(self, d))
        t = enumerate_faces(5)
        assert built == []
        idx = t.facet_index(3)
        assert built == [3]
        assert t.facet_index(3) is idx
        assert built == [3]
        assert t.facet_index(-1) == (array("i"), array("i", [0, 0]))
        assert built == [3, -1]

    def test_facet_missing_from_table(self):
        t = enumerate_faces(4)
        cells = {d: list(c) for d, c in t.cells.items()}
        g = facets(t.faces(2)[0])[0]
        cells[1].remove(g)
        with pytest.raises(FaceError, match=f"facet {g!r} of .* is not in the table"):
            reference.face_table(4, cells).facet_index(2)

    def test_codes_order_as_the_texts(self, tables):
        t = tables(6)
        for d in range(0, 7):
            codes = [face_code(f) for f in t.faces(d)]
            assert codes == sorted(codes) and len(set(codes)) == len(codes)
            assert [code_face(c, 6) for c in codes] == list(t.faces(d))
            assert t.codes(d) == array("q", codes)
        assert t.codes(-1) == array("q", [0]) and t.codes(7) == array("q")

    def test_codes_built_lazily_once_per_dimension(self):
        # read from the dimension's text in one pass, on first use
        t = enumerate_faces(5)
        assert vars(t)["_codes"] == {}
        codes = t.codes(2)
        assert sorted(vars(t)["_codes"]) == [2] and t.codes(2) is codes
        assert codes == array("q", map(face_code, t.faces(2)))

    def test_facet_deltas_give_the_facet_codes(self, tables):
        t = tables(6)
        for d in range(1, 7):
            for f in t.faces(d):
                want = [face_code(g) - face_code(f) for g in facets(f)]
                assert list(facet_deltas(f)) == want, f

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_star_deltas_equal_reference(self, n):
        # every pattern of a half-cube face: its star positions and the
        # parity of its '1' digits
        for m in range(3, n + 1):
            for positions in itertools.combinations(range(n), m):
                f = "".join(STAR if i in positions else PLAIN0 for i in range(n))
                fs = [f] if m == n else [f, f.replace(PLAIN0, PLAIN1, 1)]
                for g in fs:
                    assert facet_deltas(g) == reference.star_facet_deltas(g), g

    def test_no_module_parses_facets(self):
        # every module reads facets from the table's index; the definition
        # and `facets()` in backquotes are not calls
        src = Path(faces.__file__).parent
        callers = sorted(p.name for p in src.glob("*.py")
                         if re.search(r"(?<!def )(?<!`)\bfacets\(", p.read_text()))
        assert callers == []


class TestFaceSubset:
    def test_set_semantics(self, tables):
        t = tables(4)
        members = {EMPTY, t.faces(0)[3], t.faces(2)[5], t.faces(4)[0]}
        sub = FaceSubset.of(t, members)
        assert len(sub) == 4
        assert sub == members and members == sub
        assert members <= sub
        assert list(sub) == [f for f in t if f in members]
        assert "not a face" not in sub
        assert sub.indices(2) == [5]
        assert sub - {EMPTY} == frozenset(members - {EMPTY})
        assert FaceSubset.of(t, sub) is sub


class TestCanonicalEdge:
    def test_example(self):
        assert canonical_edge("O1I0100") == "I1O0100"

    def test_second_example(self):
        assert canonical_edge("01101II") == "01101OO"

    def test_identity_on_canonical(self):
        assert canonical_edge("I1O0100") == "I1O0100"


class TestTotalAndU:
    def test_example(self):
        assert total_and_u("0I11OI01") == (23, "01110101")

    def test_all_zeros(self):
        assert total_and_u("00000") == (0, "00000")

    def test_rejects_starred_and_empty(self):
        with pytest.raises(NotKType):
            total_and_u("0*1*10*")
        with pytest.raises(NotKType):
            total_and_u(EMPTY)

    def test_edge_representations_at_n5(self):
        # both raw encodings of an edge erase to the same digits off the
        # mask, have distinct totals, and the canonical one is smaller
        n = 5
        odd_points = ["".join(b) for b in itertools.product("01", repeat=n)
                      if b.count("1") % 2 == 1]
        for v in odd_points:
            for i, j in itertools.combinations(range(n), 2):
                seq = list(v)
                seq[i] = faces.UND0 if seq[i] == "0" else faces.UND1
                seq[j] = faces.UND0 if seq[j] == "0" else faces.UND1
                raw = "".join(seq)
                other = "".join(
                    {"O": "I", "I": "O"}.get(c, c) if p in (i, j) else c
                    for p, c in enumerate(raw))
                t1, u1 = total_and_u(raw)
                t2, u2 = total_and_u(other)
                assert t1 != t2
                off = [p for p in range(n) if p not in (i, j)]
                assert [u1[p] for p in off] == [u2[p] for p in off]
                canon = canonical_edge(raw)
                t_c, _ = total_and_u(canon)
                assert t_c == min(t1, t2)


class TestEnumeration:
    def test_n4_counts(self):
        t = enumerate_faces(4)
        assert t.counts() == {-1: 1, 0: 8, 1: 24, 2: 32, 3: 16, 4: 1}
        by_kind = {}
        for f in t:
            k = classify(f)
            by_kind[k] = by_kind.get(k, 0) + 1
        assert by_kind[(Kind.SIMPLEX, 3)] == 8
        assert by_kind[(Kind.HALFCUBE, 3)] == 8

    def test_n5_triangles(self):
        t = enumerate_faces(5)
        assert len(t.faces(2)) == 160  # 2**4 * C(5,3)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_census_closed_form(self, tables, n):
        t = tables(n)
        want = {
            d: sum(c for (_, dd), c in faces.expected_shape_counts(n).items()
                   if dd == d)
            for d in range(-1, n + 1)
        }
        assert t.counts() == want
        assert t.counts()[0] == 2 ** (n - 1)
        assert t.counts()[1] == 2 ** (n - 2) * comb(n, 2)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_euler(self, tables, n):
        c = tables(n).counts()
        boundary = sum((-1) ** d * c[d] for d in range(0, n))
        assert boundary == 1 + (-1) ** (n - 1)
        full = sum((-1 if d % 2 else 1) * c[d] for d in range(-1, n + 1))
        assert full == 0

    def test_round_trip(self, tables):
        t = tables(4)
        for f in t:
            assert parse_seq(f, 4) == f

    @pytest.mark.parametrize("n", [4, 5])
    def test_facet_closure(self, tables, n):
        t = tables(n)
        for f in t:
            if f == EMPTY:
                continue
            fs = facets(f)
            assert fs
            for g in fs:
                assert g in t
                if g != EMPTY and classify(f).dim >= 1:
                    assert vertices_of(g) <= vertices_of(f)

    def test_double_count_of_edges(self, tables):
        # every edge arises from exactly two raw (odd point, mask) encodings
        n = 5
        seen = {}
        odd_points = ["".join(b) for b in itertools.product("01", repeat=n)
                      if b.count("1") % 2 == 1]
        for v in odd_points:
            for i, j in itertools.combinations(range(n), 2):
                seq = list(v)
                seq[i] = faces.UND0 if seq[i] == "0" else faces.UND1
                seq[j] = faces.UND0 if seq[j] == "0" else faces.UND1
                canon = canonical_edge("".join(seq))
                seen[canon] = seen.get(canon, 0) + 1
        assert set(seen.values()) == {2}
        assert len(seen) == len(tables(n).faces(1))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
    def test_equals_reference_enumeration(self, n):
        want = reference.face_table(n, reference.enumerate_cells(n))
        assert enumerate_faces(n).cells == want.cells

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
    def test_text_equals_per_face_enumeration(self, n):
        # each dimension written as blocks of one text reads back the
        # faces the per-face enumeration made one string at a time
        t, want = enumerate_faces(n), reference.enumerate_lists(n)
        assert list(t.cells) == list(want)
        for d, faces_d in want.items():
            assert tuple(t.faces(d)) == tuple(faces_d), d
            assert t.faces(d).text == "".join(faces_d)

    def test_traced_peak_at_10(self):
        # the last lengths are kept as nested parts, not as strings; with
        # every suffix a string the peak was 4.7 times the texts
        tracemalloc.start()
        try:
            t = enumerate_faces(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(sys.getsizeof(c.text) for c in t.cells.values())
        assert peak < 1.5 * kept, (peak, kept)

    def test_tables_from_lists_read_back_their_input(self, tables):
        # a planted table: an edge and the empty face taken out of n=4
        t = tables(4)
        cells = {d: list(c) for d, c in t.cells.items() if d >= 0}
        del cells[1][5]
        cut = reference.face_table(4, cells)
        assert {d: tuple(c) for d, c in cut.cells.items()} == {
            d: tuple(c) for d, c in cells.items()}
        assert list(cut) == [f for c in cells.values() for f in c]
        assert cut.size == t.size - 2 and cut.faces(1)[5] == cells[1][5]
        # a face of the wrong width for its dimension is refused
        for bad in ({0: ["0000", "000"]}, {-1: ["0000"]}, {2: ["0III", "00III"]}):
            with pytest.raises(FaceError, match="symbols wide"):
                reference.face_table(4, bad)

    def test_a_text_of_part_faces_is_refused(self, tables):
        # the table takes one text per dimension, which must hold a whole
        # number of faces of its width
        t = tables(4)
        texts = {d: c.text for d, c in t.cells.items()}
        assert FaceTable(4, texts).cells == t.cells
        for d, cut in ((0, texts[0][:-1]), (-1, texts[-1] + "0"), (2, texts[2] + "0II")):
            with pytest.raises(FaceError, match=f"text of dimension {d} is not a whole number"):
                FaceTable(4, {**texts, d: cut})

    def test_census_mismatch_raises(self, monkeypatch):
        want = faces.expected_counts(5)
        monkeypatch.setattr(faces, "expected_counts", lambda n: {**want, 2: want[2] + 1})
        with pytest.raises(FaceError, match="face census mismatch at n=5"):
            enumerate_faces(5)

    def test_reads_agree_before_and_after_lookups(self):
        def reads(t):
            return (t.size, t.counts(), [t.faces(d) for d in range(-3, 8)])

        t = enumerate_faces(5)
        before = reads(t)
        probes = ["not a face", "0000I", "0000", "1*1*1", *t]
        assert [f in t for f in probes] == [False] * 4 + [True] * t.size
        assert reads(t) == before
        assert sorted(vars(t)["_codes"]) == list(range(6))  # built by the lookups

    def test_determinism(self):
        a = enumerate_faces(4)
        b = enumerate_faces(4)
        assert a.cells == b.cells

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            enumerate_faces(3)

    def test_index_lookup(self, tables, matchings):
        for n in range(4, 8):
            t, m = tables(n), matchings(n)
            table_order = list(t)
            for d in t.cells:
                for i, f in enumerate(t.faces(d)):
                    assert t.index_of(f) == i
                    assert t.dim_of(f) == d
                    assert f in t and t._locate(f) == (d, i)
                    p = m.mate[d][i]
                    assert m.partner[f] == (t.faces(d + 1)[p] if p >= 0
                                            else t.faces(d - 1)[~p])
                    assert m.rule[f] == m.rules[d][i]
            every_other = FaceSubset.of(t, table_order[::2])
            assert b"".join(every_other.masks.values()) == bytes(
                (g + 1) % 2 for g in range(len(table_order)))
            assert all(f in every_other for f in table_order[::2])
            assert not any(f in every_other for f in table_order[1::2])
        t = tables(4)
        assert t.size == len(list(t)) == 82
        with pytest.raises(KeyError):
            t.index_of("0000I")

    @pytest.mark.parametrize("n, f", [
        (4, "0021"),  # a raw '2' would read as the code of "0011"
        (4, "00I1"),  # one underline: no such face
        (4, "I*O*"),  # stars mixed with underlines
        (5, "0000I"),
        (5, "0000"), (5, "000000"), (5, ""),  # wrong lengths
        (4, "o*00"), (4, "00io"), (5, "empty"), (4, "11 0"),
        (4, "0\u00b9 1"), (4, "00\u0131\u00d8"),  # non-ASCII
        (4, b"0011"), (4, 11), (4, None), (4, ("0", "0", "1", "1")),
    ], ids=repr)
    def test_lookup_rejects_non_faces(self, tables, matchings, n, f):
        t = tables(n)
        assert f not in t
        for lookup in (t.index_of, t.dim_of):
            with pytest.raises(KeyError):
                lookup(f)
        assert f not in FaceSubset.of(t, t)
        with pytest.raises(KeyError):
            FaceSubset.of(t, [t.faces(0)[0], f])
        assert f not in matchings(n).partner

    def test_lookup_of_a_removed_empty_face(self, tables):
        t = tables(4)
        assert EMPTY in t and t.index_of(EMPTY) == 0 and t.dim_of(EMPTY) == -1
        cut = reference.face_table(4, {d: list(c) for d, c in t.cells.items() if d >= 0})
        assert EMPTY not in cut and "0000" in cut and cut._locate("0000") == (0, 0)
        with pytest.raises(KeyError):
            cut.dim_of(EMPTY)
        cut = reference.face_table(4, {**t.cells, -1: []})
        assert EMPTY not in cut and cut._locate("0000") == (0, 0)
        with pytest.raises(KeyError):
            cut.index_of(EMPTY)


class TestJson:
    def test_halfcube_line(self):
        assert json.loads(reference.face_jsonl("010**1*010")) == {
            "seq": "010**1*010", "dim": 3, "kind": "halfcube"}

    def test_empty_line(self):
        assert json.loads(reference.face_jsonl(EMPTY)) == {
            "seq": "EMPTY", "dim": -1, "kind": "empty"}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_line_is_the_json_dump(self, tables, n):
        def dump(f):
            kind, d = classify(f)
            return json.dumps({"seq": f, "dim": d, "kind": kind.value})

        assert [f for f in tables(n) if reference.face_jsonl(f) != dump(f)] == []

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_dimension_lines_are_the_face_lines(self, tables, n):
        t = tables(n)
        for d in t.cells:
            want = "".join(reference.face_jsonl(f) + "\n" for f in t.faces(d))
            assert "".join(t.jsonl_parts([d])) == want, d
        assert "".join(t.jsonl_parts([])) == ""


class TestProperties:
    @given(f=face_strategy(6))
    def test_parse_round_trip(self, f):
        assert parse_seq(f, 6) == f

    @given(f=face_strategy(7))
    def test_dimension_map(self, f):
        kind, d = classify(f)
        m = len(mask(f))
        if kind is Kind.VERTEX:
            assert d == 0 and m == 0
        elif kind is Kind.EDGE:
            assert d == 1 and m == 2
        elif kind is Kind.SIMPLEX:
            assert d == m - 1 and m >= 3
        else:
            assert d == m >= 3

    @given(f=face_strategy(6))
    def test_facets_are_faces(self, f):
        kind, d = classify(f)
        for g in facets(f):
            if g == EMPTY:
                assert d == 0
                continue
            assert classify(g).dim == d - 1
            assert parse_seq(g, 6) == g
            assert vertices_of(g) <= vertices_of(f)

    @given(f=face_strategy(6))
    def test_vertex_count_by_shape(self, f):
        kind, d = classify(f)
        n_verts = len(vertices_of(f))
        if kind is Kind.HALFCUBE:
            assert n_verts == 2 ** (d - 1)
        elif kind is Kind.VERTEX:
            assert n_verts == 1
        else:
            assert n_verts == d + 1
