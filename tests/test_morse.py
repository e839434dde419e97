import gc
import json
import random
import re
import tracemalloc
import weakref
from array import array

import pytest

import reference
from halfcube import faces, morse, snf
from halfcube.chains import ChainComplex, ChainVector
from halfcube.faces import EMPTY, Kind, classify
from halfcube.morse import (
    UNPAIRED,
    CyclicPrec,
    InvolutionBroken,
    MorseError,
    MorseMatching,
    NotACycle,
    NotCodimOne,
    ResidualNonzero,
    Unpaired,
    applicable_rules,
    build_matching,
    match_face,
    morse_boundary,
    solve_cycle,
    validate_matching,
    verify_acyclic,
)
from reference import facets, int_rank, total_and_u, vertices_of

WORKED_PAIRS = [
    ("0**1*10", "0**1**0", 1),
    ("0**1**0", "0**1*10", 2),
    ("0O1I10O", "0O1II0O", 3),
    ("0O1II0O", "0O1I10O", 4),
    ("0I1I10I", "0*1*10*", 5),
    ("0*1*10*", "0I1I10I", 6),
    ("01I01O0", "01I0IO0", 7),
    ("01I0IO0", "01I01O0", 8),
    ("1110010", "11I00O0", 9),
    ("11I00O0", "1110010", 10),
    ("0000000", EMPTY, 11),
]


def arrays(t, partner, rule):
    """The (mate, rules, table) arguments of validate_matching for
    string-keyed partner and rule mappings."""
    m = reference.from_pairs(t, partner, rule)
    return m.mate, m.rules, t


def copied(arrays):
    """A copy of the per-dimension arrays of a matching."""
    return {d: array(a.typecode, a) for d, a in arrays.items()}


def brute_det(m):
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * brute_det(minor)
    return total


class TestMatchFace:
    @pytest.mark.parametrize("f,partner,rule", WORKED_PAIRS)
    def test_worked_pairs(self, f, partner, rule):
        assert match_face(f, 7) == (partner, rule)

    def test_empty_needs_n(self):
        assert match_face(EMPTY, 7) == ("0000000", 11)
        with pytest.raises(MorseError):
            match_face(EMPTY)

    def test_rule9_shape(self):
        p, r = match_face("1100")
        assert r == 9 and p == "IO00"

    @pytest.mark.parametrize("f,n", [("0000", 5), ("0*00", 4), ("0*00", None)])
    def test_invalid_face_is_an_error(self, f, n):
        # before the check "0000" at n=5 got the n=4 answer ("EMPTY", 11)
        # and the one-star mask "0*00" got ("0**I", 10)
        with pytest.raises(faces.FaceError):
            match_face(f, n)


class TestPartnerRule:
    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_matching_equals_text_rewriting(self, tables, matchings, n):
        t, m = tables(n), matchings(n)
        assert list(m.mate) == list(m.rules) == list(t.cells)
        for d, cells in t.cells.items():
            pairs = [reference.match_face(f, n) for f in cells]
            assert m.mate[d] == array("i", [
                t.index_of(p) if t.dim_of(p) == d + 1 else ~t.index_of(p)
                for p, _ in pairs])
            assert m.rules[d] == array("b", [r for _, r in pairs])

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_conditions_equal_text_conditions(self, tables, n):
        for d, cells in tables(n).cells.items():
            for f in cells:
                bits = applicable_rules(f, d)
                got = {r for r in range(bits.bit_length()) if bits >> r & 1}
                assert got == reference.rule_applicability(f), f

    @pytest.mark.parametrize("gone", [EMPTY, "0000", "IO00"])
    def test_partner_missing_from_table(self, tables, matchings, gone):
        t, m = tables(4), matchings(4)
        cells = {d: [f for f in c if f != gone] for d, c in t.cells.items()}
        with pytest.raises(InvolutionBroken, match=re.escape(
                f"partner {gone!r} of {m.partner[gone]!r} is not a face")):
            build_matching(reference.face_table(4, cells))


class TestRuleApplicability:
    def test_exhaustive_singleton_n5(self, tables, matchings):
        m = matchings(5)
        for d, cells in tables(5).cells.items():
            for f in cells:
                assert applicable_rules(f, d) == 1 << m.rule[f], f

    def test_zero_vertex(self):
        assert applicable_rules("0000000", 0) == 1 << 11

    def test_rule6_triangle_partner(self):
        assert applicable_rules("0*1*10*", 3) == 1 << 6


class TestBuildMatching:
    def test_n4_pair_count(self, tables, matchings):
        m = matchings(4)
        assert tables(4).size == 82
        assert m.pair_count() == 41

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_complete(self, tables, matchings, n):
        partner = matchings(n).partner
        assert all(f in partner for f in tables(n))

    def test_codim_one_facet(self, tables, matchings):
        t, m = tables(4), matchings(4)
        for f in t:
            p = m.partner[f]
            small, large = (f, p) if t.dim_of(f) < t.dim_of(p) else (p, f)
            if small == EMPTY:
                assert classify(large) == (Kind.VERTEX, 0)
            else:
                assert small in facets(large)

    def test_swapped_rule9_partners_detected(self, tables, matchings):
        # hand-corrupt the involution: swap the partners of two vertices
        t, m = tables(4), matchings(4)
        v1, v2 = [f for f in t.faces(0) if m.rule[f] == 9][:2]
        e1, e2 = m.partner[v1], m.partner[v2]
        bad = dict(m.partner)
        bad[v1], bad[v2], bad[e1], bad[e2] = e2, e1, v2, v1
        with pytest.raises(NotCodimOne, match="is not a facet of"):
            validate_matching(*arrays(t, bad, m.rule))

    def test_validates_the_built_matching(self, tables, matchings):
        m = matchings(5)
        validate_matching(m.mate, m.rules, tables(5))
        reference.validate_matching(dict(m.partner), dict(m.rule), tables(5))

    @pytest.mark.parametrize("plant", ["missing", "self"])
    def test_unpaired_detected(self, tables, matchings, plant):
        t, m = tables(4), matchings(4)
        v = [f for f in t.faces(0) if m.rule[f] == 9][0]
        bad = dict(m.partner)
        if plant == "missing":
            del bad[v]
        else:
            bad[v] = v
        with pytest.raises(Unpaired, match=repr(v)):
            validate_matching(*arrays(t, bad, m.rule))

    def test_one_way_partner_breaks_involution(self, tables, matchings):
        t, m = tables(4), matchings(4)
        v1, v2 = [f for f in t.faces(0) if m.rule[f] == 9][:2]
        bad = dict(m.partner)
        bad[v1] = m.partner[v2]
        with pytest.raises(InvolutionBroken, match="->"):
            validate_matching(*arrays(t, bad, m.rule))

    def test_non_inverse_rules_break_involution(self, tables, matchings):
        t, m = tables(4), matchings(4)
        v = [f for f in t.faces(0) if m.rule[f] == 9][0]
        bad_rule = dict(m.rule)
        bad_rule[v] = 7
        with pytest.raises(InvolutionBroken, match="not inverse"):
            validate_matching(*arrays(t, m.partner, bad_rule))

    def test_pair_two_dimensions_apart(self, tables, matchings):
        # a vertex re-paired with a tetrahedron and its edge with the
        # tetrahedron's triangle, rules kept mutually inverse: the arrays
        # cannot hold such a pair, so building them refuses it as the
        # string check does
        t, m = tables(4), matchings(4)
        bad, bad_rule = _plant_two_apart(t, m)
        with pytest.raises(NotCodimOne) as want:
            reference.validate_matching(bad, bad_rule, t)
        with pytest.raises(NotCodimOne, match=r"\(dim 0\) paired with") as got:
            reference.from_pairs(t, bad, bad_rule)
        assert str(got.value) == str(want.value)


def _rule9_vertices(t, m):
    return [f for f in t.faces(0) if m.rule[f] == 9]


def _plant_missing(t, m):
    bad = dict(m.partner)
    del bad[_rule9_vertices(t, m)[1]]
    return bad, dict(m.rule)


def _plant_self(t, m):
    bad = dict(m.partner)
    v = _rule9_vertices(t, m)[1]
    bad[v] = v
    return bad, dict(m.rule)


def _plant_partner_unpaired(t, m):
    bad = dict(m.partner)
    del bad[m.partner[_rule9_vertices(t, m)[2]]]
    return bad, dict(m.rule)


def _plant_one_way(t, m):
    bad = dict(m.partner)
    v1, v2 = _rule9_vertices(t, m)[:2]
    bad[v1] = m.partner[v2]
    return bad, dict(m.rule)


def _plant_one_way_down(t, m):
    # an edge matched upward, pointed down at a vertex paired elsewhere:
    # only the edge's own entry is wrong, and the edge is met from above
    bad = dict(m.partner)
    e = next(f for f in t.faces(1) if t.dim_of(m.partner[f]) == 2)
    bad[e] = _rule9_vertices(t, m)[0]
    return bad, dict(m.rule)


def _plant_swapped(t, m):
    bad = dict(m.partner)
    v1, v2 = _rule9_vertices(t, m)[:2]
    e1, e2 = m.partner[v1], m.partner[v2]
    bad[v1], bad[v2], bad[e1], bad[e2] = e2, e1, v2, v1
    return bad, dict(m.rule)


def _plant_rule(t, m):
    bad_rule = dict(m.rule)
    bad_rule[_rule9_vertices(t, m)[3]] = 7
    return dict(m.partner), bad_rule


def _plant_no_rule(t, m):
    bad_rule = dict(m.rule)
    del bad_rule[t.faces(2)[5]]
    return dict(m.partner), bad_rule


def _plant_two_apart(t, m):
    v = _rule9_vertices(t, m)[0]
    tet = [f for f in t.faces(3) if m.rule[f] == 4][0]
    e, tri = m.partner[v], m.partner[tet]
    bad = dict(m.partner)
    bad[v], bad[tet], bad[e], bad[tri] = tet, v, tri, e
    bad_rule = dict(m.rule)
    bad_rule[v], bad_rule[e] = 3, 4
    return bad, bad_rule


PLANTS = {name[len("_plant_"):]: fn for name, fn in globals().items()
          if name.startswith("_plant_")}


class TestMatchingArrays:
    @pytest.mark.parametrize("plant", sorted(PLANTS))
    def test_planted_defect_as_string_reference(self, tables, matchings, plant):
        # the arrays raise the class and message the string check raises,
        # so they name the same first offending face; they hold a face
        # paired with itself as one with no partner, and cannot hold a
        # pair two dimensions apart, which building them refuses
        t, m = tables(4), matchings(4)
        partner, rule = PLANTS[plant](t, m)
        with pytest.raises(MorseError) as want:
            reference.validate_matching(partner, rule, t)
        if plant == "two_apart":
            with pytest.raises(NotCodimOne) as got:
                reference.from_pairs(t, partner, rule)
        else:
            mate, rules, _ = arrays(t, partner, rule)
            if plant == "self":
                assert mate[0][t.index_of(_rule9_vertices(t, m)[1])] == UNPAIRED
            with pytest.raises(type(want.value)) as got:
                validate_matching(mate, rules, t)
        assert str(got.value) == str(want.value)

    def test_first_defect_in_table_order_is_named(self, tables, matchings):
        t, m = tables(4), matchings(4)
        mate, rules = copied(m.mate), copied(m.rules)
        mate[2][3] = UNPAIRED
        rules[1][7] = 0
        with pytest.raises(InvolutionBroken, match=repr(t.faces(1)[7])):
            validate_matching(mate, rules, t)

    def test_partner_outside_the_table(self, tables, matchings):
        t, m = tables(4), matchings(4)
        v = _rule9_vertices(t, m)[0]
        mate = copied(m.mate)
        mate[0][t.index_of(v)] = len(t.faces(1)) + 3
        with pytest.raises(InvolutionBroken, match=f"of {v!r} is not a face"):
            validate_matching(mate, m.rules, t)
        # met first from the partner, the defect is a broken involution
        mate = copied(m.mate)
        mate[1][t.index_of(m.partner[v])] = ~(len(t.faces(0)) + 3)
        with pytest.raises(InvolutionBroken, match=f"^{v!r} -> "):
            validate_matching(mate, m.rules, t)

    def test_string_views(self, tables, matchings):
        t, m = tables(5), matchings(5)
        assert dict(m.partner) == {f: reference.match_face(f, 5)[0] for f in t}
        assert dict(m.rule) == {f: reference.match_face(f, 5)[1] for f in t}
        assert list(m.partner) == list(t) and len(m.rule) == t.size
        assert "not a face" not in m.partner
        with pytest.raises(KeyError):
            m.partner["not a face"]

    def test_a_dropped_matching_is_freed_at_once(self, tables):
        # no reference cycle holds a matching (its views hold the table, not
        # the matching), so `betti` frees each n's matching and its table
        # before it builds the next
        m = build_matching(tables(4))
        gone = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert gone() is None
        finally:
            gc.enable()

    def test_from_pairs_keeps_partial_pairs(self, tables, quadrilateral_pairs):
        t = tables(4)
        planted = reference.from_pairs(t, quadrilateral_pairs)
        assert dict(planted.partner) == quadrilateral_pairs
        assert len(planted.rule) == 0
        assert reference.up_cells(planted, 0) == sorted(quadrilateral_pairs)
        with pytest.raises(InvolutionBroken, match="is not a face"):
            reference.from_pairs(t, {t.faces(0)[0]: "not a face"})

    def test_up_cells_are_the_upward_matched(self, tables, matchings):
        t, m = tables(6), matchings(6)
        for k in range(-1, 7):
            want = [f for f in t.faces(k) if t.dim_of(m.partner[f]) == k + 1]
            assert reference.up_cells(m, k) == want

    def test_jsonl_template_matches_json(self, tables, matchings):
        t, m = tables(5), matchings(5)
        assert "".join(m.jsonl_parts()).splitlines() == [
            json.dumps({"face": f, "partner": m.partner[f], "rule": m.rule[f]})
            for f in t]


class TestAcyclicity:
    @pytest.mark.parametrize("n", [4, 5])
    def test_acyclic(self, tables, matchings, n):
        report = verify_acyclic(matchings(n), tables(n))
        assert report["acyclic"]
        assert all(layer["cycle"] is None for layer in report["layers"])
        assert {layer["p"] for layer in report["layers"]} == set(range(-1, n))

    def test_planted_cycle_is_found(self, tables, quadrilateral_pairs):
        planted = reference.from_pairs(tables(4), quadrilateral_pairs)
        report = verify_acyclic(planted, tables(4))
        assert not report["acyclic"]
        layer0 = next(l for l in report["layers"] if l["p"] == 0)
        assert layer0["cycle"] is not None
        assert report == reference.verify_acyclic(quadrilateral_pairs, tables(4))

    def test_cycle_through_the_last_cells_is_found(self, tables):
        # the search must start from every p-cell, the last ones included
        t = tables(4)
        pairs = reference.quadrilateral(t, t.faces(0)[-4:])
        report = verify_acyclic(reference.from_pairs(t, pairs), t)
        assert report["layers"][1]["cycle"] is not None
        assert report == reference.verify_acyclic(pairs, t)

    @pytest.mark.parametrize("n,seed", [
        pytest.param(n, seed, id=str(seed) if n == 5 else f"n{n}-{seed}")
        for n in (5, 6) for seed in range(1, 6)])
    def test_random_partial_matchings_as_string_reference(self, tables, n, seed):
        # random facet pairings close many cycles, so the search order
        # decides which one is reported
        t = tables(n)
        rng = random.Random(seed)
        partner, used = {}, set()
        for b in rng.sample(list(t), t.size // 2):
            if b == faces.EMPTY or b in used:
                continue
            a = rng.choice(facets(b))
            if a not in used:
                partner[a] = b
                used |= {a, b}
        planted = reference.from_pairs(t, partner)
        report = verify_acyclic(planted, t)
        assert not report["acyclic"]
        assert report == reference.verify_acyclic(partner, t)

    @pytest.mark.parametrize("corners", [slice(None, 6), slice(-4, None)],
                             ids=["first", "last"])
    def test_planted_cycle_raises_in_morse_boundary(self, tables, complexes,
                                                    corners):
        # the solver's order and the verifier's report come from one pass,
        # so the error names the cycle the report holds for layer 0
        t = tables(4)
        pairs = reference.quadrilateral(t, t.faces(0)[corners])
        planted = reference.from_pairs(t, pairs)
        cycle = verify_acyclic(planted, t)["layers"][1]["cycle"]
        assert cycle is not None
        with pytest.raises(CyclicPrec, match=re.escape(str(cycle))):
            morse_boundary(planted, t, 0, complexes(4))

    def test_cyclic_prec_names_the_first_face_of_its_cycle(self, tables, complexes):
        # two quadrilaterals planted, on the first four vertices and on the
        # last four: the walk starts at the first vertex, which comes round
        # again, so the error names the first face of the table on a cycle
        t = tables(4)
        pairs = {**reference.quadrilateral(t, t.faces(0)[4:]),
                 **reference.quadrilateral(t, t.faces(0)[:4])}
        planted = reference.from_pairs(t, pairs)
        cycle = verify_acyclic(planted, t)["layers"][1]["cycle"]
        with pytest.raises(CyclicPrec) as err:
            morse_boundary(planted, t, 0, complexes(4))
        assert err.value.face == cycle[0] == t.faces(0)[0] == "0000"

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_equals_string_digraph_reference(self, tables, matchings, n):
        t, m = tables(n), matchings(n)
        assert verify_acyclic(m, t) == reference.verify_acyclic(m.partner, t)

    def test_t_strictly_monotone_along_vertex_edge_pairs(self, tables, matchings):
        # the vertex-level descent argument: the partner edge of a vertex
        # erases its two rightmost 1 digits, so the opposite vertex has a
        # strictly smaller total; strict monotonicity along every
        # vertex-edge alternation rules out closed paths in that layer
        t, m = tables(5), matchings(5)
        checked = 0
        for v in t.faces(0):
            if m.rule[v] != 9:
                continue
            e = m.partner[v]
            (w,) = vertices_of(e) - {v}
            assert total_and_u(w)[0] < total_and_u(v)[0]
            checked += 1
        assert checked == len(t.faces(0)) - 1

    def test_u_preserved_along_simplex_and_edge_rules(self, tables, matchings):
        t, m = tables(5), matchings(5)
        for f in t:
            if f == EMPTY:
                continue
            if m.rule[f] in (3, 4, 7, 8):
                assert total_and_u(f)[1] == total_and_u(m.partner[f])[1]


class TestInducedOrderEntries:
    """One Kahn pass per level of a matching, held by the matching and
    read by both `verify_acyclic` and `morse_boundary`."""

    @staticmethod
    def fresh(tables, matchings, n):
        # a matching over the built arrays, with no entry made yet
        m = matchings(n)
        return MorseMatching(tables(n), m.mate, m.rules)

    @pytest.mark.parametrize("verify_first", [True, False],
                             ids=["verify-first", "boundary-first"])
    def test_one_pass_per_level(self, tables, matchings, complexes,
                                monkeypatch, verify_first):
        t, cx = tables(6), complexes(6)
        m = self.fresh(tables, matchings, 6)
        kahn, levels = morse._induced_order, []

        def counted(m, k):
            levels.append(k)
            return kahn(m, k)

        monkeypatch.setattr(morse, "_induced_order", counted)
        steps = [lambda: verify_acyclic(m, t)]
        steps += [lambda k=k: morse_boundary(m, t, k, cx) for k in range(6)]
        for step in steps if verify_first else steps[::-1]:
            step()
        assert sorted(levels) == list(range(-1, 6))  # 7 passes, one per level

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_up_ids_are_the_reference_order(self, tables, matchings, complexes, n):
        # the same order whether verify_acyclic made the entries or
        # morse_boundary did, and the array is the entry itself
        t, cx = tables(n), complexes(n)
        verified = self.fresh(tables, matchings, n)
        assert verify_acyclic(verified, t)["acyclic"]
        unverified = self.fresh(tables, matchings, n)
        for k in range(n):
            want = reference.morse_boundary(unverified, t, k, cx)[0]
            for m in (verified, unverified):
                mb = morse_boundary(m, t, k, cx)
                assert mb.ups == want, (n, k)
                assert mb.up_ids is m.induced_order(k)

    def test_copied_arrays_start_with_no_entries(self, tables, matchings,
                                                 complexes, quadrilateral_pairs):
        t, cx = tables(4), complexes(4)
        m = self.fresh(tables, matchings, 4)
        assert verify_acyclic(m, t)["acyclic"]
        planted = MorseMatching(t, copied(m.mate), copied(m.rules))
        for v, e in quadrilateral_pairs.items():
            i, j = t.index_of(v), t.index_of(e)
            planted.mate[0][i], planted.mate[1][j] = j, ~i
        report = verify_acyclic(planted, t)
        assert report["layers"][1]["cycle"] is not None
        assert report == reference.verify_acyclic(planted.partner, t)
        with pytest.raises(CyclicPrec):
            morse_boundary(planted, t, 0, cx)
        # the matching copied from keeps its own entries
        assert morse_boundary(m, t, 0, cx).ups == reference.morse_boundary(m, t, 0, cx)[0]
        assert verify_acyclic(m, t)["acyclic"]

    def test_an_edited_report_leaves_the_entry(self, tables, complexes,
                                               quadrilateral_pairs):
        t, cx = tables(4), complexes(4)
        with pytest.raises(CyclicPrec) as want:
            morse_boundary(reference.from_pairs(t, quadrilateral_pairs), t, 0, cx)
        planted = reference.from_pairs(t, quadrilateral_pairs)
        cycle = verify_acyclic(planted, t)["layers"][1]["cycle"]
        before = list(cycle)
        cycle[0] = "edited"
        cycle.append("edited")
        with pytest.raises(CyclicPrec) as got:
            morse_boundary(planted, t, 0, cx)
        assert (str(got.value), got.value.face) == (str(want.value), want.value.face)
        assert verify_acyclic(planted, t)["layers"][1]["cycle"] == before


class TestMorseCounts:
    """Critical cells: the faces a matching leaves unpaired."""

    def test_full_matching_all_zero(self, tables, matchings):
        for n in (4, 5, 6, 7):
            t, m = tables(n), matchings(n)
            assert len(m.partner) == t.size
            assert all(f in m.partner for f in t)

    def test_restricted_on_5_3(self, tables, matchings):
        from halfcube.subcomplex import betti_power, build_subcomplex

        t = tables(5)
        spec = build_subcomplex(5, 3, t, matchings(5))
        assert len(spec.unmatched) == betti_power(5, 3) == 31
        assert {t.dim_of(f) for f in spec.unmatched} == {2}


class TestMorseBoundary:
    def test_n4_k0_size(self, tables, matchings, complexes):
        mb = morse_boundary(matchings(4), tables(4), 0, complexes(4))
        assert mb.size == 7
        assert all(v in (1, -1) for v in reference.diagonal(mb))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_n4_triangular_unit_det(self, tables, matchings, complexes, k):
        mb = morse_boundary(matchings(4), tables(4), k, complexes(4))
        assert mb.is_triangular()
        if mb.size <= 7:
            dense = [[mb.cols[j].get(i, 0) for j in range(mb.size)]
                     for i in range(mb.size)]
            assert abs(brute_det(dense)) == 1

    def test_n5_sizes_match(self, tables, matchings, complexes):
        m = matchings(5)
        mb = morse_boundary(m, tables(5), 2, complexes(5))
        assert len(mb.ups) == len(mb.downs) == mb.size
        assert mb.size == len(reference.up_cells(m, 2))
        assert sorted(mb.downs) == sorted(m.partner[e]
                                          for e in reference.up_cells(m, 2))

    def test_prec_respected_by_order(self, tables, matchings, complexes):
        # e2 precedes e when e2 is an upward-matched facet of e's partner
        t = tables(4)
        mb = morse_boundary(matchings(4), t, 1, complexes(4))
        pos = {e: i for i, e in enumerate(mb.ups)}
        pairs = [(pos[g], pos[e]) for e, d in zip(mb.ups, mb.downs)
                 for g in facets(d) if g in pos and g != e]
        assert pairs and all(a < b for a, b in pairs)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_equals_string_reference(self, tables, matchings, complexes, n):
        # the positions read as the reference's strings and dicts, and the
        # solver agrees with the string-keyed back-substitution
        t, m, cx = tables(n), matchings(n), complexes(n)
        rng = random.Random(n)
        for k in range(n):
            mb = morse_boundary(m, t, k, cx)
            ref = reference.morse_boundary(m, t, k, cx)
            assert (mb.ups, mb.downs, list(mb.cols)) == ref[:3], (n, k)
            assert [mb.rank[i] for i in mb.up_ids] == list(range(mb.size))
            assert mb.rank.count(-1) == len(t.faces(k)) - mb.size
            cells = len(t.faces(k + 1))
            for _ in range(5):
                y = cx.apply(ChainVector(k + 1, {rng.randrange(cells): rng.randint(-3, 3)
                                                 for _ in range(rng.randint(1, 4))}))
                want = reference.solve_cycle(y, t, ref)
                got = solve_cycle(y, m, t, cx, mb)
                assert list(got.coeffs.items()) == list(want.coeffs.items()), (n, k)

    def test_planted_defects_break_triangularity(self, tables, matchings, complexes):
        mb = morse_boundary(matchings(5), tables(5), 2, complexes(5))
        j = mb.size // 2
        below, doubled, dropped = list(mb.cols), list(mb.cols), list(mb.cols)
        below[j][j + 1] = 1  # an entry under the diagonal
        doubled[j][j] = 2 * doubled[j][j]
        del dropped[j][j]
        assert mb.is_triangular()
        for cols in (below, doubled, dropped):
            bad = reference.morse_boundary_with_cols(mb, cols)
            assert not bad.is_triangular()
        with_cols = reference.morse_boundary_with_cols
        assert reference.diagonal(with_cols(mb, doubled))[j] in (2, -2)
        assert reference.diagonal(with_cols(mb, dropped))[j] == 0

    def test_storage_under_24_bytes_per_entry(self, tables, matchings, complexes):
        # arrays of positions and ranks; the column dicts and string lists
        # they replace took about 165 bytes per entry at n=7
        t, m, cx = tables(7), matchings(7), complexes(7)
        for d in range(8):
            cx.boundary(d)
        tracemalloc.start()
        try:
            mbs = [morse_boundary(m, t, k, cx) for k in range(7)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = sum(len(mb.rows) for mb in mbs)
        assert entries == 7155
        assert held < 24 * entries


class TestSolveCycle:
    def test_single_cell_boundary(self, tables, matchings, complexes):
        t, m, cx = tables(4), matchings(4), complexes(4)
        d = t.faces(2)[0]
        y = cx.apply(ChainVector(2, {t.index_of(d): 1}))
        f = solve_cycle(y, m, t, cx, morse_boundary(m, t, 1, cx))
        assert cx.apply(f) == y
        downs = {m.partner[e] for e in reference.up_cells(m, 1)}
        assert all(t.faces(2)[i] in downs for i in f.coeffs)

    def test_hundred_random_boundaries(self, tables, matchings, complexes):
        t, m, cx = tables(4), matchings(4), complexes(4)
        rng = random.Random(1234)
        for k in (1, 2):
            mb = morse_boundary(m, t, k, cx)
            cells = t.faces(k + 1)
            for _ in range(50):
                c = ChainVector(k + 1, {
                    rng.randrange(len(cells)): rng.randint(-5, 5)
                    for _ in range(rng.randint(1, 4))})
                y = cx.apply(c)
                f = solve_cycle(y, m, t, cx, mb)
                assert cx.apply(f) == y

    def test_zero_cycle(self, tables, matchings, complexes):
        t, m, cx = tables(4), matchings(4), complexes(4)
        f = solve_cycle(ChainVector(1, {}), m, t, cx, morse_boundary(m, t, 1, cx))
        assert f.is_zero()

    def test_not_a_cycle(self, tables, matchings, complexes):
        t, m, cx = tables(4), matchings(4), complexes(4)
        y = ChainVector(1, {0: 1})  # a bare edge has nonzero boundary
        with pytest.raises(NotACycle):
            solve_cycle(y, m, t, cx, morse_boundary(m, t, 1, cx))

    def test_flipped_diagonal_sign_leaves_a_residual(self, tables, matchings,
                                                     complexes):
        # one diagonal entry of the level-2 restricted boundary negated:
        # the solve of that column's own boundary no longer reproduces it
        t, m, cx = tables(5), matchings(5), complexes(5)
        mb = morse_boundary(m, t, 2, cx)
        j = mb.size // 2
        cols = list(mb.cols)
        cols[j][j] = -cols[j][j]
        bad = reference.morse_boundary_with_cols(mb, cols)
        y = cx.apply(ChainVector(3, {mb.down_ids[j]: 1}))
        assert cx.apply(solve_cycle(y, m, t, cx, mb)) == y
        with pytest.raises(ResidualNonzero):
            solve_cycle(y, m, t, cx, bad)


class TestCycleLattice:
    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (4, 3),
                                     (5, 1), (5, 2), (5, 3), (5, 4)])
    def test_down_cell_boundaries_base_the_cycles(self, tables, matchings,
                                                  complexes, n, k):
        # boundaries of the downward-matched cells: independent, spanning
        # the kernel, and saturated (all invariant factors 1)
        t, m, cx = tables(n), matchings(n), complexes(n)
        downs = sorted(m.partner[e] for e in reference.up_cells(m, k))
        b = cx.boundary(k + 1)
        n_k = len(t.faces(k))
        entries = {}
        for j, d in enumerate(downs):
            for i, v in b.cols[t.index_of(d)].items():
                entries[(i, j)] = v
        res = reference.smith_normal_form((n_k, len(downs), entries))
        assert res.rank == len(downs)
        assert not res.torsion()
        bk = cx.boundary(k)
        dense = [[bk.cols[j].get(i, 0) for j in range(bk.n_cols)]
                 for i in range(bk.n_rows)]
        kernel_rank = n_k - int_rank(dense)
        assert res.rank == kernel_rank

    def test_cyclic_induced_order_detected(self, tables, complexes):
        # plant a non-acyclic partial matching: three edge/triangle pairs
        # whose induced order on the edges closes up into a 3-cycle
        t = tables(4)
        tri_of = {}
        for tri in t.faces(2):
            for e in facets(tri):
                tri_of.setdefault(e, []).append(tri)
        planted = None
        edges = t.faces(1)
        for e1 in edges:
            for t1 in tri_of[e1]:
                for e2 in facets(t1):
                    if e2 == e1:
                        continue
                    for t2 in tri_of[e2]:
                        if t2 == t1:
                            continue
                        for e3 in facets(t2):
                            if e3 in (e1, e2):
                                continue
                            for t3 in tri_of[e3]:
                                if t3 in (t1, t2) or e1 not in facets(t3):
                                    continue
                                planted = [(e1, t1), (e2, t2), (e3, t3)]
                                break
                            if planted:
                                break
                        if planted:
                            break
                    if planted:
                        break
                if planted:
                    break
            if planted:
                break
        assert planted is not None
        partner = {}
        for e, tri in planted:
            partner[e] = tri
            partner[tri] = e
        fake = reference.from_pairs(t, partner)
        assert reference.up_cells(fake, 1) == sorted(e for e, _ in planted)
        with pytest.raises(CyclicPrec):
            morse_boundary(fake, t, 1, complexes(4))

    @pytest.mark.parametrize("k", [1, 2])
    def test_projection_to_up_cells_is_injective(self, tables, matchings,
                                                 complexes, k):
        # a k-cycle vanishing on every upward-matched cell is zero: the
        # boundary stacked with the up-cell coordinate selectors has full
        # column rank
        t, m, cx = tables(4), matchings(4), complexes(4)
        bk = cx.boundary(k)
        cells = t.faces(k)
        ups = set(reference.up_cells(m, k))
        rows = [[bk.cols[j].get(i, 0) for j in range(bk.n_cols)]
                for i in range(bk.n_rows)]
        for i, f in enumerate(cells):
            if f in ups:
                rows.append([1 if j == i else 0 for j in range(len(cells))])
        assert int_rank(rows) == len(cells)


class TestMixedTables:
    """`verify_acyclic`, `morse_boundary` and `solve_cycle` take the table
    beside the matching and the complex that hold it; one that is not
    theirs, even an equal table, is a MorseError.  Before the check the n=5
    matching with the n=6 table was reported acyclic over 7 layers, for a
    complex with 6; the other cases raised IndexError, or ResidualNonzero
    for the n=6 Morse boundary."""

    CASES = ["verify_acyclic", "verify_acyclic-equal-table",
             "morse_boundary-table", "morse_boundary-complex",
             "solve_cycle-table", "solve_cycle-complex", "solve_cycle-boundary"]

    @pytest.mark.parametrize("case", CASES)
    def test_table_not_the_owners_is_an_error(self, tables, matchings, complexes,
                                              case):
        t5, m5, cx5 = tables(5), matchings(5), complexes(5)
        t6, cx6 = tables(6), complexes(6)
        y = cx5.apply(ChainVector(3, {0: 1}))
        call = {
            "verify_acyclic": lambda: verify_acyclic(m5, t6),
            "verify_acyclic-equal-table":
                lambda: verify_acyclic(m5, faces.enumerate_faces(5)),
            "morse_boundary-table": lambda: morse_boundary(m5, t6, 2, cx6),
            "morse_boundary-complex": lambda: morse_boundary(m5, t5, 2, cx6),
            "solve_cycle-table": lambda: solve_cycle(
                y, m5, t6, cx6, morse_boundary(m5, t5, 2, cx5)),
            "solve_cycle-complex": lambda: solve_cycle(
                y, m5, t5, cx6, morse_boundary(m5, t5, 2, cx5)),
            "solve_cycle-boundary": lambda: solve_cycle(
                y, m5, t5, cx5, morse_boundary(matchings(6), t6, 2, cx6)),
        }[case]
        with pytest.raises(MorseError, match="the table given is not"):
            call()
