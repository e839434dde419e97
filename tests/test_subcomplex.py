import json
import re
from math import comb

import pytest

import reference
from halfcube import subcomplex as subc
from halfcube.chains import ChainComplex
from halfcube.faces import EMPTY, STAR, Kind, classify, enumerate_faces
from halfcube.subcomplex import (
    BadRange,
    SubcomplexError,
    SupportLeak,
    basis_faces,
    betti_binomial,
    betti_power,
    build_family,
    build_subcomplex,
    homology_basis,
    subcomplex_faces,
)
from reference import PlantedComplex, boundary_from_cols, facets, with_sign


class TestBettiForms:
    def test_anchor_4_3(self):
        # term by term: C(4,3)C(2,2) + C(4,4)C(3,2) = 4 + 3
        assert betti_binomial(4, 3) == 7
        # 2**0*C(2,2) + 2**1*C(3,2) = 1 + 6
        assert betti_power(4, 3) == 7

    def test_anchor_5_4(self):
        assert betti_binomial(5, 4) == comb(5, 4) * comb(3, 3) + comb(5, 5) * comb(4, 3)
        assert betti_binomial(5, 4) == 9
        assert betti_power(5, 4) == 9

    def test_anchor_5_3(self):
        assert betti_power(5, 3) == 1 + 6 + 24 == 31
        assert betti_binomial(5, 3) == 31

    def test_k_equals_n(self):
        for n in range(3, 12):
            assert betti_binomial(n, n) == 1
            assert betti_power(n, n) == 1

    def test_identity_up_to_30(self):
        for n in range(3, 31):
            for k in range(3, n + 1):
                assert betti_binomial(n, k) == betti_power(n, k)

    def test_range_errors(self):
        with pytest.raises(BadRange):
            betti_binomial(5, 2)
        with pytest.raises(BadRange):
            betti_power(4, 5)


class TestBuildSubcomplex:
    def test_5_4_excluded_faces(self, tables, matchings):
        t = tables(5)
        spec = build_subcomplex(5, 4, t, matchings(5))
        removed = set(t) - set(spec.faces)
        # the dim-4 half-cube cells plus the top cell
        assert removed == {f for f in t if classify(f).kind is Kind.HALFCUBE
                           and classify(f).dim >= 4}
        assert len(removed) == 2 * comb(5, 4) + 1

    def test_4_3_unmatched_are_triangles(self, tables, matchings):
        spec = build_subcomplex(4, 3, tables(4), matchings(4))
        assert all(classify(f) == (Kind.SIMPLEX, 2) for f in spec.unmatched)

    def test_facet_closed(self, tables, matchings):
        spec = build_subcomplex(5, 3, tables(5), matchings(5))
        for f in spec.faces:
            if f == EMPTY:
                continue
            assert set(facets(f)) <= spec.faces

    def test_externals_are_k_halfcubes_with_inner_facets(self, tables, matchings):
        spec = build_subcomplex(5, 4, tables(5), matchings(5))
        assert len(spec.unmatched) == len(spec.external)
        for b in spec.external:
            assert classify(b) == (Kind.HALFCUBE, 4)
            assert set(facets(b)) <= spec.faces

    def test_bad_range(self, tables, matchings):
        with pytest.raises(BadRange):
            build_subcomplex(5, 5, tables(5), matchings(5))
        with pytest.raises(BadRange):
            build_subcomplex(5, 2, tables(5), matchings(5))

    def test_n_must_be_the_tables(self, tables, matchings, complexes):
        # the n=6 table read as n=5 would give the n=6 census (111 cells,
        # against betti_power(5, 3) = 31) labelled n=5
        t = tables(6)
        msg = "n=5 but the face table has n=6"
        with pytest.raises(BadRange, match=msg):
            build_subcomplex(5, 3, t, matchings(6))
        with pytest.raises(BadRange, match=msg):
            homology_basis(5, 3, t, complexes(6))

    @pytest.mark.parametrize("case", ["matching", "complex", "equal-table"])
    def test_table_must_be_the_owners(self, tables, matchings, complexes, case):
        # before the check the n=6 matching raised IndexError, and the n=6
        # complex gave 31 chains built from the n=6 boundary, each of
        # which passed its cycle check
        t5 = tables(5)
        with pytest.raises(BadRange, match="the face table is not the"):
            if case == "matching":
                build_subcomplex(5, 3, t5, matchings(6))
            elif case == "complex":
                homology_basis(5, 3, t5, complexes(6))
            else:
                build_subcomplex(5, 3, enumerate_faces(5), matchings(5))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_unmatched_census(self, tables, matchings, n):
        t = tables(n)
        for k in range(3, n):
            spec = build_subcomplex(n, k, t, matchings(n))
            assert len(spec.unmatched) == betti_power(n, k)
            assert {t.dim_of(f) for f in spec.unmatched} == {k - 1}

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_equals_string_set_reference(self, tables, matchings, n):
        t, m = tables(n), matchings(n)
        family = build_family(m)
        assert sorted(family) == list(range(3, n))
        for k in range(3, n):
            want = reference.build_subcomplex(n, k, t, m)
            for spec in (build_subcomplex(n, k, t, m), family[k]):
                assert set(spec.faces) == want.faces
                assert len(spec.faces) == len(want.faces)
                assert spec.unmatched == want.unmatched
                assert spec.external == want.external
            assert set(subcomplex_faces(k, t)) == reference.subcomplex_faces(k, t)

    @pytest.mark.parametrize("n", [8, 9])
    def test_family_equals_one_subcomplex_at_a_time(self, tables, matchings, n):
        t, m = tables(n), matchings(n)
        family = build_family(m)
        for k in range(3, n):
            spec = build_subcomplex(n, k, t, m)
            assert (family[k].n, family[k].k) == (spec.n, spec.k) == (n, k)
            assert family[k].faces.masks == spec.faces.masks
            assert family[k].unmatched == spec.unmatched
            assert family[k].external == spec.external

    def test_dropped_facet_breaks_closure(self, tables, matchings, monkeypatch):
        # a kept triangle moved up the filtration, out of C_{5,3}: the
        # tetrahedra on it lose a facet
        t = tables(5)
        planted = reference.moved_levels(t, t.faces(2)[0], 4)
        assert reference.closure_defects(reference.members(planted, 3, t))
        monkeypatch.setattr(subc, "filtration_levels", lambda table: planted)
        with pytest.raises(SubcomplexError, match="not facet-closed"):
            build_subcomplex(5, 3, t, matchings(5))

    def test_external_facet_outside_is_a_leak(self, tables, matchings, monkeypatch):
        # '***10' has only half-cube cofaces, all deleted at k=4, so C_{5,4}
        # without it stays closed; it is still a facet of an external cell
        t, m = tables(5), matchings(5)
        g = "***10"
        spec = build_subcomplex(5, 4, t, m)
        assert m.rule[g] == 1 and g in spec.unmatched
        assert any(g in facets(b) for b in spec.external if b != m.partner[g])
        planted = reference.moved_levels(t, g, 5)
        assert not reference.closure_defects(reference.members(planted, 4, t))
        monkeypatch.setattr(subc, "filtration_levels", lambda table: planted)
        with pytest.raises(SupportLeak):
            build_subcomplex(5, 4, t, m)

    @pytest.mark.parametrize("defect", ["closure", "unmatched", "external", "leak"])
    def test_planted_defect_names_its_first_offender(self, tables, matchings,
                                                     monkeypatch, defect):
        # each check's first offender, through both entry points and the
        # string-set reference; `reference.planted_defect` says what each
        # one plants
        n, k, m, planted = reference.planted_defect(tables, matchings, defect)
        t = m.table
        with pytest.raises(SubcomplexError) as want:
            reference.build_subcomplex(n, k, t, m, reference.members(planted, k, t))
        monkeypatch.setattr(subc, "filtration_levels", lambda table: planted)
        for build in (lambda: build_subcomplex(n, k, t, m), lambda: build_family(m)):
            with pytest.raises(SubcomplexError) as got:
                build()
            assert ((type(got.value), str(got.value), got.value.k, got.value.face)
                    == (type(want.value), str(want.value), k, want.value.face))
        assert want.value.face == reference.PLANTED_OFFENDERS[defect]


class TestBasisFaces:
    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (5, 4), (6, 3), (6, 4), (6, 5)])
    def test_count_matches_closed_form(self, tables, n, k):
        assert len(basis_faces(k, tables(n))) == betti_power(n, k)

    def test_4_3_is_seven(self, tables):
        assert len(basis_faces(3, tables(4))) == 7

    def test_tail_is_star_then_zeros(self, tables):
        for f in basis_faces(3, tables(5)):
            tail = f[f.rfind(STAR):]
            assert tail[0] == STAR
            assert set(tail[1:]) <= {"0"}

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 3), (5, 4), (6, 4)])
    def test_equals_external_partner_set(self, tables, matchings, n, k):
        spec = build_subcomplex(n, k, tables(n), matchings(n))
        assert basis_faces(k, tables(n)) == spec.external


class TestHomologyBasis:
    def test_chains_are_cycles(self, tables, complexes):
        cx = complexes(4)
        hb = homology_basis(4, 3, tables(4), cx)
        for ch in hb.chains:
            assert cx.apply(ch).is_zero()

    def test_5_3_has_31_chains(self, tables, complexes):
        hb = homology_basis(5, 3, tables(5), complexes(5))
        assert len(hb.chains) == 31

    def test_support_in_facets_of_bface(self, tables, complexes):
        t = tables(4)
        hb = homology_basis(4, 3, t, complexes(4))
        cells = t.faces(2)
        for b, ch in zip(hb.faces, hb.chains):
            support = {cells[i] for i in ch.coeffs}
            assert support == set(facets(b))

    def test_jsonl_format(self, tables, complexes):
        hb = homology_basis(4, 3, tables(4), complexes(4))
        lines = list(hb.jsonl_lines())
        line = json.loads(lines[0])
        assert set(line) == {"bface", "chain"}
        assert all(set(t) == {"face", "coeff"} for t in line["chain"])
        assert lines == sorted(lines, key=lambda s: json.loads(s)["bface"])

    def test_renders_the_faces_of_its_own_table(self, tables, complexes):
        t = tables(5)
        hb = homology_basis(5, 3, t, complexes(5))
        lines = [json.loads(s) for s in hb.jsonl_lines()]
        assert [l["bface"] for l in lines] == hb.faces == basis_faces(3, t)
        assert {len(x["face"]) for l in lines for x in l["chain"]} == {5}
        assert [[t.index_of(x["face"]) for x in l["chain"]] for l in lines] == [
            sorted(ch.coeffs) for ch in hb.chains]

    def test_rendering_takes_no_table(self, tables, complexes):
        hb = homology_basis(5, 3, tables(5), complexes(5))
        with pytest.raises(TypeError):
            hb.jsonl_lines(tables(6))

    def test_boundary_that_is_not_a_cycle_is_an_error(self, tables, monkeypatch):
        # one sign of the boundary of a 2-cell under the first basis chain
        # flipped: that chain's boundary then holds +-2 in its row
        t = tables(4)
        cx = ChainComplex(t)
        first = homology_basis(4, 3, t, cx)
        col = min(first.chains[0].coeffs)
        below = cx.boundary(2)
        cols = list(below.cols)
        row = min(cols[col])
        cols[col] = {**cols[col], row: -cols[col][row]}
        planted = boundary_from_cols(2, below.n_rows, cols)
        boundary = cx.boundary
        monkeypatch.setattr(cx, "boundary", lambda d: planted if d == 2 else boundary(d))
        with pytest.raises(SubcomplexError, match=re.escape(
                f"boundary of {first.faces[0]!r} is not a cycle")) as e:
            homology_basis(4, 3, t, cx)
        assert (e.value.k, e.value.face) == (3, first.faces[0])


BASIS_NK = [(n, k) for n in range(4, 8) for k in range(3, n)]
PLACES = ("first", "middle", "last")


class TestCycleCheckEqualsReference:
    """The cycle check on the boundary arrays against the check through
    `ChainVector`s and `ChainComplex.apply` (`reference.homology_basis`)."""

    @staticmethod
    def planted_flip(cx, k, ids, place):
        """The basis position at `place`, and the complex with one sign of
        ∂_{k-1} flipped: the one of that chain's first facet that no
        earlier basis chain holds."""
        pos = {"first": 0, "middle": len(ids) // 2, "last": len(ids) - 1}[place]
        b, below = cx.boundary(k), cx.boundary(k - 1)
        earlier = {i for j in ids[:pos] for i in b.flat[b.offsets[j]:b.offsets[j + 1]]}
        j = ids[pos]
        i = next(i for i in b.flat[b.offsets[j]:b.offsets[j + 1]] if i not in earlier)
        t = below.offsets[i]
        return pos, PlantedComplex(cx.table, {k - 1: with_sign(below, t, -below.signs[t])})

    @pytest.mark.parametrize("n,k", BASIS_NK)
    def test_every_basis_is_accepted(self, tables, complexes, n, k):
        t, cx = tables(n), complexes(n)
        assert homology_basis(n, k, t, cx).ids == reference.homology_basis(n, k, t, cx).ids

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("n,k", BASIS_NK)
    def test_flipped_sign_is_rejected_at_the_same_face(self, tables, complexes, n, k,
                                                       place):
        t, cx = tables(n), complexes(n)
        ids = reference.homology_basis(n, k, t, cx).ids
        pos, planted = self.planted_flip(cx, k, ids, place)
        face = t.faces(k)[ids[pos]]
        for check in (homology_basis, reference.homology_basis):
            with pytest.raises(SubcomplexError, match=re.escape(
                    f"boundary of {face!r} is not a cycle")) as e:
                check(n, k, t, planted)
            assert (e.value.k, e.value.face) == (k, face)

    @pytest.mark.parametrize("dim", ["k", "k-1"])
    @pytest.mark.parametrize("n,k", BASIS_NK)
    def test_sign_of_two_is_a_premise_error(self, tables, complexes, n, k, dim):
        # a 2 in the middle basis column of ∂_k, or in its first facet's
        # column of ∂_{k-1}: the error names that column's cell
        t, cx = tables(n), complexes(n)
        ids = reference.homology_basis(n, k, t, cx).ids
        d, col = k, ids[len(ids) // 2]
        if dim == "k-1":
            d, col = k - 1, cx.boundary(k).flat[cx.boundary(k).offsets[col]]
        b = cx.boundary(d)
        planted = PlantedComplex(t, {d: with_sign(b, b.offsets[col], 2)})
        face = t.faces(d)[col]
        with pytest.raises(SubcomplexError, match=re.escape(
                f"boundary of {face!r} holds the sign 2; the cycle check needs every "
                "sign +1 or -1")) as e:
            homology_basis(n, k, t, planted)
        assert (e.value.k, e.value.face) == (k, face)

    @pytest.mark.parametrize("n,k", BASIS_NK)
    def test_jsonl_is_json_dumps_of_the_sorted_chain(self, tables, complexes, n, k):
        t, cx = tables(n), complexes(n)
        hb = homology_basis(n, k, t, cx)
        cells = t.faces(k - 1)
        assert list(hb.jsonl_lines()) == [
            json.dumps({"bface": f, "chain": [{"face": cells[i], "coeff": ch.coeffs[i]}
                                              for i in sorted(ch.coeffs)]})
            for f, ch in zip(hb.faces, hb.chains)]
