import dataclasses
import itertools
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import reference
from halfcube import _family, faces, snf
from halfcube.faces import FaceSubset
from halfcube.chains import ChainVector
from halfcube.snf import (
    NotClosed,
    NotCycles,
    OracleError,
    class_independence,
    check_closed,
    homology,
    homology_report,
    restricted_boundary,
)
from halfcube.subcomplex import betti_power, homology_basis, subcomplex_faces
from reference import add_scaled, int_rank, smith_normal_form, square_defects


def minor_gcd_factors(m):
    # independent reference: d_k = gcd of all k x k minors, f_k = d_k/d_{k-1}
    nr, nc = len(m), len(m[0]) if m else 0

    def det(rows, cols):
        sub = [[m[r][c] for c in cols] for r in rows]
        k = len(sub)
        if k == 1:
            return sub[0][0]
        total = 0
        for j in range(k):
            if sub[0][j]:
                minor = [row[:j] + row[j + 1:] for row in sub[1:]]
                total += (-1) ** j * sub[0][j] * _det(minor)
        return total

    def _det(s):
        if len(s) == 1:
            return s[0][0]
        total = 0
        for j in range(len(s)):
            if s[0][j]:
                minor = [row[:j] + row[j + 1:] for row in s[1:]]
                total += (-1) ** j * s[0][j] * _det(minor)
        return total

    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in itertools.combinations(range(nr), k):
            for cols in itertools.combinations(range(nc), k):
                g = gcd(g, det(rows, cols))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).factors == (1, 1, 1)

    def test_zero(self):
        res = smith_normal_form([[0, 0], [0, 0]])
        assert res.factors == () and res.rank == 0

    def test_diagonal_torsion(self):
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
        assert smith_normal_form([[6, 0], [0, 10]]).factors == (2, 30)

    def test_single_row(self):
        assert smith_normal_form([[4, 6, 10]]).factors == (2,)

    def test_sparse_input(self):
        res = smith_normal_form((3, 3, {(0, 0): 2, (1, 1): 4, (2, 2): 8}))
        assert res.factors == (2, 4, 8)

    def test_divisibility_chain_random(self):
        rng = random.Random(99)
        for _ in range(150):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
            res = smith_normal_form(m)
            for a, b in zip(res.factors, res.factors[1:]):
                assert b % a == 0
            assert res.factors == minor_gcd_factors(m)
            assert res.rank == int_rank(m)

    def test_determinism(self):
        m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        assert smith_normal_form(m) == smith_normal_form(m)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            smith_normal_form((2, 2, {(0, 0): 1, (-1, 1): 2}))

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(2026)
        for _ in range(300):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(nc)]
                 for _ in range(nr)]
            s = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
            want = sorted(abs(s[i, i]) for i in range(min(nr, nc)) if s[i, i])
            assert smith_normal_form(m).factors == tuple(want), m


class TestDivisibilityChain:
    def test_units_are_prepended(self):
        assert snf._divisibility_chain([1, 4, -1, 6]) == (1, 1, 2, 12)

    def test_coprime_non_units_give_a_unit(self):
        assert snf._divisibility_chain([-1, 2, 3]) == (1, 1, 6)

    def test_many_units(self):
        values = [(-1) ** i for i in range(3000)] + [-4, 6]
        assert snf._divisibility_chain(values) == (1,) * 3000 + (2, 12)

    def test_equals_reference(self):
        rng = random.Random(17)
        for _ in range(300):
            values = [rng.choice((1, -1, rng.randint(-30, 30) or 1))
                      for _ in range(rng.randint(0, 9))]
            assert (snf._divisibility_chain(values)
                    == reference.divisibility_chain(values)), values


def _distinct_boundaries(t, cx, n):
    """Every restricted `∂_d` that `homology_report` factors for C_{n,k}
    (3 <= k < n) and for the full complex, each distinct matrix once."""
    seen = {}
    for sub in [subcomplex_faces(k, t) for k in range(3, n)] + [check_closed(set(t), t)]:
        for d in range(0, n + 2):
            n_rows, n_cols, entries = restricted_boundary(sub, d, cx)
            seen.setdefault((n_rows, n_cols, frozenset(entries.items())), entries)
    return [(r, c, e) for (r, c, _), e in seen.items()]


def _unimodular(m, moves):
    """m after a sequence of row or column swaps, sign flips and additions
    of an integer multiple of one line to another."""
    a = [row[:] for row in m]
    for kind, on_rows, i, j, q in moves:
        if not on_rows:
            a = [list(col) for col in zip(*a)]
        i, j = i % len(a), j % len(a)
        if kind == "swap":
            a[i], a[j] = a[j], a[i]
        elif kind == "negate":
            a[i] = [-x for x in a[i]]
        elif i != j:
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        if not on_rows:
            a = [list(col) for col in zip(*a)]
    return a


small_matrices = st.integers(1, 5).flatmap(lambda nc: st.lists(
    st.lists(st.integers(-6, 6), min_size=nc, max_size=nc), min_size=1, max_size=5))
unimodular_moves = st.lists(st.tuples(st.sampled_from(["swap", "negate", "add"]), st.booleans(),
                           st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)),
                 max_size=12)


class TestHeapElimination:
    """The heap-driven elimination against the scanning reference in
    `tests/reference.py`: equal `SNFResult`s, and the input left as it
    was."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_restricted_boundaries_equal_reference(self, tables, complexes, n):
        for n_rows, n_cols, entries in _distinct_boundaries(tables(n), complexes(n), n):
            before = dict(entries)
            got = snf._sparse_snf(n_rows, n_cols, entries)
            assert entries == before
            assert got == reference.sparse_snf(n_rows, n_cols, entries), (n_rows, n_cols)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_certification_stacks_equal_reference(self, tables, complexes,
                                                  monkeypatch, n):
        # criterion 9's stacked matrices on the reduced complex: a row per
        # live (k-1)-cell, a column per live k-cell and per basis cycle,
        # told from the rank eliminations by that shape
        t, cx = tables(n), complexes(n)
        calls = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, entries):
            calls.append((n_rows, n_cols, dict(entries)))
            return eliminate(n_rows, n_cols, entries)

        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        for k in range(3, n):
            calls.clear()
            hb = homology_basis(n, k, t, cx)
            sub = subcomplex_faces(k, t)
            verdict = class_independence(cx.boundary(k), hb.ids, sub, cx)
            assert verdict.ok
            left = snf._Reduction(sub, cx).left
            shape = (left.mask(k - 1).count(1),
                     left.mask(k).count(1) + betti_power(n, k))
            stacks = [c for c in calls if c[:2] == shape]
            assert len(stacks) == 1, (n, k)
            n_rows, n_cols, stacked = stacks[0]
            assert (eliminate(n_rows, n_cols, stacked)
                    == reference.sparse_snf(n_rows, n_cols, stacked)), (n, k)

    def test_random_sparse_equal_reference(self):
        rng = random.Random(20261018)
        with_torsion = 0
        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 30), rng.randint(1, 30)
            density = rng.choice((0.05, 0.15, 0.4))
            entries = {(r, c): rng.randint(-9, 9)
                       for r in range(n_rows) for c in range(n_cols)
                       if rng.random() < density}
            before = dict(entries)
            got = snf._sparse_snf(n_rows, n_cols, entries)
            assert entries == before
            assert got == reference.sparse_snf(n_rows, n_cols, entries), entries
            with_torsion += bool(got.torsion())
        assert with_torsion >= 20

    @pytest.mark.parametrize("m,factors", [
        ([[4, 2, 6], [2, 4, 5], [-4, 2, -1]], (1, 2, 14)),
        ([[-5, -8, 0], [0, 0, 0], [5, 7, 0]], (1, 5)),
        ([[0, 0, 0, 0, -3], [0, 1, 0, 0, -1], [0, 4, -2, 0, -7], [-3, -8, -8, 0, 9]],
         (1, 1, 1, 18)),
    ])
    def test_entry_left_by_a_moving_pivot_stays_a_candidate(self, m, factors):
        # the gcd loop moves the pivot off the popped entry, which stays in
        # the matrix; without a new record for it the heap runs dry
        assert smith_normal_form(m).factors == factors

    def test_record_of_another_value_is_skipped(self, monkeypatch):
        # a popped record whose entry now holds another |v| is dead; taken
        # as the pivot, it changes the pivot sequence to [-1, 1, 1, -924]
        # (the invariant factors stay the same)
        entries = {(0, 1): 2, (0, 2): -6, (0, 3): -1, (1, 0): -3, (1, 2): -1,
                   (1, 3): -6, (2, 0): 3, (2, 2): 3, (2, 3): -3, (3, 0): 2,
                   (3, 1): -5}
        pivots = []
        chain = snf._divisibility_chain
        monkeypatch.setattr(snf, "_divisibility_chain",
                            lambda values: pivots.append(values) or chain(values))
        assert snf._sparse_snf(4, 4, entries).factors == (1, 1, 1, 924)
        assert pivots == [[-1, 1, -1, 924]]

    @settings(deadline=None, max_examples=150)
    @given(m=small_matrices, moves=unimodular_moves)
    def test_unimodular_moves_keep_invariant_factors(self, m, moves):
        moved = _unimodular(m, moves)
        assert smith_normal_form(moved).factors == smith_normal_form(m).factors

    @settings(deadline=None, max_examples=150)
    @given(m=small_matrices)
    def test_small_dense_equal_reference(self, m):
        entries = {(r, c): v for r, row in enumerate(m) for c, v in enumerate(row) if v}
        assert (smith_normal_form(m)
                == reference.sparse_snf(len(m), len(m[0]), entries))


def _subsets(t, n):
    """Every C_{n,k} (3 <= k < n), the full complex and its boundary
    sphere."""
    return ([subcomplex_faces(k, t) for k in range(3, n)]
            + [check_closed(set(t), t),
               check_closed({f for f in t if t.dim_of(f) < n}, t)])


class _Planted:
    """A chain complex with one boundary map replaced."""

    def __init__(self, cx, bmat):
        self.cx, self.bmat, self.table = cx, bmat, cx.table

    def boundary(self, d):
        return self.bmat if d == self.bmat.d else self.cx.boundary(d)

    def apply(self, c):
        return self.cx.apply(c)


class TestReduction:
    """Coreductions and free-face collapses ahead of the elimination,
    against the whole-matrix reports and verdicts of `tests/reference.py`."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_reports_equal_reference(self, tables, complexes, n):
        t, cx = tables(n), complexes(n)
        for sub in _subsets(t, n):
            assert (homology_report(sub, cx)
                    == reference.homology_report(sub, cx)), n

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_verdicts_equal_reference(self, tables, complexes, n):
        t, cx = tables(n), complexes(n)
        subsets = _subsets(t, n)
        # each C_{n,k}'s basis columns, boundaries of 3-cells, a boundary in
        # the full complex, and the sphere's fundamental cycle, as columns
        # of the package's boundaries and as chains for the reference
        sphere, top = subsets[-1], cx.boundary(n)
        cases = [(cx.boundary(k), homology_basis(n, k, t, cx).ids, sub)
                 for k, sub in zip(range(3, n), subsets)]
        cases += [(cx.boundary(3), sub.indices(3)[:5], sub) for sub in subsets]
        cases += [(top, [0], subsets[-2]), (top, [0], sphere)]
        for cols, ids, sub in cases:
            got = class_independence(cols, ids, sub, cx)
            want = reference.class_independence(list(map(cols.column_chain, ids)), sub, cx)
            assert got == want, (n, got.detail, want.detail)
        assert class_independence(top, [0], sphere, cx).ok

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_every_cell_pairs_off(self, tables, complexes, monkeypatch, n):
        # each C_{n,k} and the sphere reduce to their basis cells and the
        # full complex to nothing, so every elimination gets an empty matrix
        t, cx = tables(n), complexes(n)
        entries = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, e):
            entries.append(e)
            return eliminate(n_rows, n_cols, e)

        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        for sub in _subsets(t, n):
            entries.clear()
            homology_report(sub, cx)
            assert entries and not any(entries), n

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_random_combinations_equal_reference(self, tables, complexes, n):
        # seeded integer combinations of a basis plus boundaries, carried
        # through the pairs: a unimodular mix certifies, a doubled column
        # leaves Z/2, a repeated column or a pure boundary is dependent
        t, cx = tables(n), complexes(n)
        rng = random.Random(20261019 + n)
        subsets = _subsets(t, n)
        top = cx.boundary(n).column_chain(0)
        bases = [(homology_basis(n, k, t, cx).chains, sub)  # as chains, to combine
                 for k, sub in zip(range(3, n), subsets)]
        bases.append(([top], subsets[-1]))

        def boundaries(sub, d, count):
            cols = [cx.boundary(d + 1).column_chain(j) for j in sub.indices(d + 1)]
            out = ChainVector(d, {})
            for ch in rng.sample(cols, min(count, len(cols))):
                out = add_scaled(out, ch, rng.choice((-3, -2, -1, 1, 2, 3)))
            return out

        for basis, sub in bases:
            d, mixed = basis[0].dim, list(basis)
            for _ in range(2 * len(mixed)):
                i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i == j:
                    mixed[i] = add_scaled(ChainVector(d, {}), mixed[i], -1)
                else:
                    mixed[i] = add_scaled(mixed[i], mixed[j], rng.choice((-2, -1, 1, 2)))
            mixed = [add_scaled(ch, boundaries(sub, d, 4)) for ch in mixed]
            i = rng.randrange(len(mixed))
            doubled = mixed[:i] + [add_scaled(mixed[i], mixed[i])] + mixed[i + 1:]
            repeated = mixed + [mixed[i]]
            if sub.indices(d + 1):
                pure = mixed[:i] + [boundaries(sub, d, 6)] + mixed[i + 1:]
            else:  # the sphere has no cell above: boundaries one degree down
                pure = [boundaries(sub, d - 1, 6) for _ in range(3)]
            for cycles, ok, independent, torsion in [
                    (mixed, True, True, []), (doubled, False, True, [2]),
                    (repeated, False, False, []), (pure, False, False, [])]:
                cols = reference.columns(cycles)
                got = class_independence(cols, range(len(cycles)), sub, cx)
                want = reference.class_independence(cycles, sub, cx)
                assert got == want, (n, d, got.detail, want.detail)
                assert (got.ok, got.independent) == (ok, independent), got.detail
                assert got.detail["stacked_torsion"] == torsion, got.detail

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_certificate_eliminates_only_the_reduced_stack(self, tables,
                                                           complexes,
                                                           monkeypatch, n):
        # each C_{n,k} pairs off to its basis cells, so the one elimination
        # with entries is the projected cycles: no boundary column, a row
        # per basis cell and a column per basis cycle
        t, cx = tables(n), complexes(n)
        calls = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, e):
            if e:
                calls.append((n_rows, n_cols))
            return eliminate(n_rows, n_cols, e)

        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        for k in range(3, n):
            calls.clear()
            hb = homology_basis(n, k, t, cx)
            assert class_independence(cx.boundary(k), hb.ids, subcomplex_faces(k, t), cx).ok
            b = betti_power(n, k)
            assert calls == [(b, b)], (n, k)

    def test_planted_torsion_is_left_to_the_elimination(self, tables, complexes,
                                                        monkeypatch):
        # the top cell's boundary doubled: every 3-cell is a free face of it
        # with incidence 2, and the 3-sphere it bounds then carries torsion
        # Z/2; no unit pivot may take that entry
        t, cx = tables(4), complexes(4)
        top = cx.boundary(4)
        planted = _Planted(cx, reference.boundary_from_cols(
            4, top.n_rows, [{i: 2 * v for i, v in col.items()} for col in top.cols]))
        entries = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, e):
            entries.append(e)
            return eliminate(n_rows, n_cols, e)

        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        full = set(t)
        rep = homology_report(full, planted)
        assert rep == reference.homology_report(full, planted)
        assert rep == {"betti": {d: 0 for d in range(5)}, "torsion": {3: [2]}}
        assert [sorted(map(abs, e.values())) for e in entries if e] == [[2]]
        verdict = class_independence(top, [0], full, planted)
        assert verdict == reference.class_independence([top.column_chain(0)], full, planted)
        assert not verdict.independent and verdict.detail["rank_boundaries"] == 1

    def test_rows_outside_the_set_are_left_out(self, tables, complexes):
        # a triangle with one of its three edges: one row, one entry
        t, cx = tables(4), complexes(4)
        b = cx.boundary(2)
        masks = {d: bytearray(len(t.faces(d))) for d in t.cells}
        masks[2][0] = masks[1][b.flat[1]] = 1
        n_rows, n_cols, entries = restricted_boundary(FaceSubset(t, masks), 2, cx)
        assert (n_rows, n_cols) == (1, 1)
        assert entries == {(0, 0): b.signs[1]} and b.signs[1] != b.signs[2]


class _Fresh:
    """The boundaries of a complex as new matrices over the same arrays,
    so that none has built its coface index yet."""

    def __init__(self, cx):
        self.table = cx.table
        self.bmats = {d: dataclasses.replace(cx.boundary(d))
                      for d in cx.table.cells if d >= 0}

    def boundary(self, d):
        return self.bmats[d]


class TestCofaceIndex:
    """The coface index each boundary keeps, and the counts a reduction
    takes per call against its subset, against the per-call coface lists
    of `tests/reference.py`."""

    @staticmethod
    def assert_equal_reference(sub, cx):
        ref = reference.coface_lists(sub, cx)
        top = max(ref)
        alive = {d: bytearray(sub.mask(d) or len(cx.table.faces(d))) for d in ref}
        bmats = {d: cx.boundary(d) for d in range(0, top + 1)}
        n_facets, n_cofaces = snf._counts(alive, bmats)
        for d, lists in ref.items():
            if d < top:
                coflat, cooffsets = bmats[d + 1].cofaces
                assert len(cooffsets) == len(lists) + 1, d
                above = sub.mask(d + 1)
                for i, want in enumerate(lists):
                    got = coflat[cooffsets[i]:cooffsets[i + 1]]
                    assert list(got) == sorted(got), (d, i)
                    assert [c for c in got if above[c]] == want, (d, i)
            for i in itertools.compress(range(len(lists)), alive[d]):
                assert n_cofaces[d][i] == len(lists[i]), (d, i)
                if d >= 0:
                    offsets = bmats[d].offsets
                    assert n_facets[d][i] == offsets[i + 1] - offsets[i], (d, i)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_subsets_equal_reference(self, tables, complexes, n):
        # every C_{n,k}, the full complex, where nothing is masked, and
        # the sphere, which has no top cell
        t, cx = tables(n), complexes(n)
        for sub in _subsets(t, n):
            self.assert_equal_reference(sub, cx)
        # built once per matrix and shared by every reduction
        index = cx.boundary(3).cofaces
        homology_report(subcomplex_faces(3, t), cx)
        assert cx.boundary(3).cofaces is index

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_attached_complexes_equal_reference(self, complexes, monkeypatch, n):
        # every reduction of the family: C_{n,3} and each attached complex
        seen = []

        class Recorded(snf._Reduction):
            def __init__(self, sub, cx):
                seen.append((sub, cx))
                super().__init__(sub, cx)

        monkeypatch.setattr(snf, "_Reduction", Recorded)
        snf.family_homology(complexes(n))
        assert [type(cx) for _, cx in seen[1:]] == [_family._Attached] * (n - 4)
        for sub, cx in seen:
            self.assert_equal_reference(sub, cx)

    def test_attached_tables_read_back_their_input(self, complexes, monkeypatch):
        # each attached complex's table is built from one text per
        # dimension, and reads it back as its cells
        built = []

        def recorded(n, texts):
            built.append((texts, faces.FaceTable(n, texts)))
            return built[-1][1]

        monkeypatch.setattr(_family, "FaceTable", recorded)
        snf.family_homology(complexes(6))
        assert len(built) == 2
        for texts, table in built:
            assert {d: c.text for d, c in table.cells.items()} == texts
            assert table.size == sum(len(texts[d]) // c.width
                                     for d, c in table.cells.items()) > 0

    def test_traced_peak_at_8_4(self, tables, complexes):
        # the index built inside the call, on fresh matrices; with coface
        # lists built per call the peak was 5.86 MB
        sub, fresh = subcomplex_faces(4, tables(8)), _Fresh(complexes(8))
        tracemalloc.start()
        try:
            snf._Reduction(sub, fresh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6, peak


class TestHomology:
    def test_d1_rank_two_methods(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        full = set(t)
        r, c, entries = restricted_boundary(full, 1, cx)
        dense = [[0] * c for _ in range(r)]
        for (i, j), v in entries.items():
            dense[i][j] = v
        assert smith_normal_form((r, c, entries)).rank == int_rank(dense)

    @pytest.mark.parametrize("n", [4, 5])
    def test_full_complex_contractible(self, tables, complexes, n):
        rep = homology_report(set(tables(n)), complexes(n))
        assert all(b == 0 for b in rep["betti"].values())
        assert not rep["torsion"]

    @pytest.mark.parametrize("n", [4, 5])
    def test_boundary_complex_is_sphere(self, tables, complexes, n):
        t = tables(n)
        bd = {f for f in t if t.dim_of(f) <= n - 1}
        rep = homology_report(bd, complexes(n))
        assert rep["betti"] == {d: (1 if d == n - 1 else 0) for d in range(n)}
        assert not rep["torsion"]

    def test_c43_reduced_homology(self, tables, complexes):
        t = tables(4)
        sub = subcomplex_faces(3, t)
        rep = homology_report(sub, complexes(4))
        assert rep == {"betti": {0: 0, 1: 0, 2: 7, 3: 0}, "torsion": {}}

    def test_not_closed(self, tables, complexes):
        t = tables(4)
        with pytest.raises(NotClosed):
            check_closed({t.faces(2)[0], faces.EMPTY}, t)
        with pytest.raises(NotClosed):
            # vertex without the empty face
            homology({t.faces(0)[0]}, 0, complexes(4))

    def test_not_closed_on_face_subset(self, tables):
        # a deleted-cell subcomplex without one of its edges
        t = tables(5)
        sub = subcomplex_faces(3, t)
        edge = t.faces(1)[0]
        masks = {d: bytearray(m) for d, m in sub.masks.items()}
        masks[1][0] = 0
        planted = FaceSubset(t, masks)
        check_closed(sub, t)
        with pytest.raises(NotClosed, match=f"{edge!r} missing"):
            check_closed(planted, t)
        with pytest.raises(NotClosed, match=f"{edge!r} missing"):
            check_closed(set(planted), t)

    def test_vertex_needs_the_empty_face(self, tables):
        t = tables(4)
        v = t.faces(0)[0]
        assert set(check_closed({v, faces.EMPTY}, t)) == {v, faces.EMPTY}
        with pytest.raises(NotClosed, match="empty face"):
            check_closed({v}, t)

    def test_rank_consistency(self, tables, complexes):
        # per degree: SNF rank agrees with the fraction-free rank, and
        # rank + kernel dimension = number of cells
        t, cx = tables(4), complexes(4)
        full = set(t)
        for d in range(0, 5):
            r, c, entries = restricted_boundary(full, d, cx)
            rank = smith_normal_form((r, c, entries)).rank
            dense = [[0] * c for _ in range(r)]
            for (i, j), v in entries.items():
                dense[i][j] = v
            assert rank == int_rank(dense)
            assert c == len(t.faces(d))
            kernel = c - rank
            assert kernel >= 0
            assert rank + kernel == c

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_report_equals_per_degree_homology(self, tables, complexes,
                                               monkeypatch, n):
        # one closure check and one SNF per boundary map per report
        t, cx = tables(n), complexes(n)
        calls = {"check_closed": 0, "snf": 0}
        check, eliminate = snf.check_closed, snf._sparse_snf

        def counted_check(*args):
            calls["check_closed"] += 1
            return check(*args)

        def counted_snf(*args):
            calls["snf"] += 1
            return eliminate(*args)

        monkeypatch.setattr(snf, "check_closed", counted_check)
        monkeypatch.setattr(snf, "_sparse_snf", counted_snf)
        subsets = [subcomplex_faces(k, t) for k in range(3, n)] + [set(t)]
        for sub in subsets:
            top = max(t.dim_of(f) for f in sub)
            calls.update(check_closed=0, snf=0)
            rep = homology_report(sub, cx)
            assert calls == {"check_closed": 1, "snf": top + 2}
            for d in range(0, top + 1):
                h = homology(sub, d, cx)
                assert rep["betti"][d] == h["betti"]
                assert rep["torsion"].get(d, []) == h["torsion"]
            assert sorted(rep["betti"]) == list(range(0, top + 1))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_equals_reference(self, tables, complexes, n):
        # `homology` reads the report; the reference factors the two whole
        # restricted maps around the degree, in every degree up to one
        # above the top, where both give betti 0 and no torsion
        t, cx = tables(n), complexes(n)
        for sub in [subcomplex_faces(k, t) for k in range(3, n)] + [set(t)]:
            top = max(t.dim_of(f) for f in sub)
            for d in range(0, top + 2):
                assert homology(sub, d, cx) == reference.homology(sub, d, cx), d

    @pytest.mark.parametrize("subset,degree", [("C53", -1), ("C53", -2), ("empty", -1)])
    def test_negative_degree_is_an_error(self, tables, complexes, monkeypatch,
                                         subset, degree):
        # before the degree check C_{5,3} gave betti -1 at degree -1 and
        # -16 at degree -2, and {EMPTY} at degree -1 raised the chain
        # layer's DimensionMismatch; now nothing is checked or reduced
        t = tables(5)
        subset = subcomplex_faces(3, t) if subset == "C53" else {faces.EMPTY}

        def no_work(*args):
            raise AssertionError("checked the subset before the degree")

        monkeypatch.setattr(snf, "check_closed", no_work)
        with pytest.raises(OracleError, match=f"degree must be >= 0, got {degree}"):
            homology(subset, degree, complexes(5))

    def test_graph_is_connected(self, tables, complexes):
        # reduced homology in degree 0 is one less than the number of
        # components, so a connected graph has none
        t = tables(4)
        graph = set(t.faces(0)) | set(t.faces(1)) | {faces.EMPTY}
        assert homology(graph, 0, complexes(4))["betti"] == 0
        lone = graph - set(t.faces(1))
        assert homology(lone, 0, complexes(4))["betti"] == len(t.faces(0)) - 1


class TestClassIndependence:
    def test_c43_basis_certified(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        sub = subcomplex_faces(3, t)
        hb = homology_basis(4, 3, t, cx)
        verdict = class_independence(cx.boundary(3), hb.ids, sub, cx)
        assert verdict.ok
        assert verdict.detail["cycles"] == 7

    @pytest.mark.parametrize("n,k", [(5, 3), (5, 4)])
    def test_n5_bases_certified(self, tables, complexes, n, k):
        t, cx = tables(n), complexes(n)
        sub = subcomplex_faces(k, t)
        hb = homology_basis(n, k, t, cx)
        verdict = class_independence(cx.boundary(k), hb.ids, sub, cx)
        assert verdict.ok
        assert verdict.detail["cycles"] == betti_power(n, k)

    def test_single_boundary_chain_dependent(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        bd = {f for f in t if t.dim_of(f) <= 3}
        verdict = class_independence(cx.boundary(3), [0], bd, cx)
        assert not verdict.independent

    def test_non_cycle_rejected(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        bd = {f for f in t if t.dim_of(f) <= 3}
        with pytest.raises(NotCycles):
            class_independence(reference.columns([ChainVector(1, {0: 1})]), [0], bd, cx)

    def test_negative_degree_is_an_error(self, tables, complexes, monkeypatch):
        # before the degree check a cycle on the empty face raised "cycle
        # leaves the subset at 'EMPTY'" though the subset holds it
        def no_work(*args):
            raise AssertionError("checked the subset before the degree")

        monkeypatch.setattr(snf, "check_closed", no_work)
        with pytest.raises(NotCycles, match="degree must be >= 0, got -1"):
            class_independence(reference.columns([ChainVector(-1, {0: 1})]), [0],
                               set(tables(4)), complexes(4))

    def test_doubled_chain_generates_an_index_two_lattice(self, tables,
                                                          complexes):
        t, cx = tables(5), complexes(5)
        sub = subcomplex_faces(3, t)
        chains = list(homology_basis(5, 3, t, cx).chains)
        chains[4] = add_scaled(chains[4], chains[4])
        verdict = class_independence(reference.columns(chains), range(len(chains)), sub, cx)
        assert verdict.independent and not verdict.generating
        assert verdict.detail["stacked_torsion"] == [2]

    def test_sum_of_two_chains_is_dependent(self, tables, complexes):
        t, cx = tables(5), complexes(5)
        sub = subcomplex_faces(3, t)
        chains = list(homology_basis(5, 3, t, cx).chains)
        chains[0] = add_scaled(chains[1], chains[2])
        verdict = class_independence(reference.columns(chains), range(len(chains)), sub, cx)
        assert not verdict.independent

    def test_dropping_one_chain_stops_generating(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        sub = subcomplex_faces(3, t)
        hb = homology_basis(4, 3, t, cx)
        verdict = class_independence(cx.boundary(3), hb.ids[:-1], sub, cx)
        assert verdict.independent and not verdict.generating


class TestMixedTables:
    """The oracle reads the face table from the complex it is given, so a
    subset of the n=5 table against the n=6 complex is a subset with faces
    the table lacks.  Before the table arguments went, the n=5 subset with
    the n=5 table and the n=6 complex gave wrong answers with no error:
    `homology_report` of C_{5,3} read Betti numbers {0: 0, 1: 8, 2: 41,
    3: 2, 4: -18} in place of 31 in degree 2."""

    @pytest.mark.parametrize("name", ["restricted_boundary", "homology",
                                      "homology_report", "class_independence"])
    def test_subset_of_another_table_is_not_closed(self, tables, complexes, name):
        t5, cx6 = tables(5), complexes(6)
        sub = subcomplex_faces(3, t5)
        cx5 = complexes(5)
        ids = homology_basis(5, 3, t5, cx5).ids
        call = {
            "restricted_boundary": lambda: restricted_boundary(sub, 2, cx6),
            "homology": lambda: homology(sub, 2, cx6),
            "homology_report": lambda: homology_report(sub, cx6),
            "class_independence": lambda: class_independence(cx5.boundary(3), ids, sub,
                                                             cx6),
        }[name]
        with pytest.raises(NotClosed, match="is not a face of the table"):
            call()

    def test_subset_of_an_equal_table_is_read_by_text(self, tables, complexes):
        # a second n=5 table holds the same faces: its subset is looked up
        # in the complex's own table, face by face
        other = faces.enumerate_faces(5)
        assert other is not tables(5)
        rep = homology_report(subcomplex_faces(3, other), complexes(5))
        assert rep == {"betti": {0: 0, 1: 0, 2: 31, 3: 0, 4: 0}, "torsion": {}}


class TestFamily:
    """Every C_{n,k} from one reduction of C_{n,3}, with the half-cube
    cells of each next level attached through the chain map of the
    reduction before, against the per-subset reports and
    `tests/reference.py`'s unreduced ones."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_reports_equal_per_subset(self, tables, complexes, n):
        t, cx = tables(n), complexes(n)
        family = snf.family_homology(cx)
        assert family == {k: homology_report(subcomplex_faces(k, t), cx)
                          for k in range(3, n)}
        # free, and concentrated in degree k-1
        assert family == {k: {"betti": {d: betti_power(n, k) if d == k - 1 else 0
                                        for d in range(n)}, "torsion": {}}
                          for k in range(3, n)}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_reports_equal_reference(self, tables, complexes, n):
        t, cx = tables(n), complexes(n)
        family = snf.family_homology(cx)
        for k in range(3, n):
            assert family[k] == reference.homology_report(subcomplex_faces(k, t), cx), k

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_attached_complexes_are_chain_complexes(self, complexes, monkeypatch, n):
        # ∂'∂' = 0 on every attached complex: the chain map carries the
        # signs ε of the pairs, which no Betti number up to n=8 sees
        attached, built = _family._Attached, []

        class Recorded(attached):
            def __init__(self, red, levels, k):
                super().__init__(red, levels, k)
                built.append(self)

        monkeypatch.setattr(_family, "_Attached", Recorded)
        snf.family_homology(complexes(n))
        assert len(built) == n - 4
        for att in built:
            for d in att.bmats:
                if d - 1 in att.bmats:
                    assert not square_defects(att.bmats[d], att.bmats[d - 1]), d

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_attached_complexes_equal_the_chain_route(self, complexes, monkeypatch, n):
        # the attached cells' columns projected in place give the matrices
        # and tables that one filtered ChainVector per attached cell gave
        attached, pairs = _family._Attached, []

        class Recorded(attached):
            def __init__(self, red, levels, k):
                super().__init__(red, levels, k)
                pairs.append((self, reference.Attached(red, levels, k)))

        monkeypatch.setattr(_family, "_Attached", Recorded)
        snf.family_homology(complexes(n))
        assert len(pairs) == max(n - 4, 0)
        for got, want in pairs:
            assert got.table.cells == want.table.cells
            assert got.levels == want.levels
            assert list(got.bmats) == list(want.bmats)
            for d, b in got.bmats.items():
                w = want.bmats[d]
                assert ((b.d, b.n_rows, b.n_cols, b.flat, b.offsets, list(b.signs))
                        == (w.d, w.n_rows, w.n_cols, w.flat, w.offsets, list(w.signs))), d

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_only_empty_matrices_reach_the_elimination(self, complexes,
                                                       monkeypatch, n):
        # every C_{n,k} pairs off down to its basis cells, attached cells
        # included
        entries = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, e):
            entries.append(e)
            return eliminate(n_rows, n_cols, e)

        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        snf.family_homology(complexes(n))
        assert entries and not any(entries)

    def test_planted_doubled_attaching_entries_show_torsion(self, complexes,
                                                             monkeypatch):
        # the half-cube 3-cells' entries on the first cell C_{5,3} leaves,
        # doubled: H_2(C_{5,4}) gains Z/2, and only those entries, all 2,
        # reach the elimination
        attached = _family._Attached

        class Doubled(attached):
            def __init__(self, red, levels, k):
                super().__init__(red, levels, k)
                if k == 3:
                    b = self.bmats[3]
                    b.signs[:] = [2 * v if i == 0 else v for i, v in zip(b.flat, b.signs)]

        entries = []
        eliminate = snf._sparse_snf

        def recorded(n_rows, n_cols, e):
            entries.append(e)
            return eliminate(n_rows, n_cols, e)

        monkeypatch.setattr(_family, "_Attached", Doubled)
        monkeypatch.setattr(snf, "_sparse_snf", recorded)
        family = snf.family_homology(complexes(5))
        assert family[3] == {"betti": {0: 0, 1: 0, 2: 31, 3: 0, 4: 0}, "torsion": {}}
        assert family[4] == {"betti": {0: 0, 1: 0, 2: 0, 3: 9, 4: 0}, "torsion": {2: [2]}}
        assert [sorted(map(abs, e.values())) for e in entries if e] == [[2, 2, 2]]

    def test_closure_is_checked(self, tables, complexes, monkeypatch):
        # the family's own C_{n,3}, read from the face texts, is checked
        # closed like any subset
        checked = []
        check = snf.check_closed
        monkeypatch.setattr(snf, "check_closed",
                            lambda sub, table: checked.append(sub) or check(sub, table))
        snf.family_homology(complexes(5))
        assert [set(sub) for sub in checked] == [set(subcomplex_faces(3, tables(5)))]
