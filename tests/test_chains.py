import itertools
import tracemalloc

import pytest

import reference
from halfcube import chains, faces
from halfcube.chains import (
    ChainComplex,
    ChainVector,
    ChainError,
    DimensionMismatch,
    boundary_matrix,
    halfcube_epsilon,
    halfcube_signs,
    simplex_signs,
)
from halfcube.morse import morse_boundary, solve_cycle
from halfcube.snf import class_independence
from halfcube.subcomplex import subcomplex_faces
from reference import (
    add_scaled,
    boundary_from_cols,
    det_sign,
    incidence,
    int_rank,
    orientation_frame,
    square_defects,
    vertex_point,
)


def brute_det(m):
    # Laplace expansion, the independent reference for small matrices
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j in range(k):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * brute_det(minor)
    return total


class TestExactLinalg:
    @pytest.mark.parametrize("m", [
        [[1]], [[0]], [[-3]],
        [[1, 2], [3, 4]],
        [[2, 0], [0, 2]],
        [[0, 1], [1, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[3, -1, 2], [0, 0, 0], [1, 1, 1]],
        [[5, 7, 11], [13, 17, 19], [23, 29, 31]],
    ])
    def test_det_sign_vs_brute(self, m):
        d = brute_det(m)
        want = 0 if d == 0 else (1 if d > 0 else -1)
        assert det_sign(m) == want

    def test_det_sign_random(self):
        import random
        rng = random.Random(11)
        for _ in range(200):
            k = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
            d = brute_det(m)
            assert det_sign(m) == (0 if d == 0 else (1 if d > 0 else -1))

    def test_int_rank_random(self):
        import random
        from fractions import Fraction
        rng = random.Random(13)

        def frac_rank(rows):
            a = [[Fraction(x) for x in row] for row in rows]
            rank = 0
            nr, nc = len(a), len(a[0]) if a else 0
            for c in range(nc):
                piv = next((r for r in range(rank, nr) if a[r][c]), None)
                if piv is None:
                    continue
                a[rank], a[piv] = a[piv], a[rank]
                for r in range(nr):
                    if r != rank and a[r][c]:
                        f = a[r][c] / a[rank][c]
                        a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
                rank += 1
            return rank

        for _ in range(200):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert int_rank(m) == frac_rank(m)

    def test_vertex_point(self):
        assert vertex_point("1110100") == (-1, -1, -1, 1, -1, 1, 1)
        assert vertex_point("0000") == (1, 1, 1, 1)


class TestOrientationFrame:
    def test_edge_frame(self):
        base, vecs = orientation_frame("I1O0100")
        assert base == "0100100"
        diff = tuple(a - b for a, b in
                     zip(vertex_point("1110100"), vertex_point("0100100")))
        assert list(vecs) == [diff]

    def test_triangle_rank(self):
        _, vecs = orientation_frame("0I1I10I")
        assert len(vecs) == 2
        assert int_rank([list(v) for v in vecs]) == 2

    def test_vertex_rejected(self):
        with pytest.raises(ChainError):
            orientation_frame("0110")

    def test_deterministic(self):
        assert orientation_frame("****0000") == orientation_frame("****0000")


class TestClosedForms:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_epsilon_is_the_frame_sign(self, tables, n):
        # ε of a half-cube face is the sign of the reference frame on the
        # star coordinates; a simplex frame is its lexicographic vertex
        # order, which puts the 'I' toggles first, rising, then the 'O'
        # toggles, falling
        for d in range(1, n + 1):
            for f in tables(n).faces(d):
                base, vecs = orientation_frame(f)
                pos = reference.mask(f)
                if faces.STAR in f:
                    frame = [[v[p] for p in pos] for v in vecs]
                    parity = f.count(faces.PLAIN1) % 2
                    assert det_sign(frame) == halfcube_epsilon(d, parity), f
                    continue
                b = f.replace(faces.UND0, "0").replace(faces.UND1, "1")
                order = ([p for p in pos if f[p] == faces.UND1]
                         + [p for p in reversed(pos) if f[p] == faces.UND0])
                verts = [b[:p] + ("0" if b[p] == "1" else "1") + b[p + 1:]
                         for p in order]
                assert verts == sorted(reference.vertices_of(f)), f
                points = [vertex_point(v) for v in verts]
                assert (base, list(vecs)) == (verts[0], [
                    tuple(x - y for x, y in zip(q, points[0])) for q in points[1:]]), f

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("m", [8, 9])
    def test_halfcube_class_past_n7_equals_reference(self, m, parity):
        # a half-cube column's signs depend only on its star count m and
        # the parity of its fixed '1' count, so one face decides the class
        # at every n; no table of n <= 7 has a face of 8 or more stars, and
        # the chain condition pins σ but not ε
        f = faces.STAR * m + ("1" if parity else "0")
        _, vecs = orientation_frame(f)
        assert det_sign([list(v[:m]) for v in vecs]) == halfcube_epsilon(m, parity)
        assert list(halfcube_signs(m, parity)) == reference.facet_incidences(f)

    @pytest.mark.parametrize("length", [8, 9, 10])
    def test_simplex_patterns_past_n7_equal_reference(self, length):
        # a simplex column's signs depend only on the 'O'/'I' pattern of its
        # mask; the pattern is itself a face when it has an odd 'I' count
        for bits in itertools.product(faces.UND0 + faces.UND1, repeat=length):
            if bits.count(faces.UND1) % 2:
                f = "".join(bits)
                assert list(simplex_signs(f)) == reference.facet_incidences(f), f

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_boundaries_bit_identical_to_reference(self, tables, complexes, n):
        for d in range(0, n + 1):
            got = complexes(n).boundary(d).cols
            want = reference.boundary_matrix(tables(n), d).cols
            # same entries in the same column insertion order
            assert [list(c.items()) for c in got] == \
                [list(c.items()) for c in want], (n, d)


class TestIncidence:
    def test_vertex_empty(self, complexes):
        assert incidence(complexes(7), "1110100", faces.EMPTY) == 1

    def test_edge_vertex_signs(self, complexes):
        e = "I1O0100"
        assert incidence(complexes(7), e, "0100100") == -1  # base vertex
        assert incidence(complexes(7), e, "1110100") == 1   # head vertex

    def test_non_incident_zero(self, complexes):
        tri = "0I1I10I"
        other = "I1O0100"  # a valid edge that is not a facet of tri
        assert other not in reference.facets(tri)
        assert incidence(complexes(7), tri, other) == 0

    def test_dimension_mismatch(self, complexes):
        with pytest.raises(DimensionMismatch):
            incidence(complexes(7), "0I1I10I", "0100100")

    def test_dimension_mismatch_above(self, complexes):
        # a face one dimension above is no facet either
        with pytest.raises(DimensionMismatch):
            incidence(complexes(7), "I1O0100", "0I1I10I")

    def test_all_pm_one_on_facets(self, complexes):
        f = "***00"
        for g in reference.facets(f):
            assert incidence(complexes(5), f, g) in (1, -1)


class TestBoundaryMatrix:
    def test_edge_columns(self, tables):
        b = boundary_matrix(tables(4), 1)
        for col in b.cols:
            assert len(col) == 2
            assert sorted(col.values()) == [-1, 1]

    def test_augmentation_row(self, tables):
        b = boundary_matrix(tables(4), 0)
        assert b.n_rows == 1 and b.n_cols == 8
        assert all(col == {0: 1} for col in b.cols)

    def test_d2_after_d3_vanishes(self, complexes):
        cx = complexes(4)
        assert not square_defects(cx.boundary(3), cx.boundary(2))

    @pytest.mark.parametrize("n", [4, 5])
    def test_chain_condition(self, complexes, n):
        cx = complexes(n)
        for d in range(1, n + 1):
            assert not square_defects(cx.boundary(d), cx.boundary(d - 1)), d

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_flipped_sign_breaks_chain_condition(self, complexes, d):
        cx = complexes(5)
        b = cx.boundary(d)
        cols = list(b.cols)
        i = next(iter(cols[0]))
        cols[0][i] = -cols[0][i]
        planted = boundary_from_cols(d, b.n_rows, cols)
        assert square_defects(planted, cx.boundary(d - 1))

    def test_chain_condition_pins_sigma_and_reference_pins_epsilon(self, tables, complexes):
        # negating ε on one face class (the half-cube 5-faces with odd
        # fixed '1' count at n=6) negates their columns in ∂_5 and their
        # rows in ∂_6: ∂∂ = 0 still holds, and only the comparison with the
        # reference frames sees the wrong orientation
        t, cx = tables(6), complexes(6)
        flipped = {j for j, f in enumerate(t.faces(5))
                   if faces.STAR in f and f.count(faces.PLAIN1) % 2}
        assert len(flipped) == 6
        b5, b6 = cx.boundary(5), cx.boundary(6)
        cols5 = [{i: -v for i, v in c.items()} if j in flipped else c
                 for j, c in enumerate(b5.cols)]
        p5 = boundary_from_cols(5, b5.n_rows, cols5)
        p6 = boundary_from_cols(6, b6.n_rows,
                                [{i: -v if i in flipped else v for i, v in c.items()}
                                 for c in b6.cols])
        assert not square_defects(p5, cx.boundary(4))
        assert not square_defects(p6, p5)
        assert list(p5.cols) != list(reference.boundary_matrix(t, 5).cols)
        assert list(p6.cols) != list(reference.boundary_matrix(t, 6).cols)
        # flipping σ on a single entry breaks ∂∂ = 0
        j = min(flipped)
        i = next(iter(cols5[j]))
        cols5[j][i] = -cols5[j][i]
        assert square_defects(boundary_from_cols(5, b5.n_rows, cols5), cx.boundary(4))

    def test_column_support_is_facet_list(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        for d in range(1, 5):
            b = cx.boundary(d)
            for j, f in enumerate(t.faces(d)):
                want = {t.index_of(g) for g in reference.facets(f)}
                assert set(b.cols[j]) == want
                assert all(v in (1, -1) for v in b.cols[j].values())

    @pytest.mark.parametrize("j", [-1, "n_cols"])
    def test_column_chain_outside_the_cells_raises(self, tables, complexes, j):
        # index -1 would read the last column and n_cols no column at all;
        # the certificate reads its columns through column_chain, so an id
        # outside them raises the same
        cx = complexes(5)
        b = cx.boundary(3)
        j = b.n_cols if j == "n_cols" else j
        msg = f"column {j} is not one of the {b.n_cols} cells of dimension 3"
        with pytest.raises(DimensionMismatch, match=msg) as err:
            b.column_chain(j)
        assert err.value.dim == 3
        assert b.column_chain(b.n_cols - 1).coeffs == b.cols[b.n_cols - 1]
        with pytest.raises(DimensionMismatch, match=msg) as err:
            class_independence(b, [0, j], subcomplex_faces(3, tables(5)), cx)
        assert err.value.dim == 3

    def test_sign_and_facet_counts_must_agree(self, tables, monkeypatch):
        # a simplex face with m underlines has m facets; one sign short
        monkeypatch.setattr(chains, "simplex_signs", lambda p: (1,) * (len(p) - 1))
        with pytest.raises(ChainError, match="counts differ in dimension 3") as err:
            boundary_matrix(tables(5), 3)
        assert err.value.dim == 3

    @pytest.mark.parametrize("d", [-1, 5])
    def test_no_boundary_outside_0_to_n(self, tables, d):
        with pytest.raises(DimensionMismatch, match=f"no boundary in dimension {d}$") as err:
            boundary_matrix(tables(4), d)
        assert err.value.dim == d

    def test_determinism(self, tables):
        t = tables(4)
        for d in range(0, 5):
            a = boundary_matrix(t, d)
            b = boundary_matrix(t, d)
            assert list(a.cols) == list(b.cols)



class TestApplyBoundary:
    def test_single_edge(self, tables, complexes):
        t = tables(4)
        e = t.faces(1)[0]
        base = orientation_frame(e)[0]
        head = next(v for v in reference.vertices_of(e) if v != base)
        c = ChainVector(1, {t.index_of(e): 1})
        out = complexes(4).apply(c)
        assert out.coeffs == {t.index_of(head): 1, t.index_of(base): -1}

    def test_boundary_squared_all_3_cells(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        for f in t.faces(3):
            c = ChainVector(3, {t.index_of(f): 1})
            assert cx.apply(cx.apply(c)).is_zero()

    def test_zero_chain(self, complexes):
        out = complexes(4).apply(ChainVector(2, {}))
        assert out.is_zero() and out.dim == 1

    @pytest.mark.parametrize("j", [-1, 24])
    def test_index_outside_the_cells_raises(self, tables, complexes,
                                            matchings, j):
        # n=4 has 24 edges: index -1 would read the last edge's column and
        # index 24 no column at all
        t, m, cx = tables(4), matchings(4), complexes(4)
        chain = ChainVector(1, {0: 1, j: 1})
        msg = f"chain index {j} is not one of the 24 cells of dimension 1"
        with pytest.raises(DimensionMismatch, match=msg) as err:
            cx.apply(chain)
        assert err.value.dim == 1
        with pytest.raises(DimensionMismatch, match=msg):
            solve_cycle(chain, m, t, cx, morse_boundary(m, t, 1, cx))
        with pytest.raises(DimensionMismatch, match=msg) as err:
            class_independence(reference.columns([chain]), [0], subcomplex_faces(3, t), cx)
        assert err.value.dim == 1

    def test_empty_face_chain(self, complexes):
        cx = complexes(4)
        assert cx.apply(ChainVector(-1, {0: 3})) == ChainVector(-2, {})
        with pytest.raises(DimensionMismatch, match="index 1 "):
            cx.apply(ChainVector(-1, {1: 1}))

    def test_linearity(self, tables, complexes):
        t, cx = tables(4), complexes(4)
        a = ChainVector(2, {0: 2, 3: -1})
        b = ChainVector(2, {3: 1, 5: 4})
        lhs = cx.apply(add_scaled(a, b, 3))
        rhs = add_scaled(cx.apply(a), cx.apply(b), 3)
        assert lhs == rhs


class TestStorage:
    """`∂_d` stores one sign byte per entry beside the facet index."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_boundaries_share_the_facet_index(self, tables, complexes, n):
        t, cx = tables(n), complexes(n)
        for d in range(n + 1):
            b = cx.boundary(d)
            flat, offsets = t.facet_index(d)
            assert b.flat is flat and b.offsets is offsets, d
            assert len(b.signs) == len(flat) == b.nnz(), d

    def test_views_cache_nothing(self, tables, matchings, complexes):
        # every read builds a fresh dict or list, so no read keeps one alive
        b = complexes(5).boundary(3)
        assert b.cols[0] == b.cols[0] and b.cols[0] is not b.cols[0]
        mb = morse_boundary(matchings(5), tables(5), 2, complexes(5))
        for view in ("ups", "downs"):
            assert getattr(mb, view) is not getattr(mb, view)
            assert type(getattr(mb, view)) is list
        assert mb.cols[0] is not mb.cols[0]
        assert vars(b).keys() == {"d", "n_rows", "n_cols", "flat", "offsets", "signs"}
        assert vars(mb).keys() == {"k", "table", "up_ids", "down_ids", "rank",
                                   "rows", "signs", "offsets"}

    def test_boundaries_add_under_two_bytes_per_entry(self, tables):
        # the column dicts they replace took about 85 bytes per entry
        t = tables(7)
        for d in range(8):
            t.facet_index(d)
            boundary_matrix(t, d)  # fills the per-pattern sign caches
        tracemalloc.start()
        try:
            cx = ChainComplex(t)
            nnz = sum(cx.boundary(d).nnz() for d in range(8))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nnz == 36542
        assert held < 2 * nnz
