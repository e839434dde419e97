"""Slow exact references for the fast paths of the package.

`facets` parses a face's text into its sorted facets, `vertices_of` into
its vertex set, and `total_and_u` reads the statistic of the matching
rules; the package works on the facet index instead.

The orientation frame is found by a greedy search over the lexicographically
sorted vertex list, keeping a vertex whenever its edge vector raises the
exact rank; vertex sums enumerate every vertex.  `boundary_matrix` builds
`∂_d` from these: each incidence is the sign of the fraction-free (Bareiss)
determinant of the Gram matrix of f's frame against the outward direction
nf*ng * (centroid(g) - centroid(f)) followed by g's frame, and a zero
determinant raises.  Tests require the package's closed-form sign rule to
give bit-identical matrices.  `boundary_from_cols` and
`morse_boundary_with_cols` pack column dicts into the package's arrays,
for the reference and for planted sign defects, and `columns` packs
chains as the columns the certificate reads; `entry` and `incidence`
read one entry of a boundary by position or by face text, and `diagonal`
the diagonal of a Morse boundary.  `with_sign` plants one sign in a
boundary, and `PlantedComplex` serves planted boundaries in place of a
complex's own.  `homology_basis` checks each basis chain as a
`ChainVector` through `ChainComplex.apply`, as the package did before it
checked ∂∂ = 0 on the boundary arrays.

`enumerate_cells` lists the faces of each dimension by (odd point, mask)
and (fixed digits, star mask) iteration, with edge canonicalisation, set
deduplication and a sort, as `enumerate_faces` did before it grew sorted
suffix lists.  `enumerate_lists` grows the same sorted suffix lists but
puts the last symbol before each suffix as its own string, and merges the
two sorted runs of a dimension d >= 3 with a sort of the whole faces, as
`enumerate_faces` did before it wrote each dimension as one text.
`face_table` joins lists of faces into a table's texts, checking each
face's width, for planted tables.  `face_jsonl` writes one face's JSON
line from `classify`, the per-face reference of `FaceTable.jsonl_parts`.

`facet_index` parses `facets()` of every face, the way `FaceTable`
built its facet index before it moved to integer face codes.

`subcomplex_faces`, `closure_defects` and `build_subcomplex` work on sets of
face strings and parse every facet list with `facets()`, as the package did
before it kept one facet index per table and restricted the matching for
the whole C_{n,k} family in one pass.  `moved_levels` plants a defect in
the family's levels, `members` reads one C_{n,k} off them, `repaired`
plants one in a matching, and `planted_defect` plants one defect for each
check of the restriction.

`match_face` rewrites a face's text, read through its marked positions
(`mask`), into its partner's, and
`rule_applicability` tests each rule's input condition on the text, as
the package did before it matched faces by code arithmetic.
`from_pairs` builds a matching's arrays from face-string pairs as given,
for planted defects, `quadrilateral` plants a closed alternating path,
and `up_cells` lists the upward-matched k-cells.

`validate_matching`, `verify_acyclic` and `morse_boundary` work on
string-keyed partner and rule mappings and string-keyed digraphs, as the
package did before it held the matching as arrays of positions.
`solve_cycle` back-substitutes over `morse_boundary`'s string-keyed
columns, as the package did before it held the restricted boundary as
arrays of positions.
`add_scaled` is the linear combination of two chains.

`sparse_snf` is the Smith normal form elimination that rescans every entry
to choose each pivot, with the quadratic gcd/lcm fix-up of the pivots
(`divisibility_chain`); the package's heap-driven `_sparse_snf` must return
the same `SNFResult`.  `smith_normal_form` reads a dense list of rows or a
sparse (n_rows, n_cols, entries) triple into `_sparse_snf`.

`restricted_boundary`, `homology`, `homology_report` and
`class_independence` factor every restricted boundary map of a
facet-closed subset whole, as the package did before it paired cells by
coreductions and free-face collapses ahead of the elimination; the
package must give equal reports and verdicts.  `coface_lists` builds one
list of cofaces in the subset per cell, as the reduction did on every
call before each boundary kept its coface index.  `Attached` builds the
family oracle's attached complexes from one filtered `ChainVector` per
attached cell, as `_family._Attached` did before the projection read
boundary columns in place.
"""

from __future__ import annotations

import dataclasses
import itertools
from array import array
from math import gcd
from typing import NamedTuple

import heapq

from halfcube.chains import (
    BoundaryMatrix,
    ChainComplex,
    ChainError,
    ChainVector,
    DimensionMismatch,
)
from halfcube.faces import (
    EMPTY,
    PLAIN0,
    PLAIN1,
    STAR,
    UND0,
    UND1,
    FaceError,
    FaceSubset,
    FaceTable,
    Kind,
    UNDERLINED,
    _JSONL_TAIL,
    _width,
    canonical_edge,
    classify,
    filtration_levels,
)
from halfcube.morse import (
    UNPAIRED,
    CyclicPrec,
    InvolutionBroken,
    MorseBoundary,
    MorseError,
    MorseMatching,
    NotCodimOne,
    Unpaired,
)
from halfcube.snf import (
    IndependenceVerdict,
    NotCycles,
    SNFResult,
    _sparse_snf,
    check_closed,
)
from halfcube.subcomplex import HomologyBasis, SubcomplexError, SupportLeak


class NotKType(FaceError):
    pass


def vertices_of(f: str) -> set[str]:
    """The vertex set of a face, as canonical vertex sequences.

    A simplex face with underlying digits v and mask S yields one vertex per
    toggle of a single S coordinate of v.  A half-cube face yields every
    star filling with even total 1-count.
    """
    if f == EMPTY:
        raise FaceError("the empty face has no vertices")
    kind = classify(f)
    if kind.kind is Kind.VERTEX:
        return {f}
    if kind.kind is Kind.HALFCUBE:
        positions = mask(f)
        fixed_ones = f.count(PLAIN1)
        out = set()
        for bits in itertools.product("01", repeat=len(positions)):
            if (fixed_ones + bits.count("1")) % 2 != 0:
                continue
            seq = list(f)
            for i, b in zip(positions, bits):
                seq[i] = b
            out.add("".join(seq))
        return out
    # simplex shaped: read underlined digits as digits, toggle one at a time
    base = f.replace(UND0, PLAIN0).replace(UND1, PLAIN1)
    out = set()
    for i in mask(f):
        v = list(base)
        v[i] = PLAIN1 if v[i] == PLAIN0 else PLAIN0
        out.add("".join(v))
    return out


def _odd_fillings(f: str, positions: tuple[int, ...], lo: str, hi: str) -> list[str]:
    # fill the given positions with lo/hi digits so the total 1-count is odd
    fixed_ones = f.count(PLAIN1)
    out = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        if (fixed_ones + sum(bits)) % 2 != 1:
            continue
        seq = list(f)
        for i, b in zip(positions, bits):
            seq[i] = hi if b else lo
        out.append("".join(seq))
    return out


def facets(f: str) -> list[str]:
    """All codimension-1 faces, canonicalized and lexicographically sorted."""
    if f == EMPTY:
        return []
    kind, d = classify(f)
    if kind is Kind.VERTEX:
        return [EMPTY]
    if kind is Kind.EDGE:
        return sorted(vertices_of(f))
    if kind is Kind.SIMPLEX:
        out = []
        for i in mask(f):
            g = list(f)
            g[i] = PLAIN0 if g[i] == UND0 else PLAIN1
            g = "".join(g)
            if d == 2:
                g = canonical_edge(g)
            out.append(g)
        return sorted(set(out))
    positions = mask(f)
    if d == 3:
        # the four triangles obtained by writing the stars as underlined digits
        return sorted(_odd_fillings(f, positions, UND0, UND1))
    out = _odd_fillings(f, positions, UND0, UND1)  # 2**(d-1) simplex facets
    for i in positions:  # 2d half-cube facets
        for digit in (PLAIN0, PLAIN1):
            g = list(f)
            g[i] = digit
            out.append("".join(g))
    return sorted(set(out))


def total_and_u(f: str) -> tuple[int, str]:
    """Total statistic and underline-erased sequence of a vertex or simplex
    shaped face: the sum of the 1-based positions carrying '1' or 'I', and
    the sequence with 'O','I' rewritten to '0','1'."""
    if f == EMPTY or STAR in f:
        raise NotKType(f"total/u undefined for {f!r}")
    t = sum(i + 1 for i, c in enumerate(f) if c in (PLAIN1, UND1))
    return t, f.replace(UND0, PLAIN0).replace(UND1, PLAIN1)


def det_sign(m: list[list[int]]) -> int:
    """Sign of the determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination."""
    a = [row[:] for row in m]
    k = len(a)
    sign = 1
    prev = 1
    for i in range(k):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[i][i]
        for r in range(i + 1, k):
            arc = a[r]
            aic = a[i]
            fac = arc[i]
            for c in range(i + 1, k):
                arc[c] = (arc[c] * piv - fac * aic[c]) // prev
            arc[i] = 0
        prev = piv
    d = a[k - 1][k - 1] if k else 1
    return sign * (1 if d > 0 else -1 if d < 0 else 0)


def vertex_point(v: str) -> tuple[int, ...]:
    """Coordinates of a vertex sequence: digit '0' is +1, digit '1' is -1."""
    return tuple(1 if c == "0" else -1 for c in v)


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination with row and
    column pivoting."""
    a = [row[:] for row in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    rank = 0
    prev = 1
    while rank < nr and rank < nc:
        pr = pc = -1
        for r in range(rank, nr):
            row = a[r]
            for c in range(rank, nc):
                if row[c] != 0:
                    pr, pc = r, c
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        a[rank], a[pr] = a[pr], a[rank]
        if pc != rank:
            for row in a:
                row[rank], row[pc] = row[pc], row[rank]
        piv = a[rank][rank]
        for r in range(rank + 1, nr):
            arc = a[r]
            fac = arc[rank]
            base = a[rank]
            for c in range(rank + 1, nc):
                arc[c] = (arc[c] * piv - fac * base[c]) // prev
            arc[rank] = 0
        prev = piv
        rank += 1
    return rank


def orientation_frame(f: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Base vertex and dense frame vectors of a face of dimension >= 1.

    Base is the lexicographically smallest vertex; frame vectors are picked
    greedily from the remaining vertices in lexicographic order, keeping a
    vector whenever it raises the exact rank.
    """
    d = classify(f).dim
    if d < 1:
        raise ChainError(f"no frame for a face of dimension {d}")
    verts = sorted(vertices_of(f))
    base = vertex_point(verts[0])
    vecs: list[tuple[int, ...]] = []
    for v in verts[1:]:
        if len(vecs) == d:
            break
        cand = tuple(a - b for a, b in zip(vertex_point(v), base))
        if int_rank([list(w) for w in vecs] + [list(cand)]) > len(vecs):
            vecs.append(cand)
    if len(vecs) != d:
        raise ChainError(f"rank {len(vecs)} < {d} for {f!r}")
    return verts[0], tuple(vecs)


def vertex_sum(f: str) -> tuple[tuple[int, ...], int]:
    """Sum of the vertex points of a face, and its number of vertices."""
    verts = vertices_of(f)
    total = [0] * len(f)
    for v in verts:
        for i, x in enumerate(vertex_point(v)):
            total[i] += x
    return tuple(total), len(verts)


def facet_incidence(f: str, g: str) -> int:
    """Sign of the facet g in the boundary of f, from the greedy frames and
    the enumerated centroids."""
    if g == EMPTY:
        return 1
    return _incidence(f, orientation_frame(f), vertex_sum(f), g)


def facet_incidences(f: str) -> list[int]:
    """`facet_incidence(f, g)` for each g of `facets(f)`, with the frame and
    the centroid of f found once."""
    gs = facets(f)
    if gs in ([], [EMPTY]):  # the empty face, or a vertex on it
        return [1] * len(gs)
    frame, total = orientation_frame(f), vertex_sum(f)
    return [_incidence(f, frame, total, g) for g in gs]


def _incidence(f: str, frame_f, sum_f, g: str) -> int:
    base_f, vecs_f = frame_f
    if classify(g).dim == 0:
        return -1 if g == base_f else 1
    _, vecs_g = orientation_frame(g)
    (sum_f, nf), (sum_g, ng) = sum_f, vertex_sum(g)
    u = [nf * sg - ng * sf for sf, sg in zip(sum_f, sum_g)]
    cols = [u] + [list(v) for v in vecs_g]
    m = [[sum(a * b for a, b in zip(fv, col)) for col in cols] for fv in vecs_f]
    s = det_sign(m)
    if s == 0:
        raise ChainError(f"degenerate incidence determinant for {f!r}:{g!r}")
    return s


def boundary_matrix(table: FaceTable, d: int) -> BoundaryMatrix:
    """`∂_d` of the full complex, one reference incidence per facet."""
    cols = [dict(zip(map(table.index_of, facets(f)), facet_incidences(f)))
            for f in table.faces(d)]
    return boundary_from_cols(d, len(table.faces(d - 1)), cols)


def column_arrays(cols) -> tuple[array, array, array]:
    """(rows, signs, offsets) holding the column dicts `cols` in their
    insertion order, as `BoundaryMatrix` and `MorseBoundary` store them."""
    rows, signs, offsets = array("i"), array("b"), array("i", [0])
    for c in cols:
        rows.extend(c)
        signs.extend(c.values())
        offsets.append(len(rows))
    return rows, signs, offsets


def boundary_from_cols(d: int, n_rows: int, cols) -> BoundaryMatrix:
    """A boundary matrix with the given column dicts."""
    rows, signs, offsets = column_arrays(cols)
    return BoundaryMatrix(d, n_rows, len(cols), rows, offsets, signs)


def columns(chains) -> BoundaryMatrix:
    """The chains, all of one degree, as the columns of a boundary matrix
    one dimension up: rows ascending, signs a list so that coefficients of
    any size fit.  n_rows is one past the largest row."""
    (d,) = {ch.dim + 1 for ch in chains}
    flat, signs, offsets = array("i"), [], array("i", [0])
    for ch in chains:
        for i, v in sorted(ch.coeffs.items()):
            flat.append(i)
            signs.append(v)
        offsets.append(len(flat))
    return BoundaryMatrix(d, max(flat, default=-1) + 1, len(chains), flat, offsets, signs)


def morse_boundary_with_cols(mb: MorseBoundary, cols) -> MorseBoundary:
    """mb with its columns replaced by the given dicts."""
    rows, signs, offsets = column_arrays(cols)
    return MorseBoundary(mb.k, mb.table, mb.up_ids, mb.down_ids, mb.rank,
                         rows, signs, offsets)


def diagonal(mb: MorseBoundary) -> list[int]:
    """The entry in row r of each column r of mb, or 0 when there is none."""
    out = []
    for r, (a, b) in enumerate(itertools.pairwise(mb.offsets)):
        seg = mb.rows[a:b]
        out.append(mb.signs[a + seg.index(r)] if r in seg else 0)
    return out


def entry(b: BoundaryMatrix, i: int, j: int) -> int:
    """Entry (i, j) of a boundary matrix: 0 off its support."""
    return b.cols[j].get(i, 0)


def incidence(cx: ChainComplex, f: str, g: str) -> int:
    """Incidence number of g in the boundary of f: 0 when g is not a
    facet of f, otherwise +1 or -1 from the induced orientation."""
    table = cx.table
    d = table.dim_of(f)
    if table.dim_of(g) != d - 1:
        raise DimensionMismatch(f"{g!r} is not one dimension below {f!r}")
    return entry(cx.boundary(d), table.index_of(g), table.index_of(f))


def square_defects(b: BoundaryMatrix, bprev: BoundaryMatrix) -> list[tuple[int, int, int]]:
    """The nonzero entries (column, row, value) of `∂_{d-1} ∂_d`, given
    b = `∂_d` and bprev = `∂_{d-1}`; empty when the chain condition holds."""
    out = []
    for j, col in enumerate(b.cols):
        acc: dict[int, int] = {}
        for i, v in col.items():
            for i2, v2 in bprev.cols[i].items():
                acc[i2] = acc.get(i2, 0) + v * v2
        out += [(j, i2, x) for i2, x in sorted(acc.items()) if x]
    return out


def with_sign(b: BoundaryMatrix, t: int, sign: int) -> BoundaryMatrix:
    """b with the sign of its t-th entry replaced, its arrays shared but
    for the signs."""
    signs = array("b", b.signs)
    signs[t] = sign
    return dataclasses.replace(b, signs=signs)


class PlantedComplex(ChainComplex):
    """The chain complex of `table` with the boundaries of the dimensions
    in `planted` replaced by the given matrices."""

    def __init__(self, table: FaceTable, planted: dict[int, BoundaryMatrix]):
        super().__init__(table)
        self.planted = planted

    def boundary(self, d: int) -> BoundaryMatrix:
        return self.planted[d] if d in self.planted else super().boundary(d)


def homology_basis(n: int, k: int, table: FaceTable, cx: ChainComplex) -> HomologyBasis:
    """The homology basis with each chain checked through `cx.apply` on its
    `ChainVector`, as the package checked it before the check read the
    boundary arrays; the basis faces are found by their text."""
    cells = table.faces(k)
    ids = array("i", [j for j, f in enumerate(cells)
                      if STAR in f and PLAIN1 not in f[f.rfind(STAR) + 1:]])
    bmat = cx.boundary(k)
    for j in ids:
        if not cx.apply(bmat.column_chain(j)).is_zero():
            raise SubcomplexError(f"boundary of {cells[j]!r} is not a cycle", k, cells[j])
    return HomologyBasis(k, cx, ids)


def face_table(n: int, cells) -> FaceTable:
    """The table holding the faces of each list of `cells` in its
    dimension, joined into one text, each face checked to have its
    dimension's width first, as `FaceTable` was built from lists before it
    took the texts alone."""
    texts = {}
    for d, faces in cells.items():
        w = _width(n, d)
        bad = next((f for f in faces if len(f) != w), None)
        if bad is not None:
            raise FaceError(f"face {bad!r} of dimension {d} is not {w} symbols wide", bad)
        texts[d] = "".join(faces)
    return FaceTable(n, texts)


def face_jsonl(f: str) -> str:
    """The face's JSON line, its "seq", "dim" and "kind", without the
    newline, from `classify`: the line `FaceTable.jsonl_parts` writes for
    each face of a dimension, as `enum` wrote it before."""
    kind, d = classify(f)
    return '{"seq": "' + f + _JSONL_TAIL[:-1] % (d, kind.value)


def enumerate_cells(n: int) -> dict[int, list[str]]:
    cells: dict[int, set[str]] = {d: set() for d in range(-1, n + 1)}
    cells[-1].add(EMPTY)
    points = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    cells[0].update(v for v in points if v.count("1") % 2 == 0)
    odd_points = [v for v in points if v.count("1") % 2 == 1]
    for m in range(2, n + 1):
        for positions in itertools.combinations(range(n), m):
            for v in odd_points:
                seq = list(v)
                for i in positions:
                    seq[i] = UND0 if seq[i] == PLAIN0 else UND1
                f = "".join(seq)
                cells[m - 1].add(canonical_edge(f) if m == 2 else f)
    for m in range(3, n + 1):
        for positions in itertools.combinations(range(n), m):
            free = [i for i in range(n) if i not in positions]
            for bits in itertools.product("01", repeat=len(free)):
                seq = [STAR] * n
                for i, b in zip(free, bits):
                    seq[i] = b
                cells[m].add("".join(seq))
    return {d: sorted(faces) for d, faces in cells.items()}


def _prefixed(*parts: tuple[str, list[str] | None]) -> list[str]:
    """c + s for every suffix s of each (c, suffixes) part, part by part."""
    out: list[str] = []
    for c, suffixes in parts:
        if suffixes:
            out += map(c.__add__, suffixes)
    return out


def _grow_plain(plain: dict, u: int, p: int) -> list[str]:
    return _prefixed((PLAIN0, plain.get((u, p))), (PLAIN1, plain.get((u, 1 - p))),
                     (UND1, plain.get((u - 1, 1 - p))), (UND0, plain.get((u - 1, p))))


def _grow_canon(plain: dict, canon: dict, u: int, p: int) -> list[str]:
    return _prefixed((PLAIN0, canon.get((u, p))), (PLAIN1, canon.get((u, 1 - p))),
                     (UND1, canon.get((u - 1, 1 - p))),
                     (UND0, (canon if u > 1 else plain).get((u - 1, p))))


def _grow_stars(stars: dict, m: int) -> list[str]:
    return _prefixed((STAR, stars.get(m - 1)), (PLAIN0, stars.get(m)),
                     (PLAIN1, stars.get(m)))


def enumerate_lists(n: int) -> dict[int, list[str]]:
    """The faces of each dimension, one string each, in table order, from
    sorted suffix lists grown right to left (see the module docstring)."""
    plain: dict[tuple[int, int], list[str]] = {(0, 0): [""]}
    canon: dict[tuple[int, int], list[str]] = {}
    stars: dict[int, list[str]] = {0: [""]}
    for length in range(1, n):
        plain, canon, stars = (
            {(u, p): _grow_plain(plain, u, p) for u in range(length + 1) for p in (0, 1)},
            {(u, p): _grow_canon(plain, canon, u, p) for u in (1, 2) for p in (0, 1)},
            {m: _grow_stars(stars, m) for m in range(length + 1)})
    cells = {-1: [EMPTY], 0: _grow_plain(plain, 0, 0),
             1: _grow_canon(plain, canon, 2, 1), 2: _grow_plain(plain, 3, 1)}
    for d in range(3, n):
        cells[d] = sorted(_grow_plain(plain, d + 1, 1) + _grow_stars(stars, d))
    cells[n] = _grow_stars(stars, n)
    return cells


def facet_index(table: FaceTable, d: int) -> tuple[array, array]:
    """The facets of the d-cells as (flat, offsets) positions among the
    (d-1)-cells, in `facets()` order, from the facets' text."""
    flat = array("i")
    offsets = array("i", [0])
    for f in table.faces(d):
        flat.extend(table.index_of(g) for g in facets(f))
        offsets.append(len(flat))
    return flat, offsets


def star_facet_deltas(f: str) -> tuple[int, ...]:
    """`faces.facet_deltas` of a half-cube face, one choice of 'O' or 'I'
    per star at a time: the simplex facets are the choices with an odd
    total 1-count, the half-cube facets fix one star to 0 or 1."""
    n = len(f)
    w = [5 ** (n - 1 - i) for i in range(n)]
    positions = [i for i, c in enumerate(f) if c == STAR]
    parity = f.count(PLAIN1) % 2
    out = []
    for bits in itertools.product((0, 1), repeat=len(positions)):
        if (parity + sum(bits)) % 2 == 1:
            out.append(sum(w[i] * (3 if b else 4) for i, b in zip(positions, bits)))
    if len(positions) > 3:
        out += [w[i] * c for i in positions for c in (1, 2)]
    return tuple(sorted(out))


def subcomplex_faces(k: int, table: FaceTable) -> set[str]:
    """Every face except the half-cube shaped faces of dimension >= k."""
    out = set()
    for f in table:
        kind, d = classify(f)
        if kind is Kind.HALFCUBE and d >= k:
            continue
        out.add(f)
    return out


def closure_defects(faces: set[str]) -> list[tuple[str, str]]:
    """The (face, facet) pairs of `faces` whose facet is missing from it."""
    return sorted((f, g) for f in faces if f != EMPTY
                  for g in facets(f) if g not in faces)


class Spec(NamedTuple):
    """A subcomplex as face strings, with its restricted matching."""

    n: int
    k: int
    faces: frozenset[str]
    unmatched: list[str]
    external: list[str]


def build_subcomplex(n: int, k: int, table: FaceTable,
                     matching: MorseMatching, faces=None) -> Spec:
    """The deleted-cell subcomplex with its restricted matching, checked as
    `halfcube.subcomplex.build_subcomplex` checks it, each failure naming
    its k and face.  `faces` is the retained face set, `subcomplex_faces(k,
    table)` unless a planted one is given."""
    faces_y = subcomplex_faces(k, table) if faces is None else set(faces)
    unmatched: list[str] = []
    external: list[str] = []
    for f in faces_y:
        p = matching.partner[f]
        if p not in faces_y:
            unmatched.append(f)
            external.append(p)
    unmatched.sort()
    external.sort()
    # the first gap in table order: by dimension, then by text
    for f, g in sorted(closure_defects(faces_y), key=lambda fg: (table.dim_of(fg[0]), fg)):
        raise SubcomplexError(f"not facet-closed: {g!r} missing under {f!r}", k, f)
    for f in unmatched:
        if table.dim_of(f) != k - 1:
            raise SubcomplexError(f"unmatched cell {f!r} has dim != {k - 1}", k, f)
    for b in external:
        if classify(b) != (Kind.HALFCUBE, k):
            raise SubcomplexError(f"external partner {b!r} is not a k-half-cube", k, b)
        for g in facets(b):
            if g not in faces_y:
                raise SupportLeak(f"facet {g!r} of external {b!r} left the subcomplex",
                                  k, b)
    return Spec(n, k, frozenset(faces_y), unmatched, external)


def moved_levels(table: FaceTable, face: str, level: int) -> dict[int, bytearray]:
    """The filtration levels of `faces.filtration_levels` (the least k
    whose C_{n,k} holds each cell) with one face moved to `level`: a
    planted defect of the family."""
    levels = filtration_levels(table)
    levels[table.dim_of(face)][table.index_of(face)] = level
    return levels


def members(levels: dict[int, bytearray], k: int, table: FaceTable) -> set[str]:
    """The faces whose level is at most k, as strings."""
    return {f for d, lv in levels.items() for f, v in zip(table.faces(d), lv) if v <= k}


def repaired(m: MorseMatching, f: str, g: str) -> MorseMatching:
    """`m` with f and g paired, and their old partners paired with each
    other: still an involution, but not checked to be a matching."""
    partner = dict(m.partner)
    p, q = partner[f], partner[g]
    partner[f], partner[g], partner[p], partner[q] = g, f, q, p
    return from_pairs(m.table, partner, m.rule)


# the first offender of each planted defect, in the order the checks read
# the cells: the first face in table order with a facet outside, or the
# first unmatched or external cell by text
PLANTED_OFFENDERS = {"closure": "0OIII", "unmatched": "IIIO0",
                     "external": "IIIO", "leak": "***1*"}


def planted_defect(tables, matchings, defect):
    """(n, k, matching, levels) of one planted restriction defect, each
    caught by its own check, at the least k that fails:

    * closure: the first triangle moved out of C_{5,3};
    * unmatched: at n=5 a half-cube 4-cell paired with a simplex 3-face
      on it, which C_{5,3} keeps: an unmatched 3-cell at k=3;
    * external: at n=4 a simplex 3-face paired downward moved out of
      C_{4,3}; its one coface is the top cell, so C_{4,3} stays closed;
    * leak: '***10' moved out of C_{5,4} (as in
      `test_subcomplex.py`'s `test_external_facet_outside_is_a_leak`).
    """
    if defect == "closure":
        t = tables(5)
        return 5, 3, matchings(5), moved_levels(t, t.faces(2)[0], 4)
    if defect == "unmatched":
        t = tables(5)
        h = next(f for f in t.faces(4) if STAR in f)
        s = next(g for g in facets(h) if STAR not in g)
        return 5, 3, repaired(matchings(5), h, s), filtration_levels(t)
    if defect == "external":
        t, m = tables(4), matchings(4)
        s = next(f for f in t.faces(3)
                 if STAR not in f and t.dim_of(m.partner[f]) == 2)
        return 4, 3, m, moved_levels(t, s, 4)
    t = tables(5)
    return 5, 4, matchings(5), moved_levels(t, "***10", 5)


_INVERSE_RULE = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9, 11: 11}


def mask(f: str) -> tuple[int, ...]:
    """0-based positions of the marked (underlined or starred) coordinates."""
    return tuple(i for i, c in enumerate(f) if c in UNDERLINED or c == STAR)


def _rightmost_one(f: str) -> int:
    return max(f.rfind(PLAIN1), f.rfind(UND1))


def _one_right_of_mask(f: str) -> bool:
    return PLAIN1 in f[max(mask(f)) + 1:]


def match_face(f: str, n: int | None = None) -> tuple[str, int]:
    """Partner face and rule number (1..11) for any face, empty included,
    by rewriting the face's text."""
    if f == EMPTY:
        if n is None:
            raise MorseError("ambient size n required to match the empty face")
        return PLAIN0 * n, 11
    kind, d = classify(f)
    out = list(f)
    if kind is Kind.VERTEX:
        if PLAIN1 not in f:
            return EMPTY, 11
        p2 = f.rfind(PLAIN1)
        p1 = f.rfind(PLAIN1, 0, p2)
        out[p2] = UND0
        out[p1] = UND1
        return "".join(out), 9
    if kind is Kind.EDGE:
        rm = _rightmost_one(f)
        if f[rm] == PLAIN1:
            out[rm] = UND1
            return "".join(out), 7
        for i in mask(f):
            out[i] = PLAIN1
        return "".join(out), 10
    if kind is Kind.SIMPLEX:
        rm = _rightmost_one(f)
        if f[rm] == PLAIN1:
            out[rm] = UND1
            return "".join(out), 3
        if d >= 3:
            out[rm] = PLAIN1
            return "".join(out), 4
        positions = mask(f)
        if f[positions[-1]] == UND1 and f[positions[-2]] == UND1:
            for i in positions:
                out[i] = STAR
            return "".join(out), 5
        out[rm] = PLAIN1
        return canonical_edge("".join(out)), 8
    # half-cube shaped
    if _one_right_of_mask(f):
        out[f.rfind(PLAIN1)] = STAR
        return "".join(out), 1
    positions = mask(f)
    if d >= 4:
        out[positions[-1]] = PLAIN1
        return "".join(out), 2
    out[positions[-1]] = UND1
    out[positions[-2]] = UND1
    out[positions[0]] = UND1 if f.count(PLAIN1) % 2 == 0 else UND0
    return "".join(out), 6


def rule_applicability(f: str) -> set[int]:
    """Rules whose stated input conditions hold for f, evaluated one by one
    on its text, independently of the dispatch order of `match_face`."""
    if f == EMPTY:
        return {11}
    kind, d = classify(f)
    out: set[int] = set()
    if kind is Kind.HALFCUBE:
        right_one = _one_right_of_mask(f)
        if d >= 3 and right_one:
            out.add(1)
        if d >= 4 and not right_one:
            out.add(2)
        if d == 3 and not right_one:
            out.add(6)
        return out
    if kind is Kind.VERTEX:
        if f.count(PLAIN1) >= 2:
            out.add(9)
        if PLAIN1 not in f:
            out.add(11)
        return out
    rm = _rightmost_one(f)
    underlined_rm = rm >= 0 and f[rm] == UND1
    if kind is Kind.EDGE:
        if rm >= 0 and f[rm] == PLAIN1:
            out.add(7)
        if underlined_rm:
            out.add(10)
        return out
    # simplex shaped, dimension >= 2
    if rm >= 0 and f[rm] == PLAIN1:
        out.add(3)
    if d >= 3 and underlined_rm:
        out.add(4)
    if d == 2 and underlined_rm:
        entries = tuple(f[i] for i in mask(f))
        if entries in ((UND0, UND1, UND1), (UND1, UND1, UND1)):
            out.add(5)
        if not (entries[-2] == UND1 and entries[-1] == UND1):
            out.add(8)
    return out


def from_pairs(table: FaceTable, partner, rule=None) -> MorseMatching:
    """The matching whose arrays hold these face-string pairs as given,
    one direction per entry: neither completed nor checked.  A face
    paired with itself is held as one with no partner, which the string
    check reports alike; a pair not one dimension apart, which the arrays
    cannot hold, raises the NotCodimOne of the string check."""
    mate = {d: array("i", [UNPAIRED]) * len(c) for d, c in table.cells.items()}
    rules = {d: array("b", bytes(len(c))) for d, c in table.cells.items()}
    for f, p in partner.items():
        if p not in table:
            raise InvolutionBroken(f"partner {p!r} of {f!r} is not a face")
        d, dp, j = table.dim_of(f), table.dim_of(p), table.index_of(p)
        if dp == d + 1:
            mate[d][table.index_of(f)] = j
        elif dp == d - 1:
            mate[d][table.index_of(f)] = ~j
        elif p != f:
            raise NotCodimOne(f"{f!r} (dim {d}) paired with {p!r} (dim {dp})")
    for f, r in (rule or {}).items():
        rules[table.dim_of(f)][table.index_of(f)] = r
    return MorseMatching(table, mate, rules)


def quadrilateral(table: FaceTable, vertices) -> dict[str, str]:
    """A partial matching that pairs the corners of a quadrilateral among
    `vertices` with its edges, forcing a closed alternating path in the
    layer-0 digraph."""
    edge_set = {frozenset(vertices_of(e)): e for e in table.faces(1)}
    for quad in itertools.permutations(vertices, 4):
        keys = [frozenset((quad[i], quad[(i + 1) % 4])) for i in range(4)]
        if all(k in edge_set for k in keys):
            return {quad[i]: edge_set[keys[i]] for i in range(4)}
    raise AssertionError("no quadrilateral among the given vertices")


def up_cells(m: MorseMatching, k: int) -> list[str]:
    """The upward-matched k-cells, in lexicographic order."""
    cells = m.table.faces(k)
    return [cells[i] for i in m.up_ids(k)]


def validate_matching(partner: dict[str, str], rule: dict[str, int],
                      table: FaceTable) -> None:
    """The pair check of `halfcube.morse.validate_matching` on string
    mappings, raising the same class with the same message at the same
    face."""
    for d in sorted(table.cells):
        for f in table.faces(d):
            p = partner.get(f)
            if p is None or p == f:
                raise Unpaired(f"face {f!r} has no partner")
            if p not in partner:
                raise InvolutionBroken(f"partner {p!r} of {f!r} has no partner")
            if partner[p] != f:
                raise InvolutionBroken(f"{f!r} -> {p!r} -> {partner[p]!r}")
            if _INVERSE_RULE.get(rule.get(f, 0), -1) != rule.get(p, 0):
                raise InvolutionBroken(f"rules {rule.get(f, 0)}/{rule.get(p, 0)} of "
                                       f"{f!r}/{p!r} are not inverse")
            dp = table.dim_of(p)
            if abs(d - dp) != 1:
                raise NotCodimOne(f"{f!r} (dim {d}) paired with {p!r} (dim {dp})")
            if d < dp and f not in facets(p):
                raise NotCodimOne(f"{f!r} is not a facet of {p!r}")


def layer_digraph(partner, table: FaceTable, p: int):
    """Nodes and string-keyed edges of the modified Hasse digraph of the
    layer (p, p+1): matched incidences point up, the others down."""
    edges: dict[str, list[str]] = {}
    nodes = list(table.faces(p)) + list(table.faces(p + 1))
    for b in table.faces(p + 1):
        down = []
        for a in (facets(b) if b != EMPTY else []):
            if partner.get(a) == b:
                edges.setdefault(a, []).append(b)
            else:
                down.append(a)
        edges[b] = down
    return nodes, edges


def find_cycle(nodes: list[str], edges: dict[str, list[str]]) -> list[str] | None:
    """The first directed cycle met by a depth-first search started from
    each node in order, following edges in list order."""
    state: dict[str, int] = {}
    for start in nodes:
        if state.get(start):
            continue
        stack = [(start, iter(edges.get(start, ())))]
        state[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt, 0) == 1:
                    return path[path.index(nxt):] + [nxt]
                if state.get(nxt, 0) == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
                path.pop()
    return None


def verify_acyclic(partner, table: FaceTable) -> dict:
    """The report of `halfcube.morse.verify_acyclic` from string digraphs."""
    layers = []
    for p in range(-1, table.n):
        nodes, edges = layer_digraph(partner, table, p)
        layers.append({"p": p, "nodes": len(nodes),
                       "edges": sum(len(v) for v in edges.values()),
                       "cycle": find_cycle(nodes, edges)})
    return {"n": table.n, "acyclic": all(l["cycle"] is None for l in layers),
            "layers": layers}


def morse_boundary(m: MorseMatching, table: FaceTable, k: int, cx: ChainComplex):
    """(ups, downs, cols, prec) of the level-k restricted boundary, from
    string sets and a Kahn order over face strings; prec[e] lists the
    up-cells in the boundary of e's partner, in facet order."""
    ups = sorted(f for f in table.faces(k)
                 if f in m.partner and table.dim_of(m.partner[f]) == k + 1)
    upset = set(ups)
    prec = {e: [g for g in facets(m.partner[e]) if g != e and g in upset]
            for e in ups}
    indeg = {e: len(prec[e]) for e in ups}
    succ: dict[str, list[str]] = {e: [] for e in ups}
    for e, smaller in prec.items():
        for e2 in smaller:
            succ[e2].append(e)
    ready = [e for e in ups if indeg[e] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        e = heapq.heappop(ready)
        order.append(e)
        for e2 in succ[e]:
            indeg[e2] -= 1
            if indeg[e2] == 0:
                heapq.heappush(ready, e2)
    if len(order) != len(ups):
        raise CyclicPrec("induced order has a cycle")
    pos = {e: i for i, e in enumerate(order)}
    downs = [m.partner[e] for e in order]
    cells_k = table.faces(k)
    cols = [{pos[cells_k[i]]: v
             for i, v in cx.boundary(k + 1).cols[table.index_of(d)].items()
             if cells_k[i] in upset} for d in downs]
    return order, downs, cols, prec


def solve_cycle(y: ChainVector, table: FaceTable, ref_mb) -> ChainVector:
    """The chain on the downward-matched cells whose boundary is the cycle
    y, by back-substitution over `morse_boundary`'s output `ref_mb`: a
    string dict of the upward-matched cells, and each face found by
    `index_of`."""
    ups, downs, cols, _ = ref_mb
    cells_k = table.faces(y.dim)
    pos = {e: i for i, e in enumerate(ups)}
    resid = [0] * len(ups)
    for idx, c in y.coeffs.items():
        i = pos.get(cells_k[idx])
        if i is not None:
            resid[i] = c
    coeffs: dict[int, int] = {}
    for j in range(len(ups) - 1, -1, -1):
        nu = resid[j] * cols[j][j]
        if nu:
            coeffs[table.index_of(downs[j])] = nu
            for i, v in cols[j].items():
                resid[i] -= nu * v
    return ChainVector(y.dim + 1, coeffs)


def add_scaled(a: ChainVector, b: ChainVector, scale: int = 1) -> ChainVector:
    """The chain a + scale * b."""
    if a.dim != b.dim:
        raise ChainError(f"chain dims {a.dim} vs {b.dim}")
    out = dict(a.coeffs)
    for i, c in b.coeffs.items():
        out[i] = out.get(i, 0) + scale * c
    return ChainVector(a.dim, out)


def divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """Invariant factors of the diagonal matrix with these nonzero values,
    by pairwise gcd/lcm until each divides the next."""
    f = sorted(abs(v) for v in values)
    changed = True
    while changed:
        changed = False
        for i in range(len(f)):
            for j in range(i + 1, len(f)):
                if f[j] % f[i] != 0:
                    g = gcd(f[i], f[j])
                    f[i], f[j] = g, f[i] * f[j] // g
                    changed = True
        f.sort()
    return tuple(f)


def sparse_snf(n_rows: int, n_cols: int, entries: dict[tuple[int, int], int]) -> SNFResult:
    """Smith normal form by gcd elimination; each pivot is the entry with
    the smallest (|v|, (len(row) - 1) * (len(col) - 1), row, col), found by
    scanning every remaining entry.  `entries` is not modified."""
    rows: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
            colrows.setdefault(c, set()).add(r)

    def row_op(dst: int, src: int, q: int) -> None:
        # row[dst] -= q * row[src]
        drow = rows.setdefault(dst, {})
        for c, v in rows[src].items():
            w = drow.get(c, 0) - q * v
            if w:
                if c not in drow:
                    colrows.setdefault(c, set()).add(dst)
                drow[c] = w
            elif c in drow:
                del drow[c]
                colrows[c].discard(dst)
        if not drow:
            del rows[dst]

    pivots: list[int] = []
    while rows:
        best = None
        for r in rows:
            row = rows[r]
            for c, v in row.items():
                key = (abs(v), (len(row) - 1) * (len(colrows[c]) - 1), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        _, r, c = best
        while True:
            v = rows[r][c]
            others = sorted(colrows[c] - {r})
            if others:
                for r2 in others:
                    q = rows[r2][c] // v
                    if q:
                        row_op(r2, r, q)
                rem = sorted(colrows[c] - {r})
                if rem:
                    r = min(rem, key=lambda rr: (abs(rows[rr][c]), rr))
                    continue
            row_others = sorted(c2 for c2 in rows[r] if c2 != c)
            if row_others:
                # column c is now zero off the pivot, so a column operation
                # c2 -= q*c only changes the pivot-row entry
                for c2 in row_others:
                    q = rows[r][c2] // v
                    if q:
                        w = rows[r][c2] - q * v
                        if w:
                            rows[r][c2] = w
                        else:
                            del rows[r][c2]
                            colrows[c2].discard(r)
                rem = sorted(c2 for c2 in rows[r] if c2 != c)
                if rem:
                    c = min(rem, key=lambda cc: (abs(rows[r][cc]), cc))
                    continue
            break
        pivots.append(rows[r][c])
        del rows[r]
        colrows[c].discard(r)
    return SNFResult(divisibility_chain(pivots), n_rows, n_cols)


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form of an integer matrix, given as a dense list of
    rows or as (n_rows, n_cols, entries) with `entries` a {(row, col):
    value} map."""
    if isinstance(matrix, tuple):
        n_rows, n_cols, entries = matrix
        return _sparse_snf(n_rows, n_cols, dict(entries))
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    entries = {(r, c): v
               for r, row in enumerate(matrix) for c, v in enumerate(row) if v}
    return _sparse_snf(n_rows, n_cols, entries)


def restricted_boundary(sub, d: int,
                        cx: ChainComplex) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Boundary matrix of a facet-closed subset in dimension d with local
    indices; every facet of a column must be in the subset."""
    sub = FaceSubset.of(cx.table, sub)
    cols = sub.indices(d)
    if d == 0:
        return 1, len(cols), {(0, j): 1 for j in range(len(cols))}
    row_ids = sub.indices(d - 1)
    if not cols:
        return len(row_ids), 0, {}
    row_pos = {i: r for r, i in enumerate(row_ids)}
    bmat = cx.boundary(d)
    flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
    entries: dict[tuple[int, int], int] = {}
    for j, c in enumerate(cols):
        a, b = offsets[c], offsets[c + 1]
        for i, v in zip(flat[a:b], signs[a:b]):
            entries[(row_pos[i], j)] = v
    return len(row_ids), len(cols), entries


def coface_lists(sub: FaceSubset, cx) -> dict[int, list[list[int]]]:
    """For each d from -1 to the subset's top dimension, the cofaces in
    the subset of each d-cell, ascending: the (d+1)-cells of the subset
    whose boundary column holds it.  Every d-cell has a list, the ones
    outside the subset too."""
    top = max((d for d, m in sub.masks.items() if 1 in m), default=-1)
    cofaces = {d: [[] for _ in cx.table.faces(d)] for d in range(-1, top + 1)}
    for d in range(0, top + 1):
        bmat, cof = cx.boundary(d), cofaces[d - 1]
        for i in itertools.compress(range(bmat.n_cols), sub.mask(d)):
            for f in bmat.flat[bmat.offsets[i]:bmat.offsets[i + 1]]:
                cof[f].append(i)
    return cofaces


def _degree_homology(sub: FaceSubset, degree: int, snf_d: SNFResult,
                     snf_next: SNFResult) -> dict:
    n_cells = sub.mask(degree).count(1) if degree >= 0 else 0
    return {"degree": degree, "betti": n_cells - snf_d.rank - snf_next.rank,
            "torsion": list(snf_next.torsion())}


def homology(subset, degree: int, cx: ChainComplex) -> dict:
    """Reduced Betti number and torsion in one degree, from the two whole
    restricted boundary maps around it."""
    sub = check_closed(subset, cx.table)
    return _degree_homology(
        sub, degree, _sparse_snf(*restricted_boundary(sub, degree, cx)),
        _sparse_snf(*restricted_boundary(sub, degree + 1, cx)))


def homology_report(subset, cx: ChainComplex) -> dict:
    """Per-degree reduced Betti numbers and torsion, each whole restricted
    boundary map factored once."""
    sub = check_closed(subset, cx.table)
    top = max((d for d in cx.table.cells if d >= 0 and 1 in sub.mask(d)), default=-1)
    snfs = [_sparse_snf(*restricted_boundary(sub, d, cx))
            for d in range(0, top + 2)]
    betti: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for d in range(0, top + 1):
        h = _degree_homology(sub, d, snfs[d], snfs[d + 1])
        betti[d] = h["betti"]
        if h["torsion"]:
            torsion[d] = h["torsion"]
    return {"betti": betti, "torsion": torsion}


def class_independence(cycles, subset, cx: ChainComplex) -> IndependenceVerdict:
    """The certificate of `snf.class_independence`, with the boundary
    image, the stack and the degree map each eliminated whole."""
    if not cycles:
        raise NotCycles("no cycles given")
    degree = cycles[0].dim
    sub = check_closed(subset, cx.table)
    row_ids = sub.indices(degree) if degree >= 0 else []
    row_pos = {i: r for r, i in enumerate(row_ids)}
    for ch in cycles:
        if ch.dim != degree or not cx.apply(ch).is_zero():
            raise NotCycles("not cycles of one degree")
        if any(i not in row_pos for i in ch.coeffs):
            raise NotCycles("cycle leaves the subset")
    rb, cb, entries = restricted_boundary(sub, degree + 1, cx)
    rank_b = _sparse_snf(rb, cb, entries).rank
    stacked = dict(entries)
    for j, ch in enumerate(cycles):
        for i, v in ch.coeffs.items():
            stacked[(row_pos[i], cb + j)] = v
    snf_stack = _sparse_snf(rb, cb + len(cycles), stacked)
    kernel_rank = len(row_ids) - _sparse_snf(
        *restricted_boundary(sub, degree, cx)).rank
    independent = snf_stack.rank == rank_b + len(cycles)
    generating = snf_stack.rank == kernel_rank and not snf_stack.torsion()
    return IndependenceVerdict(independent, generating, {
        "degree": degree,
        "cycles": len(cycles),
        "rank_boundaries": rank_b,
        "rank_stacked": snf_stack.rank,
        "kernel_rank": kernel_rank,
        "stacked_torsion": list(snf_stack.torsion()),
    })


class Attached:
    """`_family._Attached` as it was built before `_Reduction.project`
    read boundary columns in place: one `ChainVector` per attached cell,
    its boundary filtered to the cells red reduced, the chains packed by
    `columns` for the projection, and the table built from lists of faces
    by `face_table`."""

    def __init__(self, red, levels: dict[int, bytearray], k: int):
        cx, table, left = red.cx, red.cx.table, red.left
        n = table.n
        attach = bytes(k < v < n for v in range(256))
        later = {d: lv.translate(attach) for d, lv in levels.items()}
        cells = {d: left.indices(d) + list(itertools.compress(range(len(m)), m))
                 for d, m in later.items()}
        n_left = {d: left.mask(d).count(1) for d in cells}
        self.bmats = {}
        for d in range(0, max(d for d, c in cells.items() if c) + 1):
            row = dict(zip(cells[d - 1], itertools.count()))
            bmat = cx.boundary(d)
            flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
            attached, below = cells[d][n_left[d]:], later[d - 1]
            pi: dict[int, dict[int, int]] = {}
            if attached and n_left[d - 1]:
                lower = []
                for c in attached:
                    a, b = offsets[c], offsets[c + 1]
                    lower.append(ChainVector(d - 1, {
                        i: v for i, v in zip(flat[a:b], signs[a:b]) if not below[i]}))
                for i, z in red.project(columns(lower), range(len(lower))).items():
                    for j, v in z.items():
                        pi.setdefault(j, {})[row[i]] = v
            flat_d, signs_d = array("i"), []
            ends = array("i", [0])
            for j, c in enumerate(cells[d]):
                fl, sg = flat[offsets[c]:offsets[c + 1]], signs[offsets[c]:offsets[c + 1]]
                if j < n_left[d]:
                    keep = bytes(map(row.__contains__, fl))
                else:
                    z = pi.get(j - n_left[d], {})
                    flat_d.extend(sorted(z))
                    signs_d.extend(z[i] for i in sorted(z))
                    keep = bytes(map(below.__getitem__, fl))
                flat_d.extend(map(row.__getitem__, itertools.compress(fl, keep)))
                signs_d.extend(itertools.compress(sg, keep))
                ends.append(len(flat_d))
            self.bmats[d] = BoundaryMatrix(d, len(cells[d - 1]), len(cells[d]), flat_d,
                                           ends, signs_d)
        self.table = face_table(n, {d: table.faces(d).take(cs) for d, cs in cells.items()})
        self.levels = {d: bytearray(n_left[d]) + bytearray(
            itertools.compress(levels[d], later[d])) for d in cells}

    def boundary(self, d: int) -> BoundaryMatrix:
        return self.bmats[d]
