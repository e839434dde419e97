"""Oriented cellular chain complex of the half cube over the integers.

Vertex points have coordinate +1 for digit '0' and -1 for digit '1'.  A face
of dimension >= 1 is oriented by a frame: a base vertex and dim(f) exact
integer edge vectors.  It is the frame a greedy search over the
lexicographically sorted vertices would pick (smallest vertex as base, keep
each edge vector that raises the rank), given here in closed form:

* simplex or edge face with mask size m and underline-erased digits b: the
  vertices toggle one mask coordinate of b each and are affinely
  independent, so every one is kept.  In sorted order the toggles of the
  '1' mask positions come first, rising, then those of the '0' positions,
  falling; the first is the base, and each later vertex minus the base is
  a frame vector.
* half-cube face with star positions s_0 < ... < s_{m-1}: the base fills
  every star with '0', except s_{m-1} gets '1' when the count of fixed '1'
  digits is odd.  The frame vectors toggle the star pairs (m-2, m-1),
  (m-3, m-1), (m-3, m-2), then (j, m-1) for j = m-4 down to 0.

Every frame vector has two nonzero coordinates, both on the face's mask.

The vertex sum of a face, also in closed form, is 2**(m-1) times the
fixed coordinates and 0 on the stars for a half-cube face (2**(m-1)
vertices); m * b_i off the mask and (m - 2) * b_i on it for a simplex or
edge face (m vertices); and the point itself for a vertex.

The incidence number of a facet g of f is the sign of an exact
determinant: the Gram matrix of f's frame against the outward direction
nf*ng * (centroid(g) - centroid(f)) followed by g's frame.  A zero
determinant raises.  An edge has -1 on its base and +1 on its other vertex;
a vertex has +1 on the empty face.  All arithmetic is arbitrary-precision
integer; signs are never computed in floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .faces import (
    ONE_SYMBOLS,
    PLAIN0,
    PLAIN1,
    STAR,
    UND0,
    UND1,
    UNDERLINED,
    FaceTable,
    Kind,
    classify,
    mask,
)


class ChainError(Exception):
    pass


class DimensionMismatch(ChainError):
    pass


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


def _sign(c: str) -> int:
    # coordinate of a digit, plain or underlined
    return 1 if c in (PLAIN0, UND0) else -1


def vertex_sum(f: str) -> tuple[tuple[int, ...], int]:
    """Sum of the vertex points of a face and its number of vertices, in
    closed form (see the module docstring)."""
    kind, d = classify(f)
    if kind is Kind.VERTEX:
        return vertex_point(f), 1
    if kind is Kind.HALFCUBE:
        w = 2 ** (d - 1)
        return tuple(0 if c == STAR else w * _sign(c) for c in f), w
    m = d + 1
    return tuple((m - 2 if c in UNDERLINED else m) * _sign(c) for c in f), m


# A frame vector is (p, a, q, b): a at coordinate p, b at coordinate q, zero
# elsewhere.
FrameVector = tuple[int, int, int, int]


def orientation(f: str) -> tuple[str, tuple[FrameVector, ...]]:
    """Base vertex and frame vectors of a face of dimension >= 1.

    This is the frame a greedy search picks from the lexicographically
    sorted vertices: the smallest vertex as base, and the edge vector of
    each later vertex that raises the rank.  Both face shapes give it in
    closed form (see the module docstring).
    """
    kind, d = classify(f)
    if d < 1:
        raise ChainError(f"no frame for a face of dimension {d}")
    pos = mask(f)
    if kind is Kind.HALFCUBE:
        base = [PLAIN0] * d
        if f.count(PLAIN1) % 2:
            base[-1] = PLAIN1
        v = list(f)
        for i, c in zip(pos, base):
            v[i] = c
        # toggling star s moves the base point by -2 * its coordinate there
        step = [-2 if c == PLAIN0 else 2 for c in base]
        pairs = [(d - 2, d - 1), (d - 3, d - 1), (d - 3, d - 2)]
        pairs += [(j, d - 1) for j in range(d - 4, -1, -1)]
        return "".join(v), tuple((pos[s], step[s], pos[t], step[t])
                                 for s, t in pairs)
    # simplex shaped: vertex i toggles mask coordinate i of the erased
    # digits; in lexicographic order the '1' positions come first, rising,
    # then the '0' positions, falling
    order = ([i for i in pos if f[i] in ONE_SYMBOLS]
             + [i for i in reversed(pos) if f[i] not in ONE_SYMBOLS])
    i0 = order[0]
    v = list(f.replace(UND0, PLAIN0).replace(UND1, PLAIN1))
    v[i0] = PLAIN0 if v[i0] == PLAIN1 else PLAIN1
    return "".join(v), tuple((i0, 2 * _sign(f[i0]), j, -2 * _sign(f[j]))
                             for j in order[1:])


@dataclass
class ChainVector:
    """Sparse integer chain: face index -> coefficient, zero-free."""

    dim: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {i: c for i, c in self.coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def add_scaled(self, other: "ChainVector", scale: int = 1) -> "ChainVector":
        if other.dim != self.dim:
            raise DimensionMismatch(f"chain dims {self.dim} vs {other.dim}")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            v = out.get(i, 0) + scale * c
            if v:
                out[i] = v
            else:
                out.pop(i, None)
        return ChainVector(self.dim, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChainVector)
                and self.dim == other.dim and self.coeffs == other.coeffs)

    def support_faces(self, table: FaceTable) -> list[str]:
        cells = table.faces(self.dim)
        return [cells[i] for i in sorted(self.coeffs)]


@dataclass
class BoundaryMatrix:
    """Sparse incidence matrix from d-cells (columns) to (d-1)-cells (rows).

    Row index -1 cells: for d = 0 there is a single augmentation row onto
    the empty face.
    """

    d: int
    n_rows: int
    n_cols: int
    cols: list[dict[int, int]]

    def entry(self, i: int, j: int) -> int:
        return self.cols[j].get(i, 0)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def column_chain(self, j: int) -> ChainVector:
        return ChainVector(self.d - 1, dict(self.cols[j]))

    def jsonl_lines(self, n: int) -> Iterator[str]:
        yield json.dumps({"dim": self.d, "rows": self.n_rows,
                          "cols": self.n_cols, "n": n})
        for j, col in enumerate(self.cols):
            for i in sorted(col):
                yield json.dumps({"row": i, "col": j, "val": col[i]})


def boundary_matrix(table: FaceTable, d: int) -> BoundaryMatrix:
    """Boundary operator of the full complex in dimension d (0 <= d <= n);
    d = 0 yields the all-ones augmentation row."""
    if d < 0 or d > table.n:
        raise DimensionMismatch(f"no boundary in dimension {d}")
    cells = table.faces(d)
    below = table.faces(d - 1)
    n_rows = len(below)
    if d == 0:
        return BoundaryMatrix(d, n_rows, len(cells), [{0: 1} for _ in cells])
    flat, offsets = table.facet_index(d)
    cols: list[dict[int, int]] = []
    if d == 1:
        # -1 on the frame base, the smaller vertex, and +1 on the head
        for i in range(len(cells)):
            base, head = flat[offsets[i]:offsets[i + 1]]
            cols.append({base: -1, head: 1})
        return BoundaryMatrix(d, n_rows, len(cells), cols)
    # (frame vectors, vertex sum, vertex count) of the facets met so far,
    # by position among the (d-1)-cells
    seen: dict[int, tuple] = {}
    for i, f in enumerate(cells):
        vecs_f = orientation(f)[1]
        sum_f, nf = vertex_sum(f)
        dense_f = []
        for p, a, q, b in vecs_f:
            row = [0] * table.n
            row[p], row[q] = a, b
            dense_f.append(row)
        col: dict[int, int] = {}
        for j in flat[offsets[i]:offsets[i + 1]]:
            info = seen.get(j)
            if info is None:
                g = below[j]
                info = seen[j] = (orientation(g)[1], *vertex_sum(g))
            vecs_g, sum_g, ng = info
            # Gram matrix of f's frame against the outward direction
            # nf*ng * (centroid(g) - centroid(f)) followed by g's frame
            m = [[a * (nf * sum_g[p] - ng * sum_f[p])
                  + b * (nf * sum_g[q] - ng * sum_f[q])]
                 + [row[p2] * a2 + row[q2] * b2 for p2, a2, q2, b2 in vecs_g]
                 for (p, a, q, b), row in zip(vecs_f, dense_f)]
            s = det_sign(m)
            if s == 0:
                raise ChainError(
                    f"degenerate incidence determinant for {f!r}:{below[j]!r}")
            col[j] = s
        cols.append(col)
    return BoundaryMatrix(d, n_rows, len(cells), cols)


class ChainComplex:
    """Boundary matrices of a face table, built once per dimension and
    shared."""

    def __init__(self, table: FaceTable):
        self.table = table
        self._bmats: dict[int, BoundaryMatrix] = {}

    def incidence(self, f: str, g: str) -> int:
        """Incidence number of g in the boundary of f: 0 when g is not a
        facet of f, otherwise +1 or -1 from the induced orientation."""
        d = self.table.dim_of(f)
        if self.table.dim_of(g) != d - 1:
            raise DimensionMismatch(f"{g!r} is not one dimension below {f!r}")
        return self.boundary(d).entry(self.table.index_of(g), self.table.index_of(f))

    def boundary(self, d: int) -> BoundaryMatrix:
        b = self._bmats.get(d)
        if b is None:
            b = self._bmats[d] = boundary_matrix(self.table, d)
        return b

    def apply(self, c: ChainVector) -> ChainVector:
        if c.dim < 0:
            return ChainVector(c.dim - 1, {})
        b = self.boundary(c.dim)
        out: dict[int, int] = {}
        for j, lam in c.coeffs.items():
            for i, v in b.cols[j].items():
                w = out.get(i, 0) + lam * v
                if w:
                    out[i] = w
                else:
                    del out[i]
        return ChainVector(c.dim - 1, out)
