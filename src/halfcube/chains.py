"""Oriented cellular chain complex of the half cube over the integers.

Vertex points have coordinate +1 for digit '0' and -1 for digit '1'.  A face
of dimension >= 1 is oriented by a frame: its lexicographically smallest
vertex as base, and the edge vectors to the later vertices, in
lexicographic order, that raise the rank.

* A simplex or edge face keeps every vertex, so it is oriented by its
  lexicographic vertex order.  Vertex p toggles mask coordinate p of the
  underline-erased digits; in that order the 'I' positions come first,
  rising, then the 'O' positions, falling.
* A half-cube face with stars s_0 < ... < s_{m-1} and P fixed '1' digits
  has as base every star '0', except s_{m-1} is '1' when P is odd, and as
  frame the toggles of the star pairs (m-2, m-1), (m-3, m-1), (m-3, m-2),
  then (j, m-1) for j = m-4 down to 0.

The incidence [f:g] of a facet g is +1 when the outward direction from f's
centroid to g's followed by g's frame has the orientation of f's frame,
and -1 otherwise.  An edge has -1 on its base and +1 on its other vertex;
a vertex has +1 on the empty face.  For d >= 2 each sign factors as
[f:g] = ε(f)·ε(g)·σ(f,g): ε is the sign of a face's frame against a
canonical basis of its span (the star coordinates for a half-cube face;
a simplex face's frame is its canonical one, ε = +1), and σ is the
incidence of the canonical bases.  In closed form:

* ε(f) = (-1)^(floor((m-1)/2) + P) for a half-cube face.
* A: f a half-cube face, g the half-cube facet fixing star s_i to digit c
  (c = +1 for '0', -1 for '1'): [f:g] = ε(f)·ε(g)·c·(-1)^i.
* B: f a half-cube face, g a simplex facet writing the stars as 'O'/'I',
  with o the number of 'I's, z the number of 'O's and inv the number of
  pairs s_a < s_b with g[s_a] = 'O' and g[s_b] = 'I':
  [f:g] = ε(f)·(-1)^(m-1)·(-1)^(o + inv + z(z-1)/2).
* C: f a simplex face, g the facet dropping the underline at mask position
  p: [f:g] = (-1)^r, with r the index of p in f's vertex order (the
  alternating sign of simplicial boundaries).

The signs of f's facets depend only on m and the parity of P for a
half-cube face, and on the 'O'/'I' pattern of its mask for a simplex face.
The facet index lists facets in lexicographic order, which the pattern
alone decides, so each column is one cached sign tuple laid over the
column's facet positions.  Every sign is an exact integer.

A `BoundaryMatrix` stores these signs in one `array('b')` parallel to the
facet index's `flat`, and keeps the facet index's own `flat` and
`offsets` as its rows and column bounds: a boundary adds one byte per
entry to the facet index.  Its `cols` and `MorseBoundary.cols` are
`ColumnView`s, which build a fresh dict per column read and cache
nothing.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, pairwise, product, repeat
from typing import Iterator

from .faces import PLAIN0, PLAIN1, STAR, UND0, UND1, FaceTable, canonical_edge


class ChainError(Exception):
    """A failed check of this layer; `dim` names the dimension it stops
    at, or is None."""

    def __init__(self, message: str, dim: int | None = None):
        super().__init__(message)
        self.dim = dim


class DimensionMismatch(ChainError):
    pass


def halfcube_epsilon(m: int, parity: int) -> int:
    """ε of a half-cube face with m stars whose fixed '1' count has this
    parity: the sign of its frame against the star coordinates."""
    return -1 if ((m - 1) // 2 + parity) % 2 else 1


@cache
def halfcube_signs(m: int, parity: int) -> tuple[int, ...]:
    """Incidences of the facets of a half-cube face with m stars and fixed
    '1' count of this parity, in lexicographic facet order (rules A, B)."""
    eps = halfcube_epsilon(m, parity)
    signed = []  # (facet written on the stars, incidence)
    if m > 3:  # rule A
        for i in range(m):
            for digit, c in ((PLAIN0, 1), (PLAIN1, -1)):
                eps_g = halfcube_epsilon(m - 1, parity ^ (c < 0))
                signed.append((STAR * i + digit + STAR * (m - 1 - i),
                               eps * eps_g * c * (-1) ** i))
    for bits in product((0, 1), repeat=m):  # rule B, odd total 1-count
        o = sum(bits)
        if (o + parity) % 2 != 1:
            continue
        z = m - o
        inv = sum(1 for a in range(m) for b in range(a + 1, m)
                  if not bits[a] and bits[b])
        signed.append(("".join(UND1 if b else UND0 for b in bits),
                       eps * (-1) ** (m - 1 + o + inv + z * (z - 1) // 2)))
    return tuple(s for _, s in sorted(signed))


@cache
def simplex_signs(pattern: str) -> tuple[int, ...]:
    """Incidences of the facets of a simplex face whose mask reads
    `pattern` ('O'/'I' in position order, length >= 3), in lexicographic
    facet order (rule C)."""
    m = len(pattern)
    order = ([p for p in range(m) if pattern[p] == UND1]
             + [p for p in reversed(range(m)) if pattern[p] == UND0])
    signed = []
    for r, p in enumerate(order):
        g = pattern[:p] + (PLAIN1 if pattern[p] == UND1 else PLAIN0) + pattern[p + 1:]
        signed.append((canonical_edge(g) if m == 3 else g, (-1) ** r))
    return tuple(s for _, s in sorted(signed))


# a face's '1' digits, counted for a half-cube face's parity, and its
# plain digits, deleted to leave a simplex face's mask pattern
_ONE, _DIGITS = PLAIN1.encode(), (PLAIN0 + PLAIN1).encode()


@dataclass
class ChainVector:
    """Sparse integer chain: face index -> coefficient, zero-free."""

    dim: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {i: c for i, c in self.coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs


class ColumnView(Sequence):
    """Read-only view of a sparse matrix held as (rows, signs, offsets)
    arrays: `view[j]` is a fresh dict row -> sign of column j, in storage
    order.  Nothing is cached, so reading the view keeps no dict alive."""

    def __init__(self, rows: array, signs: array, offsets: array):
        self._rows = rows
        self._signs = signs
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, j: int) -> dict[int, int]:
        j = range(len(self))[j]  # IndexError outside, as a list raises
        a, b = self._offsets[j], self._offsets[j + 1]
        return dict(zip(self._rows[a:b], self._signs[a:b]))

    def __iter__(self) -> Iterator[dict[int, int]]:
        rows, signs = self._rows, self._signs
        for a, b in pairwise(self._offsets):
            yield dict(zip(rows[a:b], signs[a:b]))


@dataclass
class BoundaryMatrix:
    """Sparse incidence matrix from d-cells (columns) to (d-1)-cells (rows).

    Column j holds the rows flat[t] with the signs signs[t] for t in
    range(offsets[j], offsets[j + 1]).  `flat` and `offsets` are the
    table's facet index of the d-cells (`FaceTable.facet_index`), shared,
    not copied, so the matrix adds one byte per entry.  For d = 0 there is
    a single augmentation row onto the empty face.  `cols` reads the
    columns as dicts, one fresh dict per read.  `cofaces` is the
    transpose, built on first use and kept.
    """

    d: int
    n_rows: int
    n_cols: int
    flat: array
    offsets: array
    signs: array

    @property
    def cols(self) -> ColumnView:
        return ColumnView(self.flat, self.signs, self.offsets)

    @cached_property
    def cofaces(self) -> tuple[array, array]:
        """(coflat, cooffsets): the cofaces of the (d-1)-cell i are the
        d-cells coflat[t], ascending, for cooffsets[i] <= t <
        cooffsets[i + 1]."""
        # one list per row, packed: faster than two counting passes
        lists: list[list[int]] = [[] for _ in range(self.n_rows)]
        flat, offsets = self.flat, self.offsets
        for j in range(self.n_cols):
            for i in flat[offsets[j]:offsets[j + 1]]:
                lists[i].append(j)
        coflat = array("i")
        for cof in lists:
            coflat.fromlist(cof)
        return coflat, array("i", accumulate(map(len, lists), initial=0))

    def nnz(self) -> int:
        return len(self.signs)

    def column_chain(self, j: int) -> ChainVector:
        """The boundary of the j-th d-cell; j outside the cells raises
        DimensionMismatch."""
        if not 0 <= j < self.n_cols:
            raise DimensionMismatch(f"column {j} is not one of the {self.n_cols} "
                                    f"cells of dimension {self.d}", self.d)
        a, b = self.offsets[j], self.offsets[j + 1]
        return ChainVector(self.d - 1, dict(zip(self.flat[a:b], self.signs[a:b])))


def boundary_matrix(table: FaceTable, d: int) -> BoundaryMatrix:
    """Boundary operator of the full complex in dimension d (0 <= d <= n);
    d = 0 yields the all-ones augmentation row."""
    if d < 0 or d > table.n:
        raise DimensionMismatch(f"no boundary in dimension {d}", d)
    cells = table.faces(d)
    flat, offsets = table.facet_index(d)
    if d <= 1:
        # +1 onto the empty face; an edge has -1 on its frame base, the
        # smaller vertex, and +1 on its head
        unit = array("b", [1] if d == 0 else [-1, 1])
        signs = unit * len(cells)
        counts = repeat(len(unit), len(cells))
    else:
        # one sign string per face pattern, packed as bytes
        packed: dict[object, bytes] = {}
        parts = []
        for star, f in zip(cells.holding(STAR), cells.encoded()):
            # the parity of the '1' digits, or the underlined symbols in order
            key = f.count(_ONE) & 1 if star else f.translate(None, _DIGITS)
            b = packed.get(key)
            if b is None:
                s = halfcube_signs(d, key) if star else simplex_signs(key.decode())
                b = packed[key] = array("b", s).tobytes()
            parts.append(b)
        signs = array("b", b"".join(parts))
        counts = map(len, parts)
    if offsets != array("i", accumulate(counts, initial=0)):
        raise ChainError(f"sign and facet counts differ in dimension {d}", d)
    return BoundaryMatrix(d, len(table.faces(d - 1)), len(cells), flat, offsets, signs)


class ChainComplex:
    """Boundary matrices of a face table, built once per dimension and
    shared."""

    def __init__(self, table: FaceTable):
        self.table = table
        self._bmats: dict[int, BoundaryMatrix] = {}

    def boundary(self, d: int) -> BoundaryMatrix:
        b = self._bmats.get(d)
        if b is None:
            b = self._bmats[d] = boundary_matrix(self.table, d)
        return b

    def apply(self, c: ChainVector) -> ChainVector:
        """The boundary of c; an index that is not a cell of c's dimension
        raises DimensionMismatch."""
        n_cells = len(self.table.faces(c.dim))
        if c.coeffs and (min(c.coeffs) < 0 or max(c.coeffs) >= n_cells):
            j = next(j for j in c.coeffs if not 0 <= j < n_cells)
            raise DimensionMismatch(f"chain index {j} is not one of the "
                                    f"{n_cells} cells of dimension {c.dim}", c.dim)
        if c.dim < 0:
            return ChainVector(c.dim - 1, {})
        b = self.boundary(c.dim)
        flat, offsets, signs = b.flat, b.offsets, b.signs
        out: dict[int, int] = {}
        get = out.get
        for j, lam in c.coeffs.items():
            a, e = offsets[j], offsets[j + 1]
            for i, v in zip(flat[a:e], signs[a:e]):
                out[i] = get(i, 0) + lam * v
        return ChainVector(c.dim - 1, out)  # which drops the zeros
