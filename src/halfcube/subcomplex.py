"""Subcomplexes of the half cube with the large half-cube cells removed.

For 3 <= k < n, deleting the interiors of every half-cube shaped face of
dimension >= k leaves a subcomplex C_{n,k} whose reduced homology is free
and concentrated in degree k-1.  Restricting the complete matching to the
subcomplex leaves unpaired exactly the (k-1)-cells whose original partner
was a deleted k-dimensional half-cube cell; the boundaries of those
external partners are explicit integral homology basis chains, which a
basis reads by position from the boundary matrix.  Two closed forms count
the basis.  The masks read n from `table.n`; the functions given n and a
table beside their owner raise BadRange on a mismatch.

The subcomplexes form one filtration C_{n,3} ⊂ C_{n,4} ⊂ ... ⊂ C_{n,n-1}:
each step adds the half-cube cells of one more dimension.  It is held as
one level per cell, the least k >= 3 whose C_{n,k} holds the cell: d + 1
for a half-cube shaped d-cell, and 0 for a cell that every C_{n,k} holds.
`faces.filtration_levels` owns the levels, which the SNF oracle's family
reads too, and this layer reads them and their masks (`faces.at_most`).
One pass over the levels and the matching restricts the matching for any
range of k (`build_family` for all of them, `build_subcomplex` for one),
and is exact because every fact it reads is a comparison of levels:

* C_{n,k} holds the i-th d-cell but not its facet j exactly for the k
  with level(i) <= k < level(j), so one scan of each dimension's facet
  incidences finds the first gap, in table order, of every k at once;
* a cell leaves C_{n,k} for k < its level and its partner is in it for
  k >= the partner's level, so the cell is external exactly for the k
  between the two: a half-cube d-cell matched to a simplex face for every
  k <= d, one matched to a half-cube (d-1)-cell only at k = d, and one
  matched upward never.

Each k then sorts its cells and runs its checks in the order a
single-subcomplex build did, so each failure keeps its class, its message
and its first offender, and names them as `k` and `face`.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .chains import BoundaryMatrix, ChainComplex, ChainVector
from .faces import PLAIN1, STAR, FaceList, FaceSubset, FaceTable, at_most, filtration_levels
from .morse import MorseMatching


class SubcomplexError(Exception):
    """A failed check of this layer.  A failure of one C_{n,k} names its
    `k` and the first `face` that fails; both are None otherwise."""

    def __init__(self, message: str, k: int | None = None, face: str | None = None):
        super().__init__(message)
        self.k = k
        self.face = face


class BadRange(SubcomplexError):
    pass


class SupportLeak(SubcomplexError):
    pass


def betti_binomial(n: int, k: int) -> int:
    """Binomial-product form of the homology rank in degree k-1:
    sum over i = k..n of C(n,i) * C(i-1,k-1)."""
    if not 3 <= k <= n:
        raise BadRange(f"need 3 <= k <= n, got k={k}, n={n}")
    return sum(comb(n, i) * comb(i - 1, k - 1) for i in range(k, n + 1))


def betti_power(n: int, k: int) -> int:
    """Power-of-two form of the same rank: sum over i = 1..n of
    2**(i-k) * C(i-1,k-1); terms with i < k vanish with the binomial."""
    if not 3 <= k <= n:
        raise BadRange(f"need 3 <= k <= n, got k={k}, n={n}")
    return sum((2 ** (i - k)) * comb(i - 1, k - 1) for i in range(k, n + 1))


def _check_range(n: int, k: int, table: FaceTable, owner=None) -> None:
    """BadRange unless n is table.n, 3 <= k < n, and any owner holds the table."""
    if n != table.n:
        raise BadRange(f"n={n} but the face table has n={table.n}")
    if owner is not None and owner.table is not table:
        raise BadRange(f"the face table is not the {type(owner).__name__}'s")
    if not 3 <= k < n:
        raise BadRange(f"need 3 <= k < n, got k={k}, n={n}")


def _over(k: int) -> bytes:
    """A translation table taking a level above k to 1 and the rest to 0."""
    return bytes(v > k for v in range(256))


def subcomplex_faces(k: int, table: FaceTable) -> FaceSubset:
    """Every face of the half cube except the half-cube shaped faces of
    dimension >= k, the cells of level <= k; the empty face is kept."""
    inside = at_most(k)
    return FaceSubset(table, {d: lv.translate(inside)
                              for d, lv in filtration_levels(table).items()})


@dataclass
class SubcomplexSpec:
    """The deleted-cell subcomplex C_{n,k} of `table` with its restricted
    matching.

    `unmatched` holds the faces whose partner was deleted, left unpaired
    by the restricted matching (all of dimension k-1, one per homology
    basis chain); `external` their original partners, the deleted
    k-dimensional half-cube cells.  `faces`, the retained face set (empty
    face included), is built on every read, so a spec keeps no mask.
    """

    table: FaceTable
    k: int
    unmatched: list[str]
    external: list[str]

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def faces(self) -> FaceSubset:
        return subcomplex_faces(self.k, self.table)


def _first_gaps(table: FaceTable, levels: dict[int, bytearray],
                ks: range) -> dict[int, tuple[int, int, int]]:
    """The first face, in table order, of C_{n,k} with a facet outside it,
    as (d, its position, the facet's position), for each k of ks that has
    one.  A dimension is scanned once for every k, and only when some
    facet leaves some C_{n,k}."""
    gaps: dict[int, tuple[int, int, int]] = {}
    over = _over(ks[0])
    for d in table.cells:
        below = levels.get(d - 1, b"")
        if 1 not in below.translate(over):
            continue  # every (d-1)-cell is in every C_{n,k} of ks
        level, cap = levels[d], max(below)
        flat, offsets = table.facet_index(d)
        held = bytes(map(below.__getitem__, flat))  # each incidence's facet level
        late = held.translate(over)
        find = late.find
        t = find(1)
        while t >= 0:
            i = bisect_right(offsets, t) - 1
            end = offsets[i + 1]
            if level[i] < cap:  # else no facet of the face is later than it
                first = max(level[i], ks[0])  # the least k of ks that holds the face
                for s in range(t, end):
                    for k in range(first, min(held[s], ks[-1] + 1)):
                        gaps.setdefault(k, (d, i, flat[s]))
            t = find(1, end)
    return gaps


def _restrict(m: MorseMatching, ks: range) -> dict[int, SubcomplexSpec]:
    """The subcomplex and restricted matching of every k of ks, checked
    (module docstring); the first k that fails a check raises."""
    table = m.table
    levels = filtration_levels(table)
    gaps = _first_gaps(table, levels, ks)
    # each cell held as (code, dimension, position within it); codes of
    # faces of one length order as their texts, and are unique but for the
    # empty face's, so the tuples sort as the texts
    found: dict[int, tuple[list, list]] = {k: ([], []) for k in ks}
    over, mate, codes = _over(ks[0]), m.mate, table.codes
    for d, cells in table.cells.items():
        level = levels[d]
        out_k = level.translate(over)
        if 1 not in out_k:
            continue  # every d-cell is in every C_{n,k} of ks
        for i in itertools.compress(range(len(cells)), out_k):
            g = mate[d][i]  # the (d+1)-cell g or the (d-1)-cell ~g
            dg, j = (d + 1, g) if g >= 0 else (d - 1, ~g)
            # the cell is out of C_{n,k} for k < its level, and its partner
            # in it from the partner's level on
            for k in range(max(levels[dg][j], ks[0]), min(level[i], ks[-1] + 1)):
                unmatched, external = found[k]
                unmatched.append((codes(dg)[j], dg, j))
                external.append((codes(d)[i], d, i))

    out = {}
    for k in ks:
        gap = gaps.get(k)
        if gap is not None:
            d, i, j = gap
            raise SubcomplexError(f"not facet-closed: {table.faces(d - 1)[j]!r} missing "
                                  f"under {table.faces(d)[i]!r}", k, table.faces(d)[i])
        unmatched, external = found[k]
        unmatched.sort()
        external.sort()
        stray = next(((d, j) for _, d, j in unmatched if d != k - 1), None)
        if stray is not None:
            f = table.faces(stray[0])[stray[1]]
            raise SubcomplexError(f"unmatched cell {f!r} has dim != {k - 1}", k, f)
        below = levels[k - 1]
        leaks = 1 in below.translate(_over(k))  # some (k-1)-cell is not in C_{n,k}
        flat, offsets = table.facet_index(k)
        starred = table.faces(k).holding(STAR)
        for _, d, i in external:
            if d != k or not starred[i]:
                raise SubcomplexError(f"external partner {table.faces(d)[i]!r} is not "
                                      "a k-half-cube", k, table.faces(d)[i])
            for j in flat[offsets[i]:offsets[i + 1]] if leaks else ():
                if below[j] > k:
                    raise SupportLeak(f"facet {table.faces(k - 1)[j]!r} of external "
                                      f"{table.faces(k)[i]!r} left the subcomplex",
                                      k, table.faces(k)[i])
        out[k] = SubcomplexSpec(table, k, table.faces(k - 1).take(u[2] for u in unmatched),
                                table.faces(k).take(e[2] for e in external))
    return out


def build_subcomplex(n: int, k: int, table: FaceTable,
                     matching: MorseMatching) -> SubcomplexSpec:
    """Build the subcomplex for 3 <= k < n, restrict the matching, and
    validate: facet closure, unmatched cells concentrated in dimension
    k-1, and every external partner a k-dimensional half-cube cell whose
    facets all remain inside.  `table` must be `matching.table`."""
    _check_range(n, k, table, matching)
    return _restrict(matching, range(k, k + 1))[k]


def build_family(matching: MorseMatching) -> dict[int, SubcomplexSpec]:
    """`build_subcomplex` for every 3 <= k < n in one pass, as {k: spec},
    reading the table from the matching; the least k that fails a check
    raises."""
    return _restrict(matching, range(3, matching.table.n))


# one line term of `HomologyBasis.jsonl_lines`, as json.dumps writes it
_TERM = '{"face": "%s", "coeff": %d}'
# translations of boundary signs as bytes, to 1 for a sign other than
# +-1, for +1 and for -1; and 0 <-> 1 on a 0/1 mask
_NOT_UNIT = bytes(v not in (1, 255) for v in range(256))
_PLUS = bytes(v == 1 for v in range(256))
_MINUS = bytes(v == 255 for v in range(256))
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _basis_ids(cells: FaceList) -> array:
    """The positions, ascending, of the half-cube faces among cells with no
    '1' strictly right of their rightmost '*'; only the faces that hold a
    '*' are read as text."""
    starred = list(itertools.compress(range(len(cells)), cells.holding(STAR)))
    return array("i", [j for j, f in zip(starred, cells.take(starred))
                       if PLAIN1 not in f[f.rfind(STAR) + 1:]])


def basis_faces(k: int, table: FaceTable) -> list[str]:
    """The k-dimensional half-cube faces with no '1' strictly right of the
    rightmost '*', in lexicographic order, for 3 <= k < table.n."""
    _check_range(table.n, k, table)
    return table.faces(k).take(_basis_ids(table.faces(k)))


@dataclass
class HomologyBasis:
    """Basis chains in degree k-1: the columns `ids` (ascending) of
    `cx.boundary(k)`; `faces` and `chains` build fresh lists on every read."""

    k: int
    cx: ChainComplex
    ids: array

    @property
    def n(self) -> int:
        return self.cx.table.n

    @property
    def faces(self) -> list[str]:
        return self.cx.table.faces(self.k).take(self.ids)

    @property
    def chains(self) -> list[ChainVector]:
        return list(map(self.cx.boundary(self.k).column_chain, self.ids))

    def jsonl_lines(self) -> Iterator[str]:
        """One JSON line per basis chain, written from the column's slice of
        the boundary arrays: the facet index lists a column's rows
        ascending, and faces hold only '01OI*', so nothing needs sorting or
        escaping."""
        bmat, cells = self.cx.boundary(self.k), self.cx.table.faces(self.k - 1)
        flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
        for f, j in zip(self.faces, self.ids):
            a, b = offsets[j], offsets[j + 1]
            terms = map(_TERM.__mod__, zip(cells.take(flat[a:b]), signs[a:b]))
            yield '{"bface": "%s", "chain": [%s]}' % (f, ", ".join(terms))


def _unit_signs(k: int, bmat: BoundaryMatrix, cells: FaceList) -> bytes:
    """bmat's signs as bytes (+1 is 0x01, -1 is 0xff), checked to be +1 or
    -1: another sign raises SubcomplexError naming k and the first of
    `cells`, bmat's columns, whose column holds it."""
    signs = bmat.signs.tobytes()
    t = signs.translate(_NOT_UNIT).find(1)
    if t >= 0:
        f = cells[bisect_right(bmat.offsets, t) - 1]
        raise SubcomplexError(f"boundary of {f!r} holds the sign {bmat.signs[t]}; "
                              "the cycle check needs every sign +1 or -1", k, f)
    return signs


def homology_basis(n: int, k: int, table: FaceTable,
                   cx: ChainComplex) -> HomologyBasis:
    """The positions of the basis faces (those `basis_faces` lists), each
    boundary chain checked to be a cycle.

    The check reads the arrays of `cx.boundary(k)` and `cx.boundary(k-1)`:
    each (k-2)-face reached from a basis column through one of its facets
    goes into one of two lists, by whether the two signs on that path
    agree, and the column's boundary is a cycle exactly when the two sorted
    lists are equal.  That is exact only while every sign is +1 or -1, so
    both matrices are checked for that first, and a sign outside it raises
    SubcomplexError naming k and the first cell whose column holds it.

    Each chain lies in the subcomplex without a check: the subcomplex
    keeps every cell of dimension below k, so it holds every (k-1)-cell a
    boundary chain can touch.  `table` must be `cx.table`."""
    _check_range(n, k, table, cx)
    bmat, below, cells = cx.boundary(k), cx.boundary(k - 1), table.faces(k)
    _unit_signs(k, bmat, cells)
    signs_below = _unit_signs(k, below, table.faces(k - 1))
    # by the sign s of a facet, the entries below it whose sign is s
    agreeing = (None, signs_below.translate(_PLUS), signs_below.translate(_MINUS))
    flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
    rows_below, offsets_below = below.flat, below.offsets
    ids = _basis_ids(cells)
    for j in ids:
        rows, agree = [], bytearray()
        x, y = offsets[j], offsets[j + 1]
        for i, s in zip(flat[x:y], signs[x:y]):
            a, b = offsets_below[i], offsets_below[i + 1]
            rows += rows_below[a:b]
            agree += agreeing[s][a:b]
        same = sorted(itertools.compress(rows, agree))
        if same != sorted(itertools.compress(rows, agree.translate(_FLIP))):
            raise SubcomplexError(f"boundary of {cells[j]!r} is not a cycle", k, cells[j])
    return HomologyBasis(k, cx, ids)
