"""Subcomplexes of the half cube with the large half-cube cells removed.

For 3 <= k < n, deleting the interiors of every half-cube shaped face of
dimension >= k leaves a subcomplex whose reduced homology is free and
concentrated in degree k-1.  Restricting the complete matching to the
subcomplex leaves unpaired exactly the (k-1)-cells whose original partner
was a deleted k-dimensional half-cube cell; the boundaries of those
external partners are explicit integral homology basis chains, which a
basis reads by position from the boundary matrix.  Two closed forms count
the basis.  The masks read n from `table.n`; the functions given n and a
table beside their owner raise BadRange on a mismatch.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .chains import ChainComplex, ChainVector
from .faces import PLAIN1, STAR, FaceSubset, FaceTable, Kind, classify
from .morse import MorseMatching


# swaps the bytes 0 and 1 of a mask
_NOT = bytes([1, 0]) + bytes(range(2, 256))


class SubcomplexError(Exception):
    pass


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


def subcomplex_faces(k: int, table: FaceTable) -> FaceSubset:
    """Every face of the half cube except the half-cube shaped faces of
    dimension >= k; the empty face is kept.  A face is half-cube shaped
    exactly when it holds a '*'."""
    masks = {}
    for d, cells in table.cells.items():
        if d < k:
            masks[d] = bytearray(b"\x01") * len(cells)
        else:
            masks[d] = bytearray(STAR not in f for f in cells)
    return FaceSubset(table, masks)


@dataclass
class SubcomplexSpec:
    """A deleted-cell subcomplex with its restricted matching.

    `faces` is the retained face set (empty face included); `unmatched`
    the faces whose partner was deleted, left unpaired by the restricted
    matching (all of dimension k-1, one per homology basis chain);
    `external` their original partners, the deleted k-dimensional
    half-cube cells.
    """

    n: int
    k: int
    faces: FaceSubset
    unmatched: list[str]
    external: list[str]


def build_subcomplex(n: int, k: int, table: FaceTable,
                     matching: MorseMatching) -> SubcomplexSpec:
    """Build the subcomplex for 3 <= k < n, restrict the matching, and
    validate: facet closure, unmatched cells concentrated in dimension
    k-1, and every external partner a k-dimensional half-cube cell whose
    facets all remain inside.  `table` must be `matching.table`."""
    _check_range(n, k, table, matching)
    faces_y = subcomplex_faces(k, table)
    # the matching is an involution, so the kept faces whose partner was
    # deleted are the kept partners of the deleted faces; each is held as
    # (text, dimension, position within it), and faces are unique, so the
    # tuples sort as their texts
    unmatched: list[tuple[str, int, int]] = []
    external: list[tuple[str, int, int]] = []
    for d, cells in table.cells.items():
        kept = faces_y.mask(d)
        lo = table.start(d)
        for i in itertools.compress(range(len(kept)), kept.translate(_NOT)):
            g = matching.mate[lo + i]
            dg = table.dim_at(g)
            j = g - table.start(dg)
            if faces_y.mask(dg)[j]:
                unmatched.append((table.faces(dg)[j], dg, j))
                external.append((cells[i], d, i))
    unmatched.sort()
    external.sort()

    gap = faces_y.missing_facet()
    if gap is not None:
        f, g = gap
        raise SubcomplexError(f"not facet-closed: {g!r} missing under {f!r}")
    for f, d, _ in unmatched:
        if d != k - 1:
            raise SubcomplexError(f"unmatched cell {f!r} has dim != {k - 1}")
    below = faces_y.mask(k - 1)
    cells_below = table.faces(k - 1)
    for b, d, i in external:
        kind, dim = classify(b)
        if kind is not Kind.HALFCUBE or dim != k:
            raise SubcomplexError(f"external partner {b!r} is not a k-half-cube")
        flat, offsets = table.facet_index(d)
        for j in flat[offsets[i]:offsets[i + 1]]:
            if not below[j]:
                raise SupportLeak(f"facet {cells_below[j]!r} of external {b!r} "
                                  "left the subcomplex")
    return SubcomplexSpec(n, k, faces_y, [u[0] for u in unmatched],
                          [e[0] for e in external])


def _is_basis_face(f: str) -> bool:
    """A half-cube face with no '1' strictly right of its rightmost '*'."""
    return STAR in f and PLAIN1 not in f[f.rfind(STAR) + 1:]


def basis_faces(k: int, table: FaceTable) -> list[str]:
    """The k-dimensional half-cube faces with no '1' strictly right of the
    rightmost '*', in lexicographic order, for 3 <= k < table.n."""
    _check_range(table.n, k, table)
    return [f for f in table.faces(k) if _is_basis_face(f)]


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
        return list(map(self.cx.table.faces(self.k).__getitem__, self.ids))

    @property
    def chains(self) -> list[ChainVector]:
        return list(map(self.cx.boundary(self.k).column_chain, self.ids))

    def jsonl_lines(self) -> Iterator[str]:
        bmat, cells = self.cx.boundary(self.k), self.cx.table.faces(self.k - 1)
        for f, j in zip(self.faces, self.ids):
            coeffs = bmat.column_chain(j).coeffs
            terms = [{"face": cells[i], "coeff": coeffs[i]} for i in sorted(coeffs)]
            yield json.dumps({"bface": f, "chain": terms})


def homology_basis(n: int, k: int, table: FaceTable,
                   cx: ChainComplex) -> HomologyBasis:
    """The positions of the basis faces (those `basis_faces` lists), each
    boundary chain checked to be a cycle.

    Each chain lies in the subcomplex without a check: the subcomplex
    keeps every cell of dimension below k, so it holds every (k-1)-cell a
    boundary chain can touch.  `table` must be `cx.table`."""
    _check_range(n, k, table, cx)
    bmat, cells = cx.boundary(k), table.faces(k)
    ids = array("i", (j for j, b in enumerate(cells) if _is_basis_face(b)))
    for j in ids:
        if not cx.apply(bmat.column_chain(j)).is_zero():
            raise SubcomplexError(f"boundary of {cells[j]!r} is not a cycle")
    return HomologyBasis(k, cx, ids)
