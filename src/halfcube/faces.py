"""Faces of the half cube polytope as 5-symbol coordinate sequences.

The half cube on n coordinates is the convex hull of the 2**(n-1) points of
{+1,-1}**n having an even number of -1 entries.  A coordinate of +1 is
written '0', a coordinate of -1 is written '1'.  Every face is encoded by a
length-n string over the alphabet '0', '1', 'O', 'I', '*' ('O' and 'I' are
the underlined digits 0 and 1):

* vertex          -- digits only, even number of '1'
* simplex face    -- digits plus underlined digits at the mask positions;
                     the total count of '1' and 'I' is odd; a mask of size
                     m >= 2 gives a face of dimension m-1
* half-cube face  -- digits plus '*' at the mask positions (>= 3 stars);
                     a mask of size m gives a face of dimension m

A size-2 mask (an edge) admits two underlined encodings differing by a
double digit toggle; the canonical one has 'O' as its rightmost underlined
symbol.  The empty face is the string "EMPTY" and has dimension -1.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections.abc import Set
from enum import Enum
from math import comb
from typing import Iterator, NamedTuple

EMPTY = "EMPTY"

PLAIN0 = "0"
PLAIN1 = "1"
UND0 = "O"
UND1 = "I"
STAR = "*"

SYMBOLS = PLAIN0 + PLAIN1 + UND0 + UND1 + STAR
ONE_SYMBOLS = frozenset((PLAIN1, UND1))
UNDERLINED = frozenset((UND0, UND1))


class FaceError(ValueError):
    """Base class for invalid face sequences."""


class BadSymbol(FaceError):
    pass


class BadParity(FaceError):
    pass


class NonCanonicalEdge(FaceError):
    pass


class MixedMask(FaceError):
    pass


class TooFewStars(FaceError):
    pass


class NTooSmall(FaceError):
    pass


class NotKType(FaceError):
    pass


class Kind(Enum):
    EMPTY = "empty"
    VERTEX = "vertex"
    EDGE = "edge"
    SIMPLEX = "simplex"
    HALFCUBE = "halfcube"


class FaceKind(NamedTuple):
    kind: Kind
    dim: int


def mask(f: str) -> tuple[int, ...]:
    """0-based positions of the marked (underlined or starred) coordinates."""
    return tuple(i for i, c in enumerate(f) if c in UNDERLINED or c == STAR)


def ones_count(f: str) -> int:
    return sum(1 for c in f if c in ONE_SYMBOLS)


def classify(f: str) -> FaceKind:
    """Kind and dimension of a valid face sequence."""
    if f == EMPTY:
        return FaceKind(Kind.EMPTY, -1)
    if STAR in f:
        m = f.count(STAR)
        return FaceKind(Kind.HALFCUBE, m)
    m = sum(1 for c in f if c in UNDERLINED)
    if m == 0:
        return FaceKind(Kind.VERTEX, 0)
    if m == 2:
        return FaceKind(Kind.EDGE, 1)
    return FaceKind(Kind.SIMPLEX, m - 1)


def parse_seq(text: str, n: int) -> str:
    """Validate a face sequence of ambient size n and return it.

    Rejects unknown symbols, parity violations, non-canonical edge
    encodings, sequences mixing stars with underlines, and star masks of
    size below 3.
    """
    if text == EMPTY:
        return EMPTY
    if len(text) != n:
        raise FaceError(f"expected {n} symbols, got {len(text)}: {text!r}")
    bad = set(text) - set(SYMBOLS)
    if bad:
        raise BadSymbol(f"unknown symbol(s) {sorted(bad)} in {text!r}")
    stars = text.count(STAR)
    und = sum(1 for c in text if c in UNDERLINED)
    if stars and und:
        raise MixedMask(f"sequence mixes '*' with underlined digits: {text!r}")
    if stars:
        if stars < 3:
            raise TooFewStars(f"star mask needs >= 3 positions: {text!r}")
        return text
    if und == 0:
        if text.count(PLAIN1) % 2 != 0:
            raise BadParity(f"vertex needs an even number of '1': {text!r}")
        return text
    if und == 1:
        raise FaceError(f"underline mask needs >= 2 positions: {text!r}")
    if ones_count(text) % 2 != 1:
        raise BadParity(f"underlined face needs odd total 1-count: {text!r}")
    if und == 2:
        rightmost = max(i for i, c in enumerate(text) if c in UNDERLINED)
        if text[rightmost] != UND0:
            raise NonCanonicalEdge(f"rightmost underlined symbol must be 'O': {text!r}")
    return text


def canonical_edge(f: str) -> str:
    """Canonical encoding of an edge: toggle both underlined digits if the
    rightmost one is 'I'.  Identity on already-canonical edges."""
    pos = [i for i, c in enumerate(f) if c in UNDERLINED]
    if f[pos[-1]] == UND0:
        return f
    flip = {UND0: UND1, UND1: UND0}
    out = list(f)
    for i in pos:
        out[i] = flip[out[i]]
    return "".join(out)


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
    t = sum(i + 1 for i, c in enumerate(f) if c in ONE_SYMBOLS)
    return t, f.replace(UND0, PLAIN0).replace(UND1, PLAIN1)


def expected_shape_counts(n: int) -> dict[tuple[Kind, int], int]:
    """Closed-form face census per (kind, dimension), empty face included."""
    out = {
        (Kind.EMPTY, -1): 1,
        (Kind.VERTEX, 0): 2 ** (n - 1),
        (Kind.EDGE, 1): 2 ** (n - 2) * comb(n, 2),
    }
    for k in range(2, n):
        out[(Kind.SIMPLEX, k)] = 2 ** (n - 1) * comb(n, k + 1)
    for k in range(3, n + 1):
        out[(Kind.HALFCUBE, k)] = 2 ** (n - k) * comb(n, k)
    return out


def expected_counts(n: int) -> dict[int, int]:
    """Closed-form face census per dimension, empty face included."""
    out: dict[int, int] = {}
    for (_, d), c in expected_shape_counts(n).items():
        out[d] = out.get(d, 0) + c
    return out


class FaceTable:
    """Immutable, deterministic index of every face of the half cube.

    Faces are stored per dimension in lexicographic order of their text
    form; `index_of` gives the position of a face within its dimension.
    `facet_index(d)` gives the facets of every d-cell as positions among
    the (d-1)-cells; it is built from `facets()` the first time d is asked
    for, and is the only place the package parses facets.
    """

    def __init__(self, n: int, cells: dict[int, list[str]]):
        self.n = n
        self.cells = {d: tuple(faces) for d, faces in sorted(cells.items())}
        self._index: dict[str, int] = {}
        self._dim: dict[str, int] = {}
        for d, faces in self.cells.items():
            for i, f in enumerate(faces):
                self._index[f] = i
                self._dim[f] = d
        self._facets: dict[int, tuple[array, array]] = {}

    def faces(self, d: int) -> tuple[str, ...]:
        return self.cells.get(d, ())

    def index_of(self, f: str) -> int:
        return self._index[f]

    def dim_of(self, f: str) -> int:
        return self._dim[f]

    def facet_index(self, d: int) -> tuple[array, array]:
        """Facets of the d-cells as (flat, offsets): those of the i-th
        d-cell are the (d-1)-cell positions flat[offsets[i]:offsets[i+1]],
        in `facets()` order."""
        idx = self._facets.get(d)
        if idx is None:
            index = self._index
            flat = array("i")
            offsets = array("i", [0])
            for f in self.faces(d):
                if f != EMPTY:
                    try:
                        flat.extend(map(index.__getitem__, facets(f)))
                    except KeyError as e:
                        raise FaceError(f"facet {e.args[0]!r} of {f!r} "
                                        "is not in the table") from None
                offsets.append(len(flat))
            idx = self._facets[d] = (flat, offsets)
        return idx

    def facet_ids(self, f: str) -> array:
        """Positions of the facets of f among the faces one dimension
        down, in `facets()` order."""
        flat, offsets = self.facet_index(self._dim[f])
        i = self._index[f]
        return flat[offsets[i]:offsets[i + 1]]

    def __contains__(self, f: str) -> bool:
        return f in self._index

    def __iter__(self) -> Iterator[str]:
        for d in sorted(self.cells):
            yield from self.cells[d]

    def counts(self) -> dict[int, int]:
        return {d: len(faces) for d, faces in self.cells.items()}

    @property
    def size(self) -> int:
        return len(self._index)


class FaceSubset(Set):
    """A set of faces of one table, held as one bytearray mask per
    dimension: masks[d][i] is 1 when the i-th d-cell belongs to the set.

    Iteration follows the table order: by dimension, then lexicographic.
    The set operators (&, |, -, ^) return plain frozensets.
    """

    def __init__(self, table: FaceTable, masks: dict[int, bytearray]):
        self.table = table
        self.masks = masks

    @classmethod
    def of(cls, table: FaceTable, faces) -> "FaceSubset":
        """`faces` as a subset of `table`; each must be a face of it."""
        if isinstance(faces, FaceSubset) and faces.table is table:
            return faces
        masks = {d: bytearray(len(cells)) for d, cells in table.cells.items()}
        for f in faces:
            masks[table.dim_of(f)][table.index_of(f)] = 1
        return cls(table, masks)

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def mask(self, d: int) -> bytearray:
        return self.masks.get(d, bytearray())

    def indices(self, d: int) -> list[int]:
        """Positions of the d-cells in the set, ascending."""
        m = self.mask(d)
        return list(itertools.compress(range(len(m)), m))

    def missing_facet(self, start: int = 0) -> tuple[str, str] | None:
        """The first (face, facet) pair, in table order from dimension
        `start` up, of a face in the set whose facet is not in it; None
        when there is none."""
        table = self.table
        for d in table.cells:
            below = self.mask(d - 1)
            if d < start or 0 not in below:
                continue  # every facet one dimension down is in the set
            cells, cells_below = table.faces(d), table.faces(d - 1)
            flat, offsets = table.facet_index(d)
            for i in self.indices(d):
                for j in flat[offsets[i]:offsets[i + 1]]:
                    if not below[j]:
                        return cells[i], cells_below[j]
        return None

    def __contains__(self, f) -> bool:
        d = self.table._dim.get(f)
        return d is not None and self.masks[d][self.table._index[f]] == 1

    def __iter__(self) -> Iterator[str]:
        for d, cells in self.table.cells.items():
            yield from itertools.compress(cells, self.mask(d))

    def __len__(self) -> int:
        return sum(m.count(1) for m in self.masks.values())


def enumerate_faces(n: int) -> FaceTable:
    """Enumerate every face of the half cube on n >= 4 coordinates.

    Simplex shaped faces are generated by (odd point, mask) iteration with
    edge canonicalization and dedup; half-cube shaped faces by (fixed
    digits, mask) iteration.  The result is validated against the
    closed-form census.
    """
    if n < 4:
        raise NTooSmall(f"need n >= 4, got {n}")
    cells: dict[int, set[str]] = {-1: {EMPTY}, 0: set(), 1: set()}
    for d in range(2, n + 1):
        cells[d] = set()

    for bits in itertools.product("01", repeat=n):
        if bits.count("1") % 2 == 0:
            cells[0].add("".join(bits))

    odd_points = [
        "".join(bits)
        for bits in itertools.product("01", repeat=n)
        if bits.count("1") % 2 == 1
    ]
    for m in range(2, n + 1):
        for positions in itertools.combinations(range(n), m):
            for v in odd_points:
                seq = list(v)
                for i in positions:
                    seq[i] = UND0 if seq[i] == PLAIN0 else UND1
                f = "".join(seq)
                if m == 2:
                    f = canonical_edge(f)
                cells[m - 1].add(f)

    for m in range(3, n + 1):
        for positions in itertools.combinations(range(n), m):
            free = [i for i in range(n) if i not in positions]
            for bits in itertools.product("01", repeat=len(free)):
                seq = [STAR] * n
                for i, b in zip(free, bits):
                    seq[i] = b
                cells[m].add("".join(seq))

    table = FaceTable(n, {d: sorted(faces) for d, faces in cells.items()})
    want = expected_counts(n)
    got = table.counts()
    if got != want:
        raise FaceError(f"face census mismatch at n={n}: {got} != {want}")
    return table


def face_json(f: str) -> dict:
    kind, d = classify(f)
    return {"seq": f, "dim": d, "kind": kind.value}


def face_jsonl(f: str) -> str:
    return json.dumps(face_json(f))
