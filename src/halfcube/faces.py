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
import struct
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence, Set
from enum import Enum
from functools import cache
from math import comb
from operator import itemgetter
from typing import Iterator, NamedTuple

EMPTY = "EMPTY"

PLAIN0 = "0"
PLAIN1 = "1"
UND0 = "O"
UND1 = "I"
STAR = "*"

SYMBOLS = PLAIN0 + PLAIN1 + UND0 + UND1 + STAR
UNDERLINED = frozenset((UND0, UND1))


class FaceError(ValueError):
    """Base class for invalid face sequences and face tables; `face`
    names the face a failed check stops at, or is None."""

    def __init__(self, message: str, face: str | None = None):
        super().__init__(message)
        self.face = face


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


class Kind(Enum):
    EMPTY = "empty"
    VERTEX = "vertex"
    EDGE = "edge"
    SIMPLEX = "simplex"
    HALFCUBE = "halfcube"


class FaceKind(NamedTuple):
    kind: Kind
    dim: int


def classify(f: str) -> FaceKind:
    """Kind and dimension of a valid face sequence."""
    if f == EMPTY:
        return FaceKind(Kind.EMPTY, -1)
    m = f.count(STAR)
    if m:
        return FaceKind(Kind.HALFCUBE, m)
    m = f.count(UND0) + f.count(UND1)
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
    if (text.count(PLAIN1) + text.count(UND1)) % 2 != 1:
        raise BadParity(f"underlined face needs odd total 1-count: {text!r}")
    if und == 2 and text.rfind(UND1) > text.rfind(UND0):
        raise NonCanonicalEdge(f"rightmost underlined symbol must be 'O': {text!r}")
    return text


def canonical_edge(f: str) -> str:
    """Canonical encoding of an edge: toggle both underlined digits if the
    rightmost one is 'I'.  Identity on already-canonical edges."""
    return f if f.rfind(UND0) > f.rfind(UND1) else f.translate(_TOGGLED)


_TOGGLED = str.maketrans(UND0 + UND1, UND1 + UND0)


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


# a face's code is its text read in base 5, the digit of each symbol
# following ASCII order (* < 0 < 1 < I < O), so numeric order of the codes
# of one length is the lexicographic order of the texts; the tables act
# on the ASCII bytes of a face, which translate faster than str
_CODE_SYMBOLS = STAR + PLAIN0 + PLAIN1 + UND1 + UND0
_CODE_DIGITS = bytes.maketrans(_CODE_SYMBOLS.encode(), b"01234")
_CODE_BYTES = _CODE_SYMBOLS.encode()
# blanks the plain digits, leaving the marked positions and symbols
_PATTERN = bytes.maketrans(b"01", b"..")
# code change of one symbol: an underline dropped (O -> 0, I -> 1), an
# underlined digit toggled (O -> 1, I -> 0), an underline flipped (O <-> I)
_DROP = {UND0: -3, UND1: -1}
_TOGGLE = -2
_FLIP = {UND0: -1, UND1: 1}


def face_code(f: str) -> int:
    """The face's text read in base 5 with digits * 0 1 I O = 0..4; among
    faces of one length, codes order as the texts do."""
    return int(f.encode().translate(_CODE_DIGITS), 5)


def code_face(code: int, n: int) -> str:
    """The length-n face text with this code."""
    out = []
    for _ in range(n):
        code, r = divmod(code, 5)
        out.append(_CODE_SYMBOLS[r])
    return "".join(reversed(out))


@cache
def _weights(n: int) -> tuple[int, ...]:
    """Place values of the n symbols of a face code, left to right."""
    return tuple(5 ** (n - 1 - i) for i in range(n))


def facet_deltas(f: str) -> tuple[int, ...]:
    """The codes of the facets of f (dimension >= 1) minus the code of f,
    ascending, so in the lexicographic order of the facets' text.  They
    depend only on the marked positions and symbols of f and, for a
    half-cube face, on the parity of its '1' digits."""
    w = _weights(len(f))
    if STAR not in f:
        marked = [(i, c) for i, c in enumerate(f) if c in UNDERLINED]
        if len(marked) > 3:
            # dropping an underline lowers the code, the leftmost one the
            # most, so position order is already ascending
            return tuple([_DROP[c] * w[i] for i, c in marked])
        if len(marked) == 2:  # an edge: a vertex toggles one underlined
            # digit and keeps the other's digit
            (p, a), (q, b) = marked
            out = [_TOGGLE * w[p] + _DROP[b] * w[q], _DROP[a] * w[p] + _TOGGLE * w[q]]
        else:  # a triangle: a facet edge whose rightmost underline is
            # 'I' is flipped to its canonical form
            out = []
            for r, c in marked:
                (s, a), (t, b) = [x for x in marked if x[0] != r]
                x = _DROP[c] * w[r]
                if b == UND1:
                    x += _FLIP[a] * w[s] + _FLIP[b] * w[t]
                out.append(x)
        return tuple(sorted(out))
    # half-cube shaped: the stars written as O/I with odd total 1-count
    # (O is digit 4, I digit 3, * digit 0), then one star fixed to 0 or 1.
    # A simplex facet is 4 * sum(ws) less the place values of its 'I'
    # stars; the sums over the subsets of the stars are built by doubling,
    # split by the parity of the subset's size
    ws = [w[i] for i, c in enumerate(f) if c == STAR]
    sums: tuple[list[int], list[int]] = ([0], [])
    for x in ws:
        even, odd = sums
        sums = even + [s + x for s in odd], odd + [s + x for s in even]
    top = 4 * sum(ws)
    out = [top - s for s in sums[1 - f.count(PLAIN1) % 2]]
    if len(ws) > 3:
        out += [x * c for x in ws for c in (1, 2)]
    return tuple(sorted(out))


def _records(data: bytes, width: int) -> Iterator[bytes]:
    """The width-byte records of data, in order, read by one `struct`
    iterator rather than a slice per record."""
    return map(_FIRST, struct.iter_unpack(f"{width}s", data))


_FIRST = itemgetter(0)


def _width(n: int, d: int) -> int:
    """Symbols per face of dimension d: n, or those of EMPTY for d < 0."""
    return n if d >= 0 else len(EMPTY)


class FaceList(Sequence):
    """The faces of one dimension as a read-only sequence over one text:
    face i is text[i * width:(i + 1) * width].  A slice of it is a tuple,
    and `take(ids)` lists the faces at the positions ids; a loop over
    every face reads `text` itself, or iterates, and does not index."""

    __slots__ = ("text", "width")

    def __init__(self, text: str, width: int):
        self.text = text
        self.width = width

    def __len__(self) -> int:
        return len(self.text) // self.width

    def __getitem__(self, i):
        ids = range(len(self))[i]  # IndexError outside the faces
        return tuple(self.take(ids)) if isinstance(i, slice) else self.take((ids,))[0]

    def __iter__(self) -> Iterator[str]:
        return map(bytes.decode, _records(self.text.encode(), self.width))

    def encoded(self) -> Iterator[bytes]:
        """The faces as ASCII bytes, in order, read from one encoding of
        the text; bytes are made and compared faster than strings."""
        return _records(self.text.encode(), self.width)

    def holding(self, symbol: str) -> bytes:
        """One byte per face, 1 when the face holds `symbol` and 0 when
        not.  The text is read one position at a time: every face's byte
        at that position, as one number, or-ed into the result."""
        table = bytearray(256)
        table[ord(symbol)] = 1
        ones = self.text.encode().translate(table)
        acc, w = 0, self.width
        for p in range(w):
            acc |= int.from_bytes(ones[p::w], "big")
        return acc.to_bytes(len(self), "big")

    def take(self, ids) -> list[str]:
        """The faces at the positions ids (each 0 <= i < len), in order."""
        text, w = self.text, self.width
        return [text[i * w:i * w + w] for i in ids]

    def __eq__(self, other) -> bool:
        if isinstance(other, FaceList):
            return self.text == other.text and self.width == other.width
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class FaceTable:
    """Immutable, deterministic index of every face of the half cube.

    A face is named by (d, i), its dimension and its place there; the
    table order runs by dimension, then lexicographically.  Each dimension
    is one text, its faces end to end at a fixed width (n symbols, or
    EMPTY's), read by `cells[d]` and `faces(d)` as a `FaceList`: no string
    is held per face (24 MB at n=11, against 142 MB).  `codes(d)`, built
    on first use, holds the ascending `face_code`s of the d-cells, so a
    text is looked up (`index_of`, `dim_of`, `in`) by a bisection of the
    codes of the dimension its symbol counts give.  `facet_index(d)` gives
    the facets of every d-cell as positions among the (d-1)-cells, each
    the face's code plus one of its `facet_deltas`, cached per pattern.
    """

    def __init__(self, n: int, texts: dict[int, str]):
        ragged = [d for d, text in texts.items() if len(text) % _width(n, d)]
        if ragged:
            raise FaceError(f"the text of dimension {ragged[0]} is not a whole number of faces")
        self.n = n
        dims = range(min(texts), max(texts) + 1)
        self.cells = {d: FaceList(texts.get(d, ""), _width(n, d)) for d in dims}
        self.size = sum(map(len, self.cells.values()))
        self._facets: dict[int, tuple[array, array]] = {}
        self._codes: dict[int, array] = {}

    def faces(self, d: int) -> FaceList:
        cells = self.cells.get(d)
        return cells if cells is not None else FaceList("", _width(self.n, d))

    def _locate(self, f) -> tuple[int, int] | None:
        """(dimension, index within it) of the face text f, or None when f
        is not a face of the table.  Codes of one length are one-to-one
        with texts over * 0 1 I O, so only an equal code is a match."""
        if f == EMPTY:
            return (-1, 0) if EMPTY in self.faces(-1) else None
        if not isinstance(f, str) or len(f) != self.n:
            return None
        b = f.encode()
        if b.translate(None, _CODE_BYTES):
            return None  # a symbol other than * 0 1 I O
        d = b.count(b"*")
        if not d:  # u >= 2 underlines give dimension u - 1, none a vertex
            u = b.count(b"I") + b.count(b"O")
            d = u - 1 if u > 1 else 0
        codes = self.codes(d)
        c = int(b.translate(_CODE_DIGITS), 5)
        i = bisect_left(codes, c)
        if i < len(codes) and codes[i] == c:
            return d, i
        return None

    def _located(self, f: str) -> tuple[int, int]:
        """As `_locate`, raising KeyError when f is not a face."""
        loc = self._locate(f)
        if loc is None:
            raise KeyError(f)
        return loc

    def index_of(self, f: str) -> int:
        """Position of f among the faces of its dimension."""
        return self._located(f)[1]

    def dim_of(self, f: str) -> int:
        return self._located(f)[0]

    def codes(self, d: int) -> array:
        """`face_code` of each d-cell, in the table order, so ascending,
        and 0 for the empty face, read in base 5 from one translation of
        the dimension's text to digits."""
        out = self._codes.get(d)
        if out is None:
            cells = self.faces(d)
            if d < 0:
                out = array("q", [0] * len(cells))
            else:
                digits = cells.text.encode().translate(_CODE_DIGITS)
                out = array("q", map(int, _records(digits, self.n), itertools.repeat(5)))
            self._codes[d] = out
        return out

    def facet_index(self, d: int) -> tuple[array, array]:
        """Facets of the d-cells as (flat, offsets): those of the i-th
        d-cell are the (d-1)-cell positions flat[offsets[i]:offsets[i+1]],
        in the lexicographic order of the facets' text."""
        idx = self._facets.get(d)
        if idx is None:
            idx = self._facets[d] = self._build_facet_index(d)
        return idx

    def _build_facet_index(self, d: int) -> tuple[array, array]:
        cells = self.faces(d)
        if d < 0:  # the empty face has no facets
            return array("i"), array("i", [0] * (len(cells) + 1))
        if d == 0:  # a vertex has the empty face as its one facet
            if cells and EMPTY not in self.faces(-1):
                raise FaceError(f"facet {EMPTY!r} of {cells[0]!r} is not in the table",
                                cells[0])
            return array("i", bytes(4 * len(cells))), array("i", range(len(cells) + 1))
        below = dict(zip(self.codes(d - 1), itertools.count()))
        n, codes = self.n, self.codes(d)
        # the marked positions and symbols of every face, and the parity of
        # its '1' digits: the digits * 0 1 are 0 1 2 and 5 is odd, so a
        # half-cube face's code is odd exactly when its count of '0', which
        # is n - d less its count of '1', is; a simplex face's facets do
        # not depend on the parity, so its code's serves as well
        patterns = cells.text.encode().translate(_PATTERN)
        caches: tuple[dict, dict] = ({}, {})
        deltas = []
        for a, key, c in zip(itertools.count(0, n), _records(patterns, n), codes):
            cache = caches[(c + n + d) & 1]
            ds = cache.get(key)
            if ds is None:
                ds = cache[key] = facet_deltas(cells.text[a:a + n])
            deltas.append(ds)
        try:
            flat = array("i", map(below.__getitem__,
                                  (c + x for c, ds in zip(codes, deltas) for x in ds)))
        except KeyError:
            for f, c, ds in zip(cells, codes, deltas):
                for x in ds:
                    if c + x not in below:
                        raise FaceError(f"facet {code_face(c + x, n)!r} of {f!r} "
                                        "is not in the table", f) from None
            raise
        offsets = array("i", [0])
        offsets.extend(itertools.accumulate(map(len, deltas)))
        return flat, offsets

    def __contains__(self, f) -> bool:
        return self._locate(f) is not None

    def __iter__(self) -> Iterator[str]:
        return itertools.chain.from_iterable(self.cells.values())

    def counts(self) -> dict[int, int]:
        return {d: len(faces) for d, faces in self.cells.items()}

    def jsonl_parts(self, dims) -> Iterator[str]:
        """The JSON lines ("seq", "dim", "kind") of the faces of dims, three
        strings a line, with no `classify`: a face that holds a star is a
        half-cube face."""
        for d in dims:
            cells = self.faces(d)
            kind = (Kind.EMPTY, Kind.VERTEX, Kind.EDGE)[d + 1] if d < 2 else Kind.SIMPLEX
            tails = (_JSONL_TAIL % (d, kind.value), _JSONL_TAIL % (d, Kind.HALFCUBE.value))
            yield from itertools.chain.from_iterable(zip(
                itertools.repeat('{"seq": "'), cells, map(tails.__getitem__, cells.holding(STAR))))


class FaceSubset(Set):
    """A set of faces of one table, held as one bytearray mask per
    dimension (masks[d][i] is 1 when the i-th d-cell is in the set) and
    iterated in table order; the set operators return plain frozensets."""

    def __init__(self, table: FaceTable, masks: dict[int, bytearray]):
        self.table = table
        self.masks = masks

    @classmethod
    def of(cls, table: FaceTable, faces) -> "FaceSubset":
        """`faces` as a subset of `table`; each must be a face of it, or
        KeyError names the first that is not."""
        if isinstance(faces, FaceSubset) and faces.table is table:
            return faces
        masks = {d: bytearray(len(cells)) for d, cells in table.cells.items()}
        located = table._located
        for f in faces:
            d, i = located(f)
            masks[d][i] = 1
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

    def missing_facet(self) -> tuple[str, str] | None:
        """The first (face, facet) pair, in table order, of a face in the
        set whose facet is not in it; None when there is none."""
        table = self.table
        for d in table.cells:
            below = self.mask(d - 1)
            if 0 not in below:
                continue  # every facet one dimension down is in the set
            kept = self.mask(d)
            flat, offsets = table.facet_index(d)
            held = bytes(map(below.__getitem__, flat))  # per incidence
            t = held.find(0)
            while t >= 0:
                i = bisect_right(offsets, t) - 1
                if kept[i]:
                    return table.faces(d)[i], table.faces(d - 1)[flat[t]]
                t = held.find(0, offsets[i + 1])
        return None

    def __contains__(self, f) -> bool:
        loc = self.table._locate(f)
        return loc is not None and self.masks[loc[0]][loc[1]] == 1

    def __iter__(self) -> Iterator[str]:
        for d, cells in self.table.cells.items():
            yield from itertools.compress(cells, self.mask(d))

    def __len__(self) -> int:
        return sum(m.count(1) for m in self.masks.values())


def filtration_levels(table: FaceTable) -> dict[int, bytearray]:
    """The level of every cell, the least k whose C_{n,k} holds it, one
    bytearray per dimension: C_{n,k} deletes the half-cube shaped faces of
    dimension >= k, so a d-cell with a '*' has level d + 1, the rest 0."""
    return {d: bytearray(cells.holding(STAR)).translate(bytes.maketrans(b"\x01", bytes([d + 1])))
            for d, cells in table.cells.items()}


def at_most(k: int) -> bytes:
    """A translation table taking a level <= k to 1 and the rest to 0."""
    return bytes(v <= k for v in range(256))


def _plain_parts(plain: dict, u: int, p: int) -> tuple:
    """The strings over 0 1 I O one symbol longer than those of `plain`,
    with u underlines and parity p of their '1' and 'I' digits, as
    (symbol, suffixes) parts in ASCII order of the symbol."""
    return ((PLAIN0, plain.get((u, p), [])), (PLAIN1, plain.get((u, 1 - p), [])),
            (UND1, plain.get((u - 1, 1 - p), [])), (UND0, plain.get((u - 1, p), [])))


def _canon_parts(plain: dict, canon: dict, u: int, p: int) -> tuple:
    """As `_plain_parts`, for 1 <= u <= 2 and only the strings whose
    rightmost underline is an 'O': an underline put before a suffix with
    none is the rightmost, so it must be an 'O'."""
    return ((PLAIN0, canon.get((u, p), [])), (PLAIN1, canon.get((u, 1 - p), [])),
            (UND1, canon.get((u - 1, 1 - p), [])),
            (UND0, (canon if u > 1 else plain).get((u - 1, p), [])))


def _star_parts(stars: dict, m: int) -> tuple:
    """As `_plain_parts`, for the strings over * 0 1 with m stars."""
    return ((STAR, stars.get(m - 1, [])), (PLAIN0, stars.get(m, [])),
            (PLAIN1, stars.get(m, [])))


def _prefixed(parts: tuple) -> list[str]:
    """A class below length n - _NESTED as a list, c + s for each suffix s
    of each (c, suffixes) part in turn: sorted parts give a sorted list."""
    out: list[str] = []
    for c, suffixes in parts:
        out += map(c.__add__, suffixes)
    return out


# the last _NESTED lengths keep each class as its (symbol, class) parts; 3
# was the fastest at n=10 and 11 (ROADMAP.md, "Measured and not worth retrying")
_NESTED = 3


def _text(parts: tuple, prefix: str = "") -> str:
    """The strings of a class, each under `prefix`, written end to end: a
    list of suffixes as one block, nested parts by recursion."""
    return "".join(_text(s, prefix + c) if isinstance(s, tuple)
                   else prefix + c + (prefix + c).join(s) for c, s in parts if s)


def _merge(a, b):
    """The sorted union of two classes of one length: nested parts merged
    symbol by symbol, lists under one prefix sorted together."""
    if not a or not b:
        return a or b
    if isinstance(a, list):
        return sorted(a + b)
    merged = dict(a)
    for c, s in b:
        merged[c] = _merge(merged.get(c), s)
    return tuple(sorted(merged.items()))


def enumerate_faces(n: int) -> FaceTable:
    """Enumerate every face of the half cube on n >= 4 coordinates.

    The faces are grown right to left, one symbol at a time, as sorted
    classes of suffixes: over 0 1 I O by (underline count, parity of the
    '1' and 'I' digits), the same with an 'O' as the rightmost of one or
    two underlines, and over * 0 1 by star count.  A symbol put, in ASCII
    order, before each of a sorted class keeps it sorted, so no face is
    deduplicated, canonicalised or sorted.  A class is a list of strings
    below length n - _NESTED and its (symbol, class) parts from there on.
    The classes that are faces (vertices, canonical edges, odd simplex
    faces, half-cube faces) are written into the dimension texts by
    `_text`, those of one dimension merged by `_merge`, and the census is
    checked against the closed form.
    """
    if n < 4:
        raise NTooSmall(f"need n >= 4, got {n}")
    plain, canon, stars = {(0, 0): [""]}, {}, {0: [""]}
    for length in range(1, n):
        grow = _prefixed if length < n - _NESTED else tuple  # tuple keeps the parts
        plain, canon, stars = (
            {(u, p): grow(_plain_parts(plain, u, p)) for u in range(length + 1) for p in (0, 1)},
            {(u, p): grow(_canon_parts(plain, canon, u, p)) for u in (1, 2) for p in (0, 1)},
            {m: grow(_star_parts(stars, m)) for m in range(length + 1)})
    texts = {-1: EMPTY, 0: _text(_plain_parts(plain, 0, 0)),
             1: _text(_canon_parts(plain, canon, 2, 1)), 2: _text(_plain_parts(plain, 3, 1))}
    for d in range(3, n + 1):
        texts[d] = _text(_merge(_plain_parts(plain, d + 1, 1), _star_parts(stars, d)))
    table = FaceTable(n, texts)
    want = expected_counts(n)
    got = table.counts()
    if got != want:
        raise FaceError(f"face census mismatch at n={n}: {got} != {want}")
    return table


# a face's JSON line after its text; faces hold only '01OI*' or EMPTY,
# so nothing needs escaping
_JSONL_TAIL = '", "dim": %d, "kind": "%s"}\n'
