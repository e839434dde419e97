"""Complete acyclic matching on the half-cube face lattice.

Eleven local rewrite rules pair every face (empty face included) with a
face one dimension away.  Odd-numbered rules move up, even-numbered rules
move down, rule 11 pairs the empty face with the all-zeros vertex; each
odd/even pair of rules is mutually inverse.

`partner_rule` applies them to a face's code (`faces.face_code`, digits
* 0 1 I O = 0..4), so no text is rewritten.  With w[i] = 5**(n-1-i) the
place value of position i, rm the rightmost '1' or 'I' and s the last
star, each rule moves the code by:

* rule 1 (half-cube, a '1' right of the stars): -2 w[rightmost '1']
* rule 2 (half-cube, d >= 4, otherwise): +2 w[s]
* rule 6 (half-cube, d = 3, otherwise): +3 w of the last two stars, and
  +3 or +4 w of the first star for an even or odd count of '1' ('I' or 'O')
* rule 3 (simplex) and rule 7 (edge), rm a '1': +w[rm]
* rule 4 (simplex, d >= 3), rm an 'I': -w[rm]
* rule 5 (triangle, its last two underlines 'I'): -3 w of each 'I' and
  -4 w of an 'O', every underline becoming a star
* rule 8 (triangle, rm an 'I', otherwise): -w[rm]; the edge is already
  canonical, since the underline left rightmost is an 'O'
* rule 9 (vertex, at least two '1'): +2 w[p2] + w[p1] for the last two
  '1's p1 < p2
* rule 10 (edge, rm an 'I'): -w[rm] - 2 w[the 'O']
* rule 11: the empty face (code 0) and the all-'0' vertex

`applicable_rules` evaluates each rule's input condition on its own, for
the exclusivity check.

The matching is acyclic when no layer (k, k+1) of the modified Hasse
digraph has a closed alternating path, that is, when the induced order
on the upward-matched k-cells (e' precedes e when e' is a facet of e's
partner) has no cycle.  One Kahn pass, `_induced_order`, runs once per
level of a matching, on first use, and the matching holds its result
(`MorseMatching.induced_order(k)`): the order as an `array('i')` of
positions, or the cycle as a tuple of faces.  Both callers read that
entry: `verify_acyclic` reports its cycle per layer, and `morse_boundary`
orders its rows and columns by its linear extension and shares the array
as its `up_ids`.  The array, like the facet index, is read-only.  The
reported cycle is the walk from the smallest cell the pass never emits,
each step taking the partner's first unemitted facet; it is the first
cycle a depth-first search from each k-cell in order would meet.

On top of the matching this module builds the per-level restricted
boundary operator between downward-matched (k+1)-cells and upward-matched
k-cells, which is triangular with unit diagonal under that order, and
uses it to solve for chains with a prescribed cycle boundary by exact
back-substitution.  The operator is held by position (`MorseBoundary`):
the cells as positions within their dimension, the rank of every k-cell
in the order, and the columns as (rank, sign) arrays with offsets, read
from the boundary's arrays.  The solver maps a cycle through the ranks
and writes its result by position, so it builds no face string and
looks no face up by its text.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

from .chains import ChainComplex, ChainVector, ColumnView
from .faces import (
    EMPTY,
    STAR,
    UND0,
    UND1,
    PLAIN1,
    FaceTable,
    _weights,
    classify,
    code_face,
    face_code,
    parse_seq,
)


class MorseError(Exception):
    """A failed check of this layer; `face` names the face it stops at,
    or is None."""

    def __init__(self, message: str, face: str | None = None):
        super().__init__(message)
        self.face = face


class InvolutionBroken(MorseError):
    pass


class NotCodimOne(MorseError):
    pass


class Unpaired(MorseError):
    pass


class CyclicPrec(MorseError):
    pass


class NotACycle(MorseError):
    pass


class ResidualNonzero(MorseError):
    pass


# the `mate` entry of a face with no partner (only a planted matching has
# one): neither a position j of a table nor its ~j
UNPAIRED = 0x7FFFFFFF

# rules that move a face up one dimension; their inverses move down
_INVERSE_RULE = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9, 11: 11}


def partner_rule(f: str, code: int, d: int, w: tuple[int, ...]) -> tuple[int, int]:
    """Code of the partner of the d-face f, and the rule (1..11) pairing
    them.

    `code` is f's `face_code` (0 for the empty face, which pairs with the
    all-'0' vertex) and `w` the place values 5**(n-1-i) of its positions.
    Each rule rewrites one to three positions, so it moves the code by a
    fixed delta (digits * 0 1 I O = 0..4); see the module docstring.
    """
    if d >= 3 and STAR in f:  # half-cube shaped
        i, s = f.rfind(PLAIN1), f.rfind(STAR)
        if i > s:
            return code - 2 * w[i], 1
        if d >= 4:
            return code + 2 * w[s], 2
        s0 = f.find(STAR)
        s1 = f.find(STAR, s0 + 1)
        return code + 3 * (w[s1] + w[s]) + (4 if f.count(PLAIN1) & 1 else 3) * w[s0], 6
    if d >= 1:  # simplex shaped; the rightmost '1' or 'I' decides
        i, j = f.rfind(PLAIN1), f.rfind(UND1)
        if i > j:
            return code + w[i], 3 if d >= 2 else 7
        if d == 1:  # the other underline is the edge's rightmost, an 'O'
            return code - w[j] - 2 * w[f.rfind(UND0)], 10
        if d == 2:
            k, o = f.rfind(UND1, 0, j), f.rfind(UND0)
            if k > o:  # the last two underlines are 'I'; an 'O' is the first
                first = 4 * w[o] if o >= 0 else 3 * w[f.rfind(UND1, 0, k)]
                return code - 3 * (w[k] + w[j]) - first, 5
        return code - w[j], 4 if d >= 3 else 8
    if d == 0:
        i = f.rfind(PLAIN1)
        if i < 0:
            return 0, 11
        return code + 2 * w[i] + w[f.rfind(PLAIN1, 0, i)], 9
    return sum(w), 11  # the all-'0' vertex: digit 1 everywhere


def match_face(f: str, n: int | None = None) -> tuple[str, int]:
    """Partner face and rule number (1..11) for any face, empty included:
    `partner_rule` on the face's code, decoded with `code_face`.

    `n` is needed for the empty face and defaults to the sequence length;
    a face that is not valid for n raises FaceError (`parse_seq`).
    """
    if n is None and f == EMPTY:
        raise MorseError("ambient size n required to match the empty face")
    n = len(f) if n is None else n
    code, d = (0, -1) if f == EMPTY else (face_code(parse_seq(f, n)), classify(f).dim)
    p, r = partner_rule(f, code, d, _weights(n))
    return (EMPTY if d == 0 and r == 11 else code_face(p, n)), r


def applicable_rules(f: str, d: int) -> int:
    """The rules whose stated input conditions hold for the d-face f, as
    bits (bit r for rule r), each condition evaluated on its own,
    independently of the dispatch order used in `partner_rule`."""
    if d < 0:
        return 1 << 11
    if d == 0:
        ones = f.count(PLAIN1)
        return (ones >= 2) << 9 | (ones == 0) << 11
    if d >= 3 and STAR in f:
        right_one = f.rfind(PLAIN1) > f.rfind(STAR)
        return (right_one << 1 | (d >= 4 and not right_one) << 2
                | (d == 3 and not right_one) << 6)
    # the rightmost '1' or 'I' is a '1' (one) or an 'I' (und)
    i, j = f.rfind(PLAIN1), f.rfind(UND1)
    one, und = i > j, j > i
    if d == 1:
        return one << 7 | und << 10
    out = one << 3 | (d >= 3 and und) << 4
    if d == 2 and und:
        last_two = f.rfind(UND1, 0, j) > f.rfind(UND0)  # both 'I'
        out |= last_two << 5 | (not last_two) << 8
    return out


class _FaceMap(Mapping):
    """Read-only view of the per-dimension arrays of a matching as a
    mapping from face strings: the faces whose entry is not `missing`, in
    table order; `decode(d, v)` reads the entry v of a d-cell."""

    def __init__(self, table: FaceTable, values: dict, missing: int, decode):
        self._table = table
        self._values = values
        self._missing = missing
        self._decode = decode

    def __getitem__(self, f: str):
        d, i = self._table._located(f)  # KeyError for a non-face
        v = self._values[d][i]
        if v == self._missing:
            raise KeyError(f)
        return self._decode(d, v)

    def __iter__(self) -> Iterator[str]:
        for d, cells in self._table.cells.items():
            yield from itertools.compress(cells, map(self._missing.__ne__, self._values[d]))

    def __len__(self) -> int:
        return sum(len(v) - v.count(self._missing) for v in self._values.values())


class MorseMatching:
    """Pairing of the faces of a table with a per-face rule tag.

    Held per dimension, as the table numbers its faces: `mate[d][i]` is
    j when the partner of the d-cell i is the (d+1)-cell j, ~j when it is
    the (d-1)-cell j, and UNPAIRED when it has none; `rules[d][i]` is its
    rule number, or 0.  `partner` and `rule` read them as mappings from
    face strings.  `up_ids(k)` lists, ascending, the upward-matched
    k-cells, those whose partner is a (k+1)-cell, and `induced_order(k)`
    holds their induced order, made once per level from the arrays as
    they are on first use.
    """

    def __init__(self, table: FaceTable, mate: dict, rules: dict):
        self.table = table
        self.mate = mate
        self.rules = rules
        self._induced: dict[int, array | tuple[str, ...]] = {}
        # the views hold the table, not self: a reference cycle would keep
        # the matching alive past its last use, until a garbage collection
        self.partner = _FaceMap(table, mate, UNPAIRED, lambda d, p: (
            table.faces(d + 1)[p] if p >= 0 else table.faces(d - 1)[~p]))
        self.rule = _FaceMap(table, rules, 0, lambda d, r: r)

    def pair_count(self) -> int:
        return len(self.partner) // 2

    def up_ids(self, k: int) -> list[int]:
        return [i for i, p in enumerate(self.mate.get(k, ())) if 0 <= p < UNPAIRED]

    def induced_order(self, k: int) -> array | tuple[str, ...]:
        """The level-k entry: `_induced_order(self, k)`, run on the first
        read of k and held.  The array is shared with every reader, so it
        must not be written to."""
        entry = self._induced.get(k)
        if entry is None:
            entry = self._induced[k] = _induced_order(self, k)
        return entry

    def jsonl_parts(self) -> Iterator[str]:
        """The JSON lines of a complete matching, one per face in table
        order, as strings to be written end to end, five per line; each
        partner's text is sliced from its dimension's text.  Faces hold
        only '01OI*' or EMPTY, so nothing needs escaping."""
        return itertools.chain.from_iterable(map(self._jsonl_parts, self.table.cells))

    def _jsonl_parts(self, d: int) -> Iterator[str]:
        cells, up, down = self.table.faces(d), self.table.faces(d + 1), self.table.faces(d - 1)
        ut, uw, dt, dw = up.text, up.width, down.text, down.width
        partners = (ut[p * uw:p * uw + uw] if p >= 0 else dt[~p * dw:~p * dw + dw]
                    for p in self.mate[d])
        return itertools.chain.from_iterable(zip(
            itertools.repeat('{"face": "'), cells, itertools.repeat('", "partner": "'),
            partners, map(_RULE_TAILS.__getitem__, self.rules[d])))


# the end of a matching's JSON line after the partner, by rule number
_RULE_TAILS = ['", "rule": %d}\n' % r for r in range(12)]


def validate_matching(mate: dict, rules: dict, table: FaceTable) -> None:
    """Check that the arrays of a matching (see `MorseMatching`) pair
    every face of the table with another face, involutively and with
    mutually inverse rules, and that each pair is a facet incidence.
    Raises Unpaired, InvolutionBroken or NotCodimOne at the first
    violation in table order, naming that face as its `face`.  The checks
    read positions only; a face's text is read for a message alone."""
    for d, cells in table.cells.items():
        flat, offsets = table.facet_index(d + 1)
        # the faces, their count and the `mate` and `rules` entries one
        # dimension up, and down
        up, down = table.faces(d + 1), table.faces(d - 1)
        up = up, len(up), mate.get(d + 1), rules.get(d + 1)
        down = down, len(down), mate.get(d - 1), rules.get(d - 1)
        for i, (p, r) in enumerate(zip(mate[d], rules[d])):
            if p == UNPAIRED:
                raise Unpaired(f"face {cells[i]!r} has no partner", cells[i])
            # the partner's position j, and the entry that points back from it
            if p >= 0:
                j, back, (near, size, near_mate, near_rules) = p, ~i, up
            else:
                j, back, (near, size, near_mate, near_rules) = ~p, i, down
            if j >= size:
                raise InvolutionBroken(f"partner entry {p} of {cells[i]!r} is not a face",
                                       cells[i])
            q = near_mate[j]
            if q == UNPAIRED:
                raise InvolutionBroken(f"partner {near[j]!r} of {cells[i]!r} has no partner",
                                       cells[i])
            if q != back:
                raise InvolutionBroken(f"{cells[i]!r} -> {near[j]!r} -> "
                                       f"{_entry_text(table, d + 1 if p >= 0 else d - 1, q)}",
                                       cells[i])
            if _INVERSE_RULE.get(r) != near_rules[j]:
                raise InvolutionBroken(f"rules {r}/{near_rules[j]} of "
                                       f"{cells[i]!r}/{near[j]!r} are not inverse", cells[i])
            # each pair is met first from its lower face, so checking the
            # incidence from there alone raises at the same face
            if p >= 0 and i not in flat[offsets[j]:offsets[j + 1]]:
                raise NotCodimOne(f"{cells[i]!r} is not a facet of {near[j]!r}", cells[i])


def _entry_text(table: FaceTable, e: int, q: int) -> str:
    """The face the `mate` entry q of an e-cell points to, as its repr, or
    the entry itself when it points to no face."""
    c, k = (e + 1, q) if q >= 0 else (e - 1, ~q)
    return repr(table.faces(c)[k]) if k < len(table.faces(c)) else f"entry {q}"


def build_matching(table: FaceTable) -> MorseMatching:
    """Match every face of the table by `partner_rule` and validate the
    pairing with `validate_matching`.

    The partners of the d-cells are looked up by code among the (d-1)-
    and (d+1)-cells (codes are unique across dimensions but for the empty
    face's 0), in one dict built for that d alone, which maps them to
    their `mate` entries ~j and j."""
    w = _weights(table.n)
    mate: dict[int, array] = {}
    rules: dict[int, array] = {}
    near: dict[int, int] = {}  # emptied for each d, so that two are never held
    for d, cells in table.cells.items():
        near.clear()
        near.update(zip(table.codes(d - 1), itertools.count(-1, -1)))
        near.update(zip(table.codes(d + 1), itertools.count()))
        mate_d = mate[d] = array("i")
        rules_d = rules[d] = array("b")
        for f, code in zip(cells, table.codes(d)):
            p, r = partner_rule(f, code, d, w)
            g = near.get(p)
            if g is None:
                p = match_face(f, table.n)[0]
                raise InvolutionBroken(f"partner {p!r} of {f!r} is not a face", f)
            mate_d.append(g)
            rules_d.append(r)
    validate_matching(mate, rules, table)
    return MorseMatching(table, mate, rules)


def exclusivity_violation(m: MorseMatching) -> tuple[int, int] | None:
    """Dimension and position of the first face, in table order, whose
    rule tag is not the one rule whose input condition holds for it
    (`applicable_rules`), or None when there is none."""
    for d, cells in m.table.cells.items():
        want = [1 << r for r in m.rules[d]]
        got = list(map(applicable_rules, cells, itertools.repeat(d)))
        if got != want:
            return d, next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return None


def _induced_order(m: MorseMatching, k: int) -> array | tuple[str, ...]:
    """The positions of `m.up_ids(k)` in the induced order, or, when the
    order has a cycle, that cycle as face strings.

    e' precedes e whenever e' is a facet of the partner of e; a Kahn pass
    emits the smallest ready cell first.  The cycle is the walk from the
    smallest unemitted k-cell to its partner, then on to the partner's
    first facet, in facet order, that is unemitted and not the cell just
    left, until a cell comes round again.  A depth-first search from each
    k-cell in order meets this cycle first, since it finds none from an
    emitted cell: an emitted cell's predecessors were all emitted before.
    """
    table = m.table
    ups = m.up_ids(k)  # ascending positions, so the smallest index first
    mate = m.mate.get(k, ())
    slot = array("i", [-1]) * len(table.faces(k))  # index in ups of a k-cell
    for t, e in enumerate(ups):
        slot[e] = t
    flat, offsets = table.facet_index(k + 1)
    indeg = [0] * len(ups)
    succ: list[list[int]] = [[] for _ in ups]
    for t, e in enumerate(ups):
        j = mate[e]
        for i in flat[offsets[j]:offsets[j + 1]]:
            u = slot[i]
            if u >= 0 and i != e:  # ups[u] strictly precedes ups[t]
                succ[u].append(t)
                indeg[t] += 1
    ready = [t for t in range(len(ups)) if indeg[t] == 0]  # sorted: a heap
    order = array("i")
    while ready:
        t = heapq.heappop(ready)
        order.append(ups[t])
        for t2 in succ[t]:
            indeg[t2] -= 1
            if indeg[t2] == 0:
                heapq.heappush(ready, t2)
    if len(order) == len(ups):
        return order
    # a cell is unemitted exactly when its in-degree stayed above 0
    e = next(e for t, e in enumerate(ups) if indeg[t])
    path: list[int] = []  # the k-cells of the walk
    seen: dict[int, int] = {}  # k-cell -> its place in path
    while e not in seen:
        seen[e] = len(path)
        path.append(e)
        j = mate[e]
        e = next(i for i in flat[offsets[j]:offsets[j + 1]]
                 if i != e and slot[i] >= 0 and indeg[slot[i]])
    cycle = path[seen[e]:]
    downs = table.faces(k + 1).take(mate[i] for i in cycle)
    return (*itertools.chain(*zip(table.faces(k).take(cycle), downs)), table.faces(k)[e])


def verify_acyclic(m: MorseMatching, table: FaceTable) -> dict:
    """Search every dimension layer of the modified Hasse digraph for a
    directed cycle, by the matching's `induced_order`.  Cycles are
    reported, not raised, each as a list of its own."""
    if table is not m.table:
        raise MorseError("the table given is not the matching's")
    layers = []
    acyclic = True
    for p in range(-1, table.n):
        entry = m.induced_order(p)
        cycle = list(entry) if isinstance(entry, tuple) else None
        if cycle is not None:
            acyclic = False
        layers.append({
            "p": p,
            "nodes": len(table.faces(p)) + len(table.faces(p + 1)),
            # every incidence of the layer is one edge, up or down
            "edges": len(table.facet_index(p + 1)[0]),
            "cycle": cycle,
        })
    return {"n": table.n, "acyclic": acyclic, "layers": layers}


@dataclass
class MorseBoundary:
    """Restricted boundary at level k between the downward-matched
    (k+1)-cells and their upward-matched k-cell partners, held as arrays
    of positions within each dimension.

    `up_ids` lists the upward-matched k-cells in a topological linear
    extension of the induced order (smaller first); it is the matching's
    `induced_order(k)` itself, so it is read-only.  `rank[i]` is the
    place in it of the k-cell i, or -1 when i is not upward-matched, and
    `down_ids[r]` is the partner of `up_ids[r]`.  Column r holds the
    incidences of down_ids[r] against the upward-matched cells, in facet
    order: the ranks rows[t] with the signs signs[t] for t in
    range(offsets[r], offsets[r + 1]).  It is upper triangular with
    diagonal entries +-1.  `ups`, `downs` (face strings) and `cols`
    (dicts rank -> sign) read the arrays, building fresh lists and dicts
    on every read.
    """

    k: int
    table: FaceTable
    up_ids: array
    down_ids: array
    rank: array
    rows: array
    signs: array
    offsets: array

    @property
    def ups(self) -> list[str]:
        return self.table.faces(self.k).take(self.up_ids)

    @property
    def downs(self) -> list[str]:
        return self.table.faces(self.k + 1).take(self.down_ids)

    @property
    def cols(self) -> ColumnView:
        return ColumnView(self.rows, self.signs, self.offsets)

    @property
    def size(self) -> int:
        return len(self.up_ids)

    def is_triangular(self) -> bool:
        """Each column r has its entries in rows <= r, and +-1 in row r."""
        rows, signs = self.rows, self.signs
        for r, (a, b) in enumerate(itertools.pairwise(self.offsets)):
            seg = rows[a:b]
            if r not in seg or max(seg) > r or signs[a + seg.index(r)] not in (1, -1):
                return False
        return True


def morse_boundary(m: MorseMatching, table: FaceTable, k: int,
                   cx: ChainComplex) -> MorseBoundary:
    """Build the level-k restricted boundary with its topological order.

    The upward-matched k-cells are ordered by the matching's
    `induced_order(k)`, whose array is the result's `up_ids`; a cycle in
    that order raises CyclicPrec naming its faces.
    """
    if not (table is m.table is cx.table):
        raise MorseError("the table given is not the matching's and the complex's")
    up_ids = m.induced_order(k)
    if isinstance(up_ids, tuple):
        raise CyclicPrec(f"induced order at level {k} has a cycle through "
                         f"{list(up_ids)}", up_ids[0])
    rank = array("i", [-1]) * len(table.faces(k))  # place in the order of a k-cell
    for r, e in enumerate(up_ids):
        rank[e] = r
    down_ids = array("i", [m.mate[k][e] for e in up_ids])
    bmat = cx.boundary(k + 1)
    flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
    rows: list[int] = []
    vals: list[int] = []
    col_ends = []
    for j in down_ids:
        a, b = offsets[j], offsets[j + 1]
        for i, v in zip(flat[a:b], signs[a:b]):
            r = rank[i]
            if r >= 0:
                rows.append(r)
                vals.append(v)
        col_ends.append(len(rows))
    mb = MorseBoundary(k, table, up_ids, down_ids, rank, array("i", rows),
                       array("b", vals), array("i", [0, *col_ends]))
    if not mb.is_triangular():
        raise MorseError(f"level-{k} restricted boundary is not triangular")
    return mb


def solve_cycle(y: ChainVector, m: MorseMatching, table: FaceTable,
                cx: ChainComplex, mb: MorseBoundary) -> ChainVector:
    """Given a k-cycle y, return the (k+1)-chain supported on the
    downward-matched cells whose boundary is exactly y.

    Solved by back-substitution along the stored topological order of
    mb, the level's `morse_boundary`; all divisions are by +-1 so the
    coefficients stay integral.
    """
    if not (table is m.table is cx.table is mb.table):
        raise MorseError("the table given is not the one the matching, complex and mb hold")
    if not cx.apply(y).is_zero():
        raise NotACycle(f"input chain of dimension {y.dim} has nonzero boundary")
    if mb.k != y.dim:
        raise MorseError(f"level mismatch: solver at {mb.k}, chain at {y.dim}")
    rank, rows, signs, offsets = mb.rank, mb.rows, mb.signs, mb.offsets
    resid = [0] * mb.size
    for i, c in y.coeffs.items():
        r = rank[i]
        if r >= 0:
            resid[r] = c
    coeffs: dict[int, int] = {}
    for j in range(mb.size - 1, -1, -1):
        x = resid[j]
        if x:
            a, b = offsets[j], offsets[j + 1]
            seg = rows[a:b]
            nu = x * signs[a + seg.index(j)]  # the diagonal is +-1: exact division
            coeffs[mb.down_ids[j]] = nu
            for i, v in zip(seg, signs[a:b]):
                resid[i] -= nu * v
    out = ChainVector(y.dim + 1, coeffs)
    if cx.apply(out) != y:
        raise ResidualNonzero("back-substitution did not reproduce the cycle")
    return out
