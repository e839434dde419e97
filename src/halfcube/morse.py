"""Complete acyclic matching on the half-cube face lattice.

Eleven local rewrite rules pair every face (empty face included) with a
face one dimension away.  Odd-numbered rules move up, even-numbered rules
move down, rule 11 pairs the empty face with the all-zeros vertex; each
odd/even pair of rules is mutually inverse.  On top of the matching this
module builds the per-level restricted boundary operator between
downward-matched (k+1)-cells and upward-matched k-cells, which is
triangular with unit diagonal under a topological order of the induced
face-ordering, and uses it to solve for chains with a prescribed cycle
boundary by exact back-substitution.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

from .chains import ChainComplex, ChainVector
from .faces import (
    EMPTY,
    STAR,
    UND0,
    UND1,
    PLAIN0,
    PLAIN1,
    FaceTable,
    Kind,
    canonical_edge,
    classify,
    mask,
)


class MorseError(Exception):
    pass


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


# rules that move a face up one dimension; their inverses move down
_INVERSE_RULE = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7, 9: 10, 10: 9, 11: 11}


def _rightmost_one(f: str) -> int:
    return max(f.rfind(PLAIN1), f.rfind(UND1))


def _one_right_of_mask(f: str) -> bool:
    return PLAIN1 in f[max(mask(f)) + 1:]


def match_face(f: str, n: int | None = None) -> tuple[str, int]:
    """Partner face and rule number (1..11) for any face, empty included.

    `n` is only needed to resolve the partner of the empty face; for other
    faces it is taken from the sequence length.
    """
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
    independently of the dispatch order used in `match_face`."""
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


class _FaceMap(Mapping):
    """Read-only view of a per-position array of a matching as a mapping
    from face strings: the faces whose entry is not `missing`, in table
    order."""

    def __init__(self, table: FaceTable, values: array, missing: int, decode):
        self._table = table
        self._values = values
        self._missing = missing
        self._decode = decode

    def __getitem__(self, f: str):
        if f not in self._table:
            raise KeyError(f)
        v = self._values[self._table.position(f)]
        if v == self._missing:
            raise KeyError(f)
        return self._decode(v)

    def __iter__(self) -> Iterator[str]:
        return itertools.compress(
            self._table, map(self._missing.__ne__, self._values))

    def __len__(self) -> int:
        return len(self._values) - self._values.count(self._missing)


class MorseMatching:
    """Pairing of the faces of a table with a per-face rule tag.

    Held as two arrays over the table order (`FaceTable.position`):
    `mate[g]` is the position of the partner of the face at position g,
    or -1 when it has none, and `rules[g]` its rule number, or 0.
    `partner` and `rule` read them as mappings from face strings.
    `up_ids(k)` lists, ascending, the positions among the k-cells of the
    upward-matched k-cells, those whose partner is a (k+1)-cell; since a
    dimension is sorted, `up_cells(k)` gives their faces in lexicographic
    order.
    """

    def __init__(self, table: FaceTable, mate: array, rules: array):
        self.table = table
        self.mate = mate
        self.rules = rules
        self.partner = _FaceMap(table, mate, -1, table.face)
        self.rule = _FaceMap(table, rules, 0, int)

    @classmethod
    def from_pairs(cls, table: FaceTable, partner: Mapping[str, str],
                   rule: Mapping[str, int] | None = None) -> "MorseMatching":
        """The matching whose arrays hold these face-string pairs as given,
        one direction per entry: neither completed nor checked."""
        mate = array("i", [-1]) * table.size
        rules = array("b", bytes(table.size))
        for f, p in partner.items():
            if p not in table:
                raise InvolutionBroken(f"partner {p!r} of {f!r} is not a face")
            mate[table.position(f)] = table.position(p)
        for f, r in (rule or {}).items():
            rules[table.position(f)] = r
        return cls(table, mate, rules)

    def pair_count(self) -> int:
        return len(self.partner) // 2

    def up_ids(self, k: int) -> list[int]:
        lo, hi = self.table.start(k + 1), self.table.start(k + 2)
        seg = self.mate[self.table.start(k):lo]
        return [i for i, g in enumerate(seg) if lo <= g < hi]

    def up_cells(self, k: int) -> list[str]:
        cells = self.table.faces(k)
        return [cells[i] for i in self.up_ids(k)]

    def jsonl_lines(self) -> Iterator[str]:
        """One JSON line per face of a complete matching, in table order;
        faces hold only '01OI*' or EMPTY, so nothing needs escaping."""
        faces = list(self.table)
        for f, g, r in zip(faces, self.mate, self.rules):
            yield '{"face": "%s", "partner": "%s", "rule": %d}' % (f, faces[g], r)


def validate_matching(mate: array, rules: array, table: FaceTable) -> None:
    """Check that the arrays of a matching (see `MorseMatching`) pair
    every face of the table with another face, involutively and with
    mutually inverse rules, and that each pair is a facet incidence one
    dimension apart.  Raises Unpaired, InvolutionBroken or NotCodimOne at
    the first violation in table order."""
    size = table.size
    face = table.face
    for d in sorted(table.cells):
        lo, up_lo, up_hi = table.start(d), table.start(d + 1), table.start(d + 2)
        down_lo = table.start(d - 1)
        flat, offsets = table.facet_index(d + 1)
        for i, f in enumerate(table.faces(d)):
            g = lo + i
            p = mate[g]
            if p < 0 or p == g:
                raise Unpaired(f"face {f!r} has no partner")
            if p >= size:
                raise InvolutionBroken(f"partner {p} of {f!r} is not a face")
            q = mate[p]
            if q < 0:
                raise InvolutionBroken(f"partner {face(p)!r} of {f!r} has no partner")
            if q != g:
                back = repr(face(q)) if q < size else f"position {q}"
                raise InvolutionBroken(f"{f!r} -> {face(p)!r} -> {back}")
            if _INVERSE_RULE.get(rules[g]) != rules[p]:
                raise InvolutionBroken(f"rules {rules[g]}/{rules[p]} of "
                                       f"{f!r}/{face(p)!r} are not inverse")
            # each pair is met first from its lower face, so checking the
            # incidence from there alone raises at the same face
            if up_lo <= p < up_hi:
                j = p - up_lo
                if i not in flat[offsets[j]:offsets[j + 1]]:
                    raise NotCodimOne(f"{f!r} is not a facet of {face(p)!r}")
            elif not down_lo <= p < lo:
                raise NotCodimOne(f"{f!r} (dim {d}) paired with {face(p)!r} "
                                  f"(dim {table.dim_at(p)})")


def build_matching(table: FaceTable) -> MorseMatching:
    """Match every face of the table and validate the pairing with
    `validate_matching`."""
    n = table.n
    mate = array("i")
    rules = array("b")
    position = table.position
    for f in table:
        p, r = match_face(f, n)
        try:
            mate.append(position(p))
        except KeyError:
            raise InvolutionBroken(f"partner {p!r} of {f!r} is not a face") from None
        rules.append(r)
    validate_matching(mate, rules, table)
    return MorseMatching(table, mate, rules)


def _layer_cycle(m: MorseMatching, table: FaceTable, p: int) -> list[str] | None:
    """A directed cycle of the modified Hasse digraph of the layer (p, p+1),
    or None: matched incidences point up, all other incidences point down.

    Nodes are the p-cells by position, then the (p+1)-cells after them;
    the search starts from each node in that order and follows each
    cell's edges in facet order."""
    cells_p, cells_q = table.faces(p), table.faces(p + 1)
    n_p, n_q = len(cells_p), len(cells_q)
    sq = table.start(p + 1)
    flat, offsets = table.facet_index(p + 1)
    # up[a]: the (p+1)-cell the p-cell a is matched to, when a is one of
    # its facets, else -1
    up = array("i", [-1]) * n_p
    for a, g in enumerate(m.mate[table.start(p):sq]):
        j = g - sq
        if 0 <= j < n_q and a in flat[offsets[j]:offsets[j + 1]]:
            up[a] = j

    def edges(node: int):
        if node < n_p:
            return (n_p + up[node],)
        j = node - n_p
        return [a for a in flat[offsets[j]:offsets[j + 1]] if up[a] != j]

    # 0 unseen, 1 on the path, 2 finished; a p-cell not matched up has no
    # edges, so it starts finished
    state = bytearray(2 if j < 0 else 0 for j in up) + bytes(n_q)
    for start in range(n_p + n_q):
        if state[start]:
            continue
        state[start] = 1
        path = [start]
        stack = [iter(edges(start))]
        while stack:
            for nxt in stack[-1]:
                s = state[nxt]
                if s == 1:
                    cycle = path[path.index(nxt):] + [nxt]
                    return [cells_p[v] if v < n_p else cells_q[v - n_p]
                            for v in cycle]
                if s == 0:
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append(iter(edges(nxt)))
                    break
            else:
                state[path.pop()] = 2
                stack.pop()
    return None


def verify_acyclic(m: MorseMatching, table: FaceTable) -> dict:
    """Search every dimension layer of the modified Hasse digraph for a
    directed cycle.  Cycles are reported, not raised."""
    layers = []
    acyclic = True
    for p in range(-1, table.n):
        cycle = _layer_cycle(m, table, p)
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
    (k+1)-cells and their upward-matched k-cell partners.

    `ups` is a topological linear extension of the induced order on the
    upward-matched cells (smaller first); `downs[i]` is the partner of
    `ups[i]`; column j holds the incidences of downs[j] against `ups`,
    upper triangular with diagonal entries +-1.
    """

    k: int
    ups: list[str]
    downs: list[str]
    cols: list[dict[int, int]]

    @property
    def size(self) -> int:
        return len(self.ups)

    def diagonal(self) -> list[int]:
        return [self.cols[j].get(j, 0) for j in range(self.size)]

    def is_triangular(self) -> bool:
        return all(all(i <= j for i in col) for j, col in enumerate(self.cols)) \
            and all(v in (1, -1) for v in self.diagonal())


def morse_boundary(m: MorseMatching, table: FaceTable, k: int,
                   cx: ChainComplex) -> MorseBoundary:
    """Build the level-k restricted boundary with its topological order.

    The order on upward-matched k-cells is generated by: e' precedes e
    whenever e' lies in the boundary of the partner of e.  A Kahn
    traversal with lexicographic tie-break fixes one linear extension;
    a cycle in the relation raises CyclicPrec.
    """
    ups = m.up_ids(k)  # ascending positions, so lexicographic order
    cells_k, cells_up = table.faces(k), table.faces(k + 1)
    sk, sk1 = table.start(k), table.start(k + 1)
    downs = [m.mate[sk + e] - sk1 for e in ups]
    slot = array("i", [-1]) * len(cells_k)  # index in ups of a k-cell
    for t, e in enumerate(ups):
        slot[e] = t
    flat, offsets = table.facet_index(k + 1)
    indeg = [0] * len(ups)
    succ: list[list[int]] = [[] for _ in ups]
    for t, (e, j) in enumerate(zip(ups, downs)):
        for i in flat[offsets[j]:offsets[j + 1]]:
            u = slot[i]
            if u >= 0 and i != e:  # ups[u] strictly precedes ups[t]
                succ[u].append(t)
                indeg[t] += 1
    # Kahn with lexicographic tie-break: repeatedly emit the smallest
    # source of the "precedes" relation, the one with the smallest index
    ready = [t for t in range(len(ups)) if indeg[t] == 0]  # sorted: a heap
    order: list[int] = []
    while ready:
        t = heapq.heappop(ready)
        order.append(t)
        for t2 in succ[t]:
            indeg[t2] -= 1
            if indeg[t2] == 0:
                heapq.heappush(ready, t2)
    if len(order) != len(ups):
        stuck = [cells_k[e] for t, e in enumerate(ups) if indeg[t] > 0]
        raise CyclicPrec(f"induced order has a cycle through {stuck[:4]}")
    rank = array("i", [-1]) * len(cells_k)  # place in the order of a k-cell
    for r, t in enumerate(order):
        rank[ups[t]] = r
    bmat = cx.boundary(k + 1)
    cols: list[dict[int, int]] = []
    for t in order:
        col: dict[int, int] = {}
        for i, v in bmat.cols[downs[t]].items():
            r = rank[i]
            if r >= 0:
                col[r] = v
        cols.append(col)
    mb = MorseBoundary(k, [cells_k[ups[t]] for t in order],
                       [cells_up[downs[t]] for t in order], cols)
    if not mb.is_triangular():
        raise MorseError(f"level-{k} restricted boundary is not triangular")
    return mb


def solve_cycle(y: ChainVector, m: MorseMatching, table: FaceTable,
                cx: ChainComplex,
                mb: MorseBoundary | None = None) -> ChainVector:
    """Given a k-cycle y, return the (k+1)-chain supported on the
    downward-matched cells whose boundary is exactly y.

    Solved by back-substitution along the stored topological order; all
    divisions are by +-1 so the coefficients stay integral.
    """
    if not cx.apply(y).is_zero():
        raise NotACycle(f"input chain of dimension {y.dim} has nonzero boundary")
    if mb is None:
        mb = morse_boundary(m, table, y.dim, cx)
    elif mb.k != y.dim:
        raise MorseError(f"level mismatch: solver at {mb.k}, chain at {y.dim}")
    cells_k = table.faces(y.dim)
    pos = {e: i for i, e in enumerate(mb.ups)}
    resid = [0] * mb.size
    for idx, c in y.coeffs.items():
        i = pos.get(cells_k[idx])
        if i is not None:
            resid[i] = c
    coeffs: dict[int, int] = {}
    for j in range(mb.size - 1, -1, -1):
        diag = mb.cols[j][j]
        nu = resid[j] * diag  # diag is +-1, so this is exact division
        if nu:
            coeffs[table.index_of(mb.downs[j])] = nu
            for i, v in mb.cols[j].items():
                resid[i] -= nu * v
    out = ChainVector(y.dim + 1, coeffs)
    if cx.apply(out) != y:
        raise ResidualNonzero("back-substitution did not reproduce the cycle")
    return out
