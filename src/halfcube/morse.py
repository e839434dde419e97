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
import json
from dataclasses import dataclass, field
from typing import Iterator

from .chains import ChainComplex, ChainVector
from .faces import (
    EMPTY,
    STAR,
    UND0,
    UND1,
    PLAIN0,
    PLAIN1,
    ONE_SYMBOLS,
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
    for i in range(len(f) - 1, -1, -1):
        if f[i] in ONE_SYMBOLS:
            return i
    return -1


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


@dataclass
class MorseMatching:
    """Involutive pairing of every face with a per-face rule tag.

    `ups[k]` lists the upward-matched k-cells, lexicographically sorted;
    their partners are the downward-matched (k+1)-cells.
    """

    n: int
    partner: dict[str, str]
    rule: dict[str, int]
    ups: dict[int, list[str]] = field(default_factory=dict)

    def pair_count(self) -> int:
        return len(self.partner) // 2

    def up_cells(self, k: int) -> list[str]:
        return self.ups.get(k, [])

    def jsonl_lines(self, table: FaceTable) -> Iterator[str]:
        for d in sorted(table.cells):
            for f in table.faces(d):
                yield json.dumps(
                    {"face": f, "partner": self.partner[f], "rule": self.rule[f]})


def validate_matching(partner: dict[str, str], rule: dict[str, int],
                      table: FaceTable) -> None:
    """Check that `partner` pairs every face of the table with another
    face, involutively and with mutually inverse rules, and that each pair
    is a facet incidence one dimension apart.  Raises Unpaired,
    InvolutionBroken or NotCodimOne at the first violation in table
    order."""
    for d in sorted(table.cells):
        flat, offsets = table.facet_index(d + 1)
        for f in table.faces(d):
            p = partner.get(f)
            if p is None or p == f:
                raise Unpaired(f"face {f!r} has no partner")
            if p not in partner:
                raise InvolutionBroken(f"partner {p!r} of {f!r} is not a face")
            if partner[p] != f:
                raise InvolutionBroken(f"{f!r} -> {p!r} -> {partner[p]!r}")
            if _INVERSE_RULE[rule[f]] != rule[p]:
                raise InvolutionBroken(
                    f"rules {rule[f]}/{rule[p]} of {f!r}/{p!r} are not inverse")
            dp = table.dim_of(p)
            if abs(d - dp) != 1:
                raise NotCodimOne(f"{f!r} (dim {d}) paired with {p!r} (dim {dp})")
            # each pair is met first from its lower face, so checking the
            # incidence from there alone raises at the same face
            if d < dp:
                j = table.index_of(p)
                if table.index_of(f) not in flat[offsets[j]:offsets[j + 1]]:
                    raise NotCodimOne(f"{f!r} is not a facet of {p!r}")


def build_matching(table: FaceTable) -> MorseMatching:
    """Match every face of the table and validate the pairing with
    `validate_matching`."""
    n = table.n
    partner: dict[str, str] = {}
    rule: dict[str, int] = {}
    for f in table:
        p, r = match_face(f, n)
        partner[f] = p
        rule[f] = r
    validate_matching(partner, rule, table)
    ups: dict[int, list[str]] = {}
    for d in sorted(table.cells):
        for f in table.faces(d):
            if table.dim_of(partner[f]) > d:
                ups.setdefault(d, []).append(f)
    for k in ups:
        ups[k].sort()
    return MorseMatching(n, partner, rule, ups)


def _layer_digraph(partner: dict[str, str], table: FaceTable, p: int):
    """Modified Hasse digraph of the layer (p, p+1): matched incidences point
    up, all other incidences point down."""
    edges: dict[str, list[str]] = {}
    cells_p = table.faces(p)
    nodes = list(cells_p) + list(table.faces(p + 1))
    flat, offsets = table.facet_index(p + 1)
    for i, b in enumerate(table.faces(p + 1)):
        down = []
        for j in flat[offsets[i]:offsets[i + 1]]:
            a = cells_p[j]
            if partner.get(a) == b:
                edges.setdefault(a, []).append(b)
            else:
                down.append(a)
        edges[b] = down
    return nodes, edges


def _find_cycle(nodes: list[str], edges: dict[str, list[str]]) -> list[str] | None:
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


def verify_acyclic(m: MorseMatching, table: FaceTable) -> dict:
    """Search every dimension layer of the modified Hasse digraph for a
    directed cycle.  Cycles are reported, not raised."""
    layers = []
    acyclic = True
    for p in range(-1, table.n):
        nodes, edges = _layer_digraph(m.partner, table, p)
        cycle = _find_cycle(nodes, edges)
        if cycle is not None:
            acyclic = False
        layers.append({
            "p": p,
            "nodes": len(nodes),
            "edges": sum(len(v) for v in edges.values()),
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
    prec: dict[str, list[str]]

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
    ups = m.up_cells(k)
    upset = set(ups)
    prec: dict[str, list[str]] = {e: [] for e in ups}
    indeg = {e: 0 for e in ups}
    cells_k = table.faces(k)
    flat, offsets = table.facet_index(k + 1)
    for e in ups:
        j = table.index_of(m.partner[e])
        for i in flat[offsets[j]:offsets[j + 1]]:
            e2 = cells_k[i]
            if e2 != e and e2 in upset:
                prec[e].append(e2)  # e2 strictly precedes e
                indeg[e] += 1
    # Kahn with lexicographic tie-break: repeatedly emit the smallest
    # source of the "precedes" relation
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
        stuck = sorted(e for e in ups if indeg[e] > 0)
        raise CyclicPrec(f"induced order has a cycle through {stuck[:4]}")
    pos = {e: i for i, e in enumerate(order)}
    downs = [m.partner[e] for e in order]
    bmat = cx.boundary(k + 1)
    cols: list[dict[int, int]] = []
    for d in downs:
        col: dict[int, int] = {}
        for i, v in bmat.cols[table.index_of(d)].items():
            e2 = cells_k[i]
            if e2 in upset:
                col[pos[e2]] = v
        cols.append(col)
    mb = MorseBoundary(k, order, downs, cols, prec)
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
