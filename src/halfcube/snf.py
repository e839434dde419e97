"""Integer Smith normal form oracle for cellular homology.

Ground truth for ranks and torsion, independent of the matching machinery:
given any facet-closed face subset it computes reduced homology in degrees
>= 0 from exact Smith normal forms of the restricted boundary matrices,
the map out of the vertices being the augmentation onto the empty face.
The face table is the one the ChainComplex `cx` holds; only `check_closed`
takes a table.  A cell is its position among the cells of its dimension
everywhere.  Elimination is gcd-based over arbitrary-precision integers;
no modular or floating-point shortcuts.  Each pivot is an entry
of smallest |v| in the whole matrix, exactly; ties go to the smallest
Markowitz fill (len(row) - 1) * (len(col) - 1) as of that entry's last
update, then to the smallest (row, col).  Candidates come from a lazily
invalidated heap with one record per value written, so a pivot costs a
few heap operations instead of a scan of every entry.  The pivot order
decides only the work, never the result: invariant factors are unique.

Before any elimination the subset's cells are paired off by two moves
(Kaczynski, Mischaikow & Mrozek, *Computational Homology*, 2004, ch. 3-4;
Mrozek & Batko, *Coreduction homology algorithm*, 2009).  A coreduction
takes a cell b whose one remaining facet a has incidence +-1; a free-face
collapse takes a cell a whose one remaining coface b holds it with
incidence +-1.  Either move removes the pair (a, b), b of dimension d,
and both are exact over the integers.  The unit is alone in its column
(coreduction) or row (collapse) of the d-th map, so unimodular column or
row operations clear the rest of its row or column: SNF(d-th map) is (1)
joined to the SNF of that map without row a and column b.  By ∂∂ = 0,
b's row of the (d+1)-th map is then a combination of the other rows
(coreduction) or zero (collapse), and a's column of the (d-1)-th map is
zero (coreduction) or a combination of the other columns (collapse), so
dropping them changes no invariant factor, and the cells left, with
their boundaries restricted to each other, still form a chain complex.
So for every d, the SNF of the d-th map is one unit per pair with b of
dimension d followed by the SNF of the d-th map restricted to the cells
left.  Entries other than +-1 are never paired, so torsion always
reaches the elimination.  The moves read only the subset's masks, the
boundary arrays and each boundary's coface index, its transpose
(`BoundaryMatrix.cofaces`), never the matching, so the oracle stays
independent of it.  The index is built on a matrix's first use and kept
by it, so every reduction of a complex shares it; per call only each
cell's counts of facets and cofaces in the subset are made.  The pairs
are kept in the order they are made: b's dimension, a's position and
b's, in three arrays.  Every C_{n,k} and full
complex up to n=9 pairs off down to its basis cells, leaving the
elimination empty matrices.

The certificate takes its cycles as columns of a boundary matrix, as a
basis of `subcomplex` holds them, and reads them in place.  Its stack
[B | Z] of the boundary image and the cycles is eliminated on the cells
left too, with the cycles carried through the pairs in the order they
were made (Harker, Mischaikow, Mrozek & Nanda, *Discrete Morse theoretic
algorithms for computing homology of complexes and maps*, FoCM 14,
2014).  For cycles in degree p and a pair (a, b) with ε = <∂b, a> = +-1,
where ∂'b is b's boundary restricted to the cells alive when the pair
was made:

* a of degree p: z becomes z - z_a·ε·∂'b, which has no a coefficient;
* b of degree p: z drops its b coefficient.  After a collapse that
  coefficient is already 0, since a's only coface is b and ∂z = 0.

Together the rules are the chain map of the reduction, a chain
equivalence onto the cells left with their restricted boundaries, so it
induces an isomorphism H_p -> H'_p taking the classes of the cycles z to
those of their images z'.  The stack's rank is rank B_p plus the rank of
the classes, and its torsion is that of Z_p / (B_p + <z>), since the
p-chains modulo the cycles Z_p are free.  With rank B_p = pairs[p+1] +
rank B'_p (above) and Z_p / (B_p + <z>) isomorphic to
Z'_p / (B'_p + <z'>), the stack has rank pairs[p+1] + rank [B' | Z'] and
the torsion of [B' | Z'].

`family_homology` reports every C_{n,k} of the filtration C_{n,3} ⊂
C_{n,4} ⊂ ... ⊂ C_{n,n-1} (`faces.filtration_levels`), where C_{n,k+1}
adds the half-cube k-cells H_k to C_{n,k}, without reducing each from
scratch (Harker, Mischaikow, Mrozek & Nanda, above; Sköldberg, *Morse
theory from an algebraic viewpoint*, Trans. AMS 358, 2006).  C_{n,3} is
reduced once.  Each of its pairs (a, b) is an elimination on a unit entry
in any complex that holds C_{n,3} as a subcomplex.  Made in order in the
whole complex, the eliminations change the columns of C_{n,3} only by
restriction, since within C_{n,3} a collapsed a has no other coface left
and a coreduced b no other facet.  The cells outside C_{n,3} keep their
boundaries among themselves and meet the pairs only through their parts
in C_{n,3}: a coreduction drops b from ∂h, and a collapse whose a lies
under an outside cell h replaces a in ∂h by -ε ∂'b.  Those are the two
rules above, so each outside cell h is attached with ∂'h = π(∂h), π
acting on the part in C_{n,3}, and each C_{n,k} is chain equivalent to
the cells left with H_3 .. H_{k-1} attached; the perturbation series
stops after one term because the homotopy of the reduction stays inside
C_{n,3}.  That complex is a second input to the same engine
(`_family._Attached`): reduced as C_{n,4}, and the same step attaches
the higher half-cube cells to what that leaves, up to C_{n,n-1}.  Each
complex in the chain is a few basis cells and the half-cube cells above
them: at n=10, 22,783 cells for C_{10,4} against the 507,649 of
C_{10,3}.  Ranks and torsion are read off each reduced complex by
`_report`, as for a subset, in every degree of its C_{n,k}, and only
entries the pairs could not take reach the elimination; `homology` is
`homology_report`'s entry in one degree.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import sub

from .chains import BoundaryMatrix, ChainComplex
from .faces import FaceSubset, FaceTable


class OracleError(Exception):
    """A failed check of the oracle; `face` names the face it stops at,
    or is None."""

    def __init__(self, message: str, face: str | None = None):
        super().__init__(message)
        self.face = face


class NotClosed(OracleError):
    pass


class NotCycles(OracleError):
    pass


@dataclass(frozen=True)
class SNFResult:
    """Invariant factors (positive, each dividing the next) and shape."""

    factors: tuple[int, ...]
    n_rows: int
    n_cols: int

    @property
    def rank(self) -> int:
        return len(self.factors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.factors if f > 1)


def _divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """Invariant factors of the diagonal matrix with these nonzero values.
    Units divide everything, so only the other values go through the
    gcd/lcm fix-up."""
    units = sum(1 for v in values if v == 1 or v == -1)
    f = sorted(abs(v) for v in values if v != 1 and v != -1)
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
    return (1,) * units + tuple(f)


def _sparse_snf(n_rows: int, n_cols: int, entries: dict[tuple[int, int], int]) -> SNFResult:
    rows: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {}
    for (r, c), v in entries.items():
        if v:
            if r < 0 or c < 0:
                raise ValueError(f"negative matrix position {(r, c)}")
            rows.setdefault(r, {})[c] = v
            colrows.setdefault(c, set()).add(r)

    # Pivot candidates are heap records: the int (|v|, fill, row, col)
    # packed most significant first, where fill = (len(row) - 1) *
    # (len(col) - 1) is the Markowitz count when the record was made, and
    # is not brought up to date when the entry's row or column grows: a
    # stale fill only changes which of equal |v| goes first.  Every value
    # written gets one, and so does an entry that a moving pivot leaves
    # behind (its record was popped), so every live entry has a record of
    # its current |v|.  Elimination adds no row or column index, so a row
    # holds at most 2**cbits entries, a column 2**(pbits - cbits), and a
    # fill stays below 2**pbits.  A record whose entry is gone or holds another
    # |v| is dead and skipped when popped; the heap is refilled from the
    # live entries when it grows past twice their number.
    cbits = max(colrows, default=0).bit_length()
    pbits = max(rows, default=0).bit_length() + cbits
    cmask, pmask = (1 << cbits) - 1, (1 << pbits) - 1
    heap: list[int] = []

    def record(r: int, c: int) -> int:
        row = rows[r]
        fill = (len(row) - 1) * (len(colrows[c]) - 1)
        return (abs(row[c]) << pbits | fill) << pbits | r << cbits | c

    def refill() -> int:
        """One record per live entry; returns the heap size at which to
        refill next."""
        heap.clear()
        heap.extend(record(r, c) for r, row in rows.items() for c in row)
        heapify(heap)
        return 2 * len(heap) + 1024

    limit = refill()

    def row_op(dst: int, src: int, q: int) -> None:
        # row[dst] -= q * row[src]
        drow = rows.setdefault(dst, {})
        written = []
        for c, v in rows[src].items():
            w = drow.get(c, 0) - q * v
            if w:
                if c not in drow:
                    colrows.setdefault(c, set()).add(dst)
                drow[c] = w
                written.append(c)
            elif c in drow:
                del drow[c]
                colrows[c].discard(dst)
        if not drow:
            del rows[dst]
        for c in written:
            heappush(heap, record(dst, c))

    pivots: list[int] = []
    while rows:
        if len(heap) > limit:
            limit = refill()
        # the first live record holds the smallest |v| of the matrix; ties
        # go to the smaller recorded fill, then position
        while True:
            key = heappop(heap)
            r, c = (key & pmask) >> cbits, key & cmask
            if c not in rows.get(r, ()):
                continue  # the entry is gone
            if abs(rows[r][c]) != key >> 2 * pbits:
                continue  # another |v|, which has its own record
            break
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
                    heappush(heap, record(r, c))  # the entry left behind
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
                            heappush(heap, record(r, c2))
                        else:
                            del rows[r][c2]
                            colrows[c2].discard(r)
                rem = sorted(c2 for c2 in rows[r] if c2 != c)
                if rem:
                    heappush(heap, record(r, c))  # the entry left behind
                    c = min(rem, key=lambda cc: (abs(rows[r][cc]), cc))
                    continue
            break
        pivots.append(rows[r][c])
        del rows[r]
        colrows[c].discard(r)
    return SNFResult(_divisibility_chain(pivots), n_rows, n_cols)


def _subset(subset, table: FaceTable) -> FaceSubset:
    """`subset` as a FaceSubset of `table`; a face it lacks is NotClosed."""
    try:
        return FaceSubset.of(table, subset)
    except KeyError as e:
        raise NotClosed(f"{e.args[0]!r} is not a face of the table") from None


def check_closed(subset, table: FaceTable) -> FaceSubset:
    """Validate facet closure of a face subset and return it as a
    FaceSubset; the empty face must be present under any vertex.  A gap
    raises NotClosed naming, as its `face`, the first face in table order
    whose facet is missing."""
    sub = _subset(subset, table)
    if 1 in sub.mask(0) and 1 not in sub.mask(-1):
        raise NotClosed("reduced homology needs the empty face in the subset",
                        table.faces(0)[sub.mask(0).index(1)])
    gap = sub.missing_facet()
    if gap is not None:
        f, g = gap
        raise NotClosed(f"{g!r} missing: facet of {f!r}", f)
    return sub


def restricted_boundary(sub, d: int,
                        cx: ChainComplex) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Boundary matrix of the face set in dimension d with local indices,
    as (n_rows, n_cols, entries); rows and columns follow the order of
    `cx.table`, and incidences onto cells outside the set are left out."""
    sub = _subset(sub, cx.table)
    cols = sub.indices(d)
    row_ids = sub.indices(d - 1)
    if not cols:
        return len(row_ids), 0, {}
    row_pos = dict(zip(row_ids, itertools.count()))
    bmat = cx.boundary(d)
    flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
    entries: dict[tuple[int, int], int] = {}
    for j, c in enumerate(cols):
        a, b = offsets[c], offsets[c + 1]
        for i, v in zip(flat[a:b], signs[a:b]):
            r = row_pos.get(i)
            if r is not None:
                entries[(r, j)] = v
    return len(row_ids), len(cols), entries


# a mask's 0 to 1 and 1 to 0
_OUTSIDE = bytes([1]) + bytes(255)


def _lengths(offsets: array) -> list[int]:
    ends = offsets.tolist()
    return list(map(sub, ends[1:], ends))


def _counts(alive: dict[int, bytearray], bmats: dict[int, BoundaryMatrix]
            ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The counts of facets and of cofaces in the closed subset `alive`
    of its cells, per dimension, given its boundaries: every facet, and
    every coface but the few outside.  The counts of the cells outside
    are never read."""
    top = max(alive)
    n_facets = {d: _lengths(b.offsets) for d, b in bmats.items()}
    n_facets[-1] = [0] * len(alive[-1])
    n_cofaces = {top: [0] * len(alive[top])}
    for d in range(-1, top):
        b = bmats[d + 1]
        n_cofaces[d] = count = _lengths(b.cofaces[1])
        fl, off, out = b.flat, b.offsets, alive[d + 1].translate(_OUTSIDE)
        for c in itertools.compress(range(len(out)), out):
            for f in fl[off[c]:off[c + 1]]:
                count[f] -= 1
    return n_facets, n_cofaces


class _Reduction:
    """A facet-closed subset cut down by coreductions and free-face
    collapses (module docstring).

    `top` is the highest dimension of a cell in the subset (-1 when it
    has none), `left` holds the cells no move paired, as a FaceSubset,
    `pairs[d]` the number of pairs whose upper cell has dimension d, and
    the i-th pair made is the (dims[i] - 1)-cell lower[i] with the
    dims[i]-cell upper[i].  The boundaries and their coface indexes are
    read in place; a call makes only the masks of the cells left and the
    counts of their facets and cofaces left (`_counts`)."""

    def __init__(self, sub: FaceSubset, cx: ChainComplex):
        self.sub, self.cx, table = sub, cx, cx.table
        self.top = top = max((d for d, m in sub.masks.items() if 1 in m),
                             default=-1)
        held = range(-1, top + 1)
        alive = {d: bytearray(sub.mask(d) or len(table.faces(d))) for d in held}
        # the facets of the d-cell i are the (d-1)-cells flat[d][t] with
        # incidences signs[d][t] for offsets[d][i] <= t < offsets[d][i + 1],
        # and its cofaces the (d+1)-cells coflat[d][t] for cooffsets[d][i]
        # <= t < cooffsets[d][i + 1]
        bmats = {d: cx.boundary(d) for d in range(0, top + 1)}
        flat, offsets, signs, coflat, cooffsets = {}, {}, {}, {}, {}
        for d, bmat in bmats.items():
            flat[d], offsets[d], signs[d] = bmat.flat, bmat.offsets, bmat.signs
            coflat[d - 1], cooffsets[d - 1] = bmat.cofaces
        n_facets, n_cofaces = _counts(alive, bmats)

        # seeded from the top cell down and served first in, first out:
        # every C_{n,k} and the full complex then pair off completely up
        # to n=9, while a last-in queue leaves thousands of cells at n=8
        # and a bottom-up seed leaves a few in the full complex at n=7;
        # an entry is the int i << w | d + 1 of the d-cell i, smaller
        # than a tuple
        w = (top + 1).bit_length()
        low = (1 << w) - 1
        queue = deque(i << w | d + 1 for d in reversed(held)
                      for i in reversed(range(len(alive[d]))) if alive[d][i]
                      if n_facets[d][i] == 1 or n_cofaces[d][i] == 1)
        popleft, push = queue.popleft, queue.append
        self.dims, self.lower, self.upper = dims, lower, upper = (
            array("b"), array("i"), array("i"))
        self.pairs = pairs = [0] * (top + 2)
        while queue:
            g = popleft()
            d, g = (g & low) - 1, g >> w
            if not alive[d][g]:
                continue
            coreduce = False
            if n_facets[d][g] == 1:  # coreduction: g's one facet a left
                off, below = offsets[d], alive[d - 1]
                t = off[g]
                for a in flat[d][t:off[g + 1]]:
                    if below[a]:
                        break
                    t += 1
                coreduce = signs[d][t] == 1 or signs[d][t] == -1
            if coreduce:
                b = g
            else:  # g is a free face of its one coface b left
                if n_cofaces[d][g] != 1:
                    continue
                above, co = alive[d + 1], cooffsets[d]
                for b in coflat[d][co[g]:co[g + 1]]:
                    if above[b]:
                        break
                t = offsets[d + 1][b]
                t += flat[d + 1][t:offsets[d + 1][b + 1]].index(g)
                if signs[d + 1][t] != 1 and signs[d + 1][t] != -1:
                    continue
                d, a = d + 1, g
            dims.append(d)
            lower.append(a)
            upper.append(b)
            pairs[d] += 1
            alive[d - 1][a] = alive[d][b] = 0
            # each count taken off, and each cell whose count falls to 1
            # queued: a's facets, a's cofaces, b's facets, b's cofaces; after
            # a coreduction b has no facet left, after a collapse a no coface
            for e, x, facets_left, cofaces_left in ((d - 1, a, d > 0, coreduce),
                                                    (d, b, not coreduce, d < top)):
                if facets_left:
                    below, count, off = alive[e - 1], n_cofaces[e - 1], offsets[e]
                    for f in flat[e][off[x]:off[x + 1]]:
                        if below[f]:
                            count[f] -= 1
                            if count[f] == 1:
                                push(f << w | e)
                if cofaces_left:
                    above, count, co = alive[e + 1], n_facets[e + 1], cooffsets[e]
                    for c in coflat[e][co[x]:co[x + 1]]:
                        if above[c]:
                            count[c] -= 1
                            if count[c] == 1:
                                push(c << w | e + 2)
        self.left = FaceSubset(table, {**sub.masks, **alive})

    def snf(self, d: int, extra: dict[int, dict[int, int]] | None = None,
            n_extra: int = 0) -> SNFResult:
        """Smith normal form of the subset's d-th boundary map: one unit
        factor per d-pair, then the factors of what is left of the map.
        With `extra`, the map has n_extra more columns, which are zero off
        the cells left and given there as rows: index of a (d-1)-cell of
        `left` -> {column: value}."""
        n_rows, n_cols, entries = restricted_boundary(self.left, d, self.cx)
        if extra:
            row_pos = dict(zip(self.left.indices(d - 1), itertools.count()))
            for i, row in extra.items():
                r = row_pos[i]
                for j, v in row.items():
                    entries[(r, n_cols + j)] = v
        rest = _sparse_snf(n_rows, n_cols + n_extra, entries)
        pairs = self.pairs[d] if d < len(self.pairs) else 0
        return SNFResult((1,) * pairs + rest.factors, self.sub.mask(d - 1).count(1),
                         self.sub.mask(d).count(1) + n_extra)

    def project(self, cols: BoundaryMatrix, ids) -> dict[int, dict[int, int]]:
        """The chains in the columns `ids` of `cols` (degree cols.d - 1), read
        in place, carried through the pairs in the order they were made
        (module docstring) and restricted to `left`, as rows: index of a
        cell of `left` -> {position in ids: coefficient}.  A row may be empty."""
        degree = cols.d - 1
        # which pairs have their upper, or their lower, cell in this degree
        dims = self.dims.tobytes()
        ups = dims.translate(bytes(d == degree for d in range(256)))
        downs = dims.translate(bytes(d == degree + 1 for d in range(256)))
        # an upper cell only drops its coefficient, so all of them are
        # dropped first and never written
        alive = bytearray(self.sub.mask(degree))
        for u in itertools.compress(self.upper, ups):
            alive[u] = 0
        rows: dict[int, dict[int, int]] = {}
        flat, offsets, signs = cols.flat, cols.offsets, cols.signs
        for j, c in enumerate(ids):
            a, b = offsets[c], offsets[c + 1]
            for i, v in zip(flat[a:b], signs[a:b]):
                if alive[i]:
                    rows.setdefault(i, {})[j] = v
        if degree < self.top:
            bmat = self.cx.boundary(degree + 1)
            flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
        # then each lower cell l, in order: z -= z_l * ε * ∂'u
        for l, u in itertools.compress(zip(self.lower, self.upper), downs):
            alive[l] = 0
            z = rows.pop(l, None)
            if not z:
                continue
            a, b = offsets[u], offsets[u + 1]
            eps = signs[a + flat[a:b].index(l)]
            for f, s in zip(flat[a:b], signs[a:b]):
                if not alive[f]:
                    continue  # l itself, or a cell paired or dropped
                row = rows.setdefault(f, {})
                for j, c in z.items():
                    w = row.get(j, 0) - c * eps * s
                    if w:
                        row[j] = w
                    else:
                        del row[j]
        return rows


def homology(subset, degree: int, cx: ChainComplex) -> dict:
    """Reduced Betti number and torsion coefficients of a facet-closed
    subset in one degree, 0 or more: `homology_report`'s at that degree,
    betti 0 and no torsion above the subset's top."""
    if degree < 0:
        raise OracleError(f"degree must be >= 0, got {degree}")
    report = homology_report(subset, cx)
    return {"degree": degree, "betti": report["betti"].get(degree, 0),
            "torsion": report["torsion"].get(degree, [])}


def _report(red: _Reduction, top: int) -> dict:
    """Per-degree reduced Betti numbers and torsion, in degrees 0..top, of
    the subset `red` reduced: betti = cells - rank of the degree map -
    rank of the next boundary, torsion from the next boundary's invariant
    factors.  Each boundary map is factored once: the map out of degree d
    serves degree d (its kernel) and d-1 (its image)."""
    betti: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    snfs = [red.snf(d) for d in range(0, top + 2)]
    for d in range(0, top + 1):
        betti[d] = red.sub.mask(d).count(1) - snfs[d].rank - snfs[d + 1].rank
        if t := snfs[d + 1].torsion():
            torsion[d] = list(t)
    return {"betti": betti, "torsion": torsion}


def homology_report(subset, cx: ChainComplex) -> dict:
    """Per-degree reduced Betti numbers and torsion for a face subset,
    checked and reduced once."""
    red = _Reduction(check_closed(subset, cx.table), cx)
    return _report(red, red.top)


def family_homology(cx: ChainComplex) -> dict[int, dict]:
    """`homology_report` of every C_{n,k}, 3 <= k < n, as {k: report},
    from one reduction of C_{n,3} and the half-cube cells attached to
    what each reduction leaves (module docstring).  The code is in
    `halfcube._family`, loaded on first use like a layer, so a run that
    asks for no family never loads it."""
    from . import _family

    return _family.family_homology(cx)


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    generating: bool
    detail: dict

    @property
    def ok(self) -> bool:
        return self.independent and self.generating


def class_independence(cols: BoundaryMatrix, ids, subset,
                       cx: ChainComplex) -> IndependenceVerdict:
    """Certify that the homology classes of the chains in the columns `ids`
    of `cols`, of degree cols.d - 1, form a free basis of the subset's
    homology in that degree.  Each column is checked alone, through
    `cx.apply`: NotCycles names the first (degree-1)-face, in table order,
    where its boundary is nonzero, or the cell where it leaves the subset.

    The certificate compares Smith normal forms of the boundary-image
    matrix and of that matrix stacked with the cycle columns: the classes
    are independent when the stack gains full extra rank, and generating
    when the stacked lattice fills the whole cycle kernel (full kernel
    rank, all invariant factors 1).  Every elimination runs on the cells
    the reduction leaves: the stack is the reduced boundary image beside
    the cycles carried through the pairs, plus one unit per pair whose
    upper cell is one degree up (module docstring).
    """
    if not ids:
        raise NotCycles("no cycles given")
    degree = cols.d - 1
    if degree < 0:
        raise NotCycles(f"degree must be >= 0, got {degree}")
    sub = check_closed(subset, cx.table)
    cells, mask = cx.table.faces(degree), sub.mask(degree)
    for ch in map(cols.column_chain, ids):
        if boundary := cx.apply(ch).coeffs:
            f = cx.table.faces(degree - 1)[min(boundary)]
            raise NotCycles(f"a cycle's boundary is nonzero at {f!r}", f)
        for i in ch.coeffs:
            if not mask[i]:
                raise NotCycles(f"cycle leaves the subset at {cells[i]!r}", cells[i])

    red = _Reduction(sub, cx)
    rank_b = red.snf(degree + 1).rank
    kernel_rank = mask.count(1) - red.snf(degree).rank
    snf_stack = red.snf(degree + 1, red.project(cols, ids), len(ids))

    independent = snf_stack.rank == rank_b + len(ids)
    generating = (snf_stack.rank == kernel_rank
                  and not snf_stack.torsion())
    return IndependenceVerdict(independent, generating, {
        "degree": degree,
        "cycles": len(ids),
        "rank_boundaries": rank_b,
        "rank_stacked": snf_stack.rank,
        "kernel_rank": kernel_rank,
        "stacked_torsion": list(snf_stack.torsion()),
    })
