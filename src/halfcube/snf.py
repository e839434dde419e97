"""Integer Smith normal form oracle for cellular homology.

Ground truth for ranks and torsion, independent of the matching machinery:
given any facet-closed face subset it computes reduced homology from
exact Smith normal forms of the restricted boundary matrices, the map out
of the vertices being the augmentation onto the empty face.  Elimination
is gcd-based over arbitrary-precision integers; no modular or
floating-point shortcuts.  Each pivot is an entry of smallest
|v| in the whole matrix, exactly; ties go to the smallest Markowitz fill
(len(row) - 1) * (len(col) - 1) as of that entry's last update, then to
the smallest (row, col).  Candidates come from a lazily invalidated heap
with one record per value written, so a pivot costs a few heap operations
instead of a scan of every entry.  The pivot order decides only the work,
never the result: invariant factors are unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .chains import ChainComplex
from .faces import FaceSubset, FaceTable


class OracleError(Exception):
    pass


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


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form of an integer matrix.

    Accepts a dense list of rows or a tuple (n_rows, n_cols, entries) with
    `entries` a {(row, col): value} map.
    """
    if isinstance(matrix, tuple):
        n_rows, n_cols, entries = matrix
        return _sparse_snf(n_rows, n_cols, dict(entries))
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    entries = {(r, c): v
               for r, row in enumerate(matrix) for c, v in enumerate(row) if v}
    return _sparse_snf(n_rows, n_cols, entries)


def check_closed(subset, table: FaceTable) -> FaceSubset:
    """Validate facet closure of a face subset and return it as a
    FaceSubset; the empty face must be present under any vertex."""
    if not (isinstance(subset, FaceSubset) and subset.table is table):
        for f in subset:
            if f not in table:
                raise NotClosed(f"{f!r} is not a face of the table")
    sub = FaceSubset.of(table, subset)
    if 1 in sub.mask(0) and 1 not in sub.mask(-1):
        raise NotClosed("reduced homology needs the empty face in the subset")
    gap = sub.missing_facet()
    if gap is not None:
        f, g = gap
        raise NotClosed(f"{g!r} missing: facet of {f!r}")
    return sub


def restricted_boundary(sub, table: FaceTable, d: int,
                        cx: ChainComplex) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Boundary matrix of the subcomplex in dimension d with local indices,
    as (n_rows, n_cols, entries); rows and columns follow the table
    order."""
    sub = FaceSubset.of(table, sub)
    cols = sub.indices(d)
    if d == 0:
        return 1, len(cols), {(0, j): 1 for j in range(len(cols))}
    row_ids = sub.indices(d - 1)
    if not cols:
        return len(row_ids), 0, {}
    row_pos = {i: r for r, i in enumerate(row_ids)}
    bmat = cx.boundary(d)
    flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
    entries: dict[tuple[int, int], int] = {}
    for j, c in enumerate(cols):
        a, b = offsets[c], offsets[c + 1]
        for i, v in zip(flat[a:b], signs[a:b]):
            entries[(row_pos[i], j)] = v
    return len(row_ids), len(cols), entries


def _degree_homology(sub: FaceSubset, degree: int, snf_d: SNFResult,
                     snf_next: SNFResult) -> dict:
    """betti = cells - rank of the degree map - rank of the next boundary;
    torsion from the next boundary's invariant factors."""
    n_cells = sub.mask(degree).count(1) if degree >= 0 else 0
    return {"degree": degree, "betti": n_cells - snf_d.rank - snf_next.rank,
            "torsion": list(snf_next.torsion())}


def homology(subset, table: FaceTable, degree: int, cx: ChainComplex) -> dict:
    """Reduced Betti number and torsion coefficients of a facet-closed
    subset in one degree."""
    sub = check_closed(subset, table)
    return _degree_homology(
        sub, degree, _sparse_snf(*restricted_boundary(sub, table, degree, cx)),
        _sparse_snf(*restricted_boundary(sub, table, degree + 1, cx)))


def homology_report(subset, table: FaceTable, cx: ChainComplex) -> dict:
    """Per-degree reduced Betti numbers and torsion for a face subset.

    The subset is checked once and each boundary map factored once: the
    map out of degree d serves degree d (its kernel) and d-1 (its image)."""
    sub = check_closed(subset, table)
    top = max((d for d in table.cells if d >= 0 and 1 in sub.mask(d)), default=-1)
    betti: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    snfs = [_sparse_snf(*restricted_boundary(sub, table, d, cx))
            for d in range(0, top + 2)]
    for d in range(0, top + 1):
        h = _degree_homology(sub, d, snfs[d], snfs[d + 1])
        betti[d] = h["betti"]
        if h["torsion"]:
            torsion[d] = h["torsion"]
    return {"betti": betti, "torsion": torsion}


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    generating: bool
    detail: dict

    @property
    def ok(self) -> bool:
        return self.independent and self.generating


def class_independence(cycles, subset, table: FaceTable,
                       cx: ChainComplex) -> IndependenceVerdict:
    """Certify that the homology classes of the given cycles form a free
    basis of the subset's homology in their degree.

    The certificate compares Smith normal forms of the boundary-image
    matrix and of that matrix stacked with the cycle columns: the classes
    are independent when the stack gains full extra rank, and generating
    when the stacked lattice fills the whole cycle kernel (full kernel
    rank, all invariant factors 1).
    """
    if not cycles:
        raise NotCycles("no cycles given")
    degree = cycles[0].dim
    sub = check_closed(subset, table)
    cells = table.faces(degree)
    row_ids = sub.indices(degree) if degree >= 0 else []
    row_pos = {i: r for r, i in enumerate(row_ids)}
    for ch in cycles:
        if ch.dim != degree:
            raise NotCycles("cycles of mixed degree")
        if not cx.apply(ch).is_zero():
            raise NotCycles("input chain has nonzero boundary")
        for i in ch.coeffs:
            if i not in row_pos:
                raise NotCycles(f"cycle leaves the subset at {cells[i]!r}")

    # _sparse_snf does not modify its entries, so the cycle columns are
    # added to the boundary entries in place, and they are dropped before
    # the next elimination
    rb, cb, stacked = restricted_boundary(sub, table, degree + 1, cx)
    rank_b = _sparse_snf(rb, cb, stacked).rank
    for j, ch in enumerate(cycles):
        for i, v in ch.coeffs.items():
            stacked[(row_pos[i], cb + j)] = v
    snf_stack = _sparse_snf(rb, cb + len(cycles), stacked)
    del stacked

    kernel_rank = len(row_ids) - _sparse_snf(
        *restricted_boundary(sub, table, degree, cx)).rank

    independent = snf_stack.rank == rank_b + len(cycles)
    generating = (snf_stack.rank == kernel_rank
                  and not snf_stack.torsion())
    return IndependenceVerdict(independent, generating, {
        "degree": degree,
        "cycles": len(cycles),
        "rank_boundaries": rank_b,
        "rank_stacked": snf_stack.rank,
        "kernel_rank": kernel_rank,
        "stacked_torsion": list(snf_stack.torsion()),
    })
