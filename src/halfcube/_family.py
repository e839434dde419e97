"""The whole C_{n,k} family of the SNF oracle: `snf.family_homology`.

One reduction of C_{n,3}, then for each k the half-cube cells of higher
level attached to what the reduction of C_{n,k} left, reduced as
C_{n,k+1} by the same engine; the `snf.py` docstring says why this is
exact.  The levels are `faces.filtration_levels`, so no `morse` or
`subcomplex` is read.  `snf` loads this module on first use.
"""

from __future__ import annotations

import itertools
from array import array

from . import snf
from .chains import BoundaryMatrix, ChainComplex
from .faces import FaceSubset, FaceTable, at_most, filtration_levels


class _Attached:
    """What a reduction `red` of C_{n,k} leaves, with the cells of higher
    level attached (`snf.py` docstring), as a complex that `_Reduction`
    reads: `table.faces(d)` and `boundary(d)`.

    `levels` gives each cell of red's complex the least k whose C_{n,k}
    holds it (0 for every k): red reduced the cells of level <= k, and
    those of level k + 1 .. n - 1 are attached.  The d-cells are the cells
    left, with their boundaries restricted to each other, then the
    attached d-cells h, each group in table order, with ∂'h = π(∂h): the
    reduction's chain map π (`red.project`, on h's column read in place)
    on the part of ∂h that red reduced, and the attached facets as they
    are.  π maps onto the cells left, so it is 0 in a degree where none
    is left.  `self.levels` holds the level of each cell here, 0 for the
    cells left."""

    def __init__(self, red: snf._Reduction, levels: dict[int, bytearray], k: int):
        cx, table, left = red.cx, red.cx.table, red.left
        n = table.n
        attach = bytes(k < v < n for v in range(256))
        later = {d: lv.translate(attach) for d, lv in levels.items()}
        cells = {d: left.indices(d) + list(itertools.compress(range(len(m)), m))
                 for d, m in later.items()}
        n_left = {d: left.mask(d).count(1) for d in cells}
        self.bmats = {}
        for d in range(0, max(d for d, c in cells.items() if c) + 1):
            row = dict(zip(cells[d - 1], itertools.count()))
            bmat = cx.boundary(d)
            flat, offsets, signs = bmat.flat, bmat.offsets, bmat.signs
            attached, below = cells[d][n_left[d]:], later[d - 1]
            pi: dict[int, dict[int, int]] = {}  # attached cell -> {row: value}
            if attached and n_left[d - 1]:
                for i, z in red.project(bmat, attached).items():
                    for j, v in z.items():
                        pi.setdefault(j, {})[row[i]] = v
            # rows ascend within each column: π's rows are cells left,
            # which come first, and the facet index lists facets in table
            # order
            flat_d, signs_d = array("i"), []  # signs as ints of any size
            ends = array("i", [0])
            for j, c in enumerate(cells[d]):
                fl, sg = flat[offsets[c]:offsets[c + 1]], signs[offsets[c]:offsets[c + 1]]
                if j < n_left[d]:
                    keep = bytes(map(row.__contains__, fl))
                else:
                    z = pi.get(j - n_left[d], {})
                    flat_d.extend(sorted(z))
                    signs_d.extend(z[i] for i in sorted(z))
                    keep = bytes(map(below.__getitem__, fl))
                flat_d.extend(map(row.__getitem__, itertools.compress(fl, keep)))
                signs_d.extend(itertools.compress(sg, keep))
                ends.append(len(flat_d))
            self.bmats[d] = BoundaryMatrix(d, len(cells[d - 1]), len(cells[d]), flat_d,
                                           ends, signs_d)
        self.table = FaceTable(n, {d: "".join(table.faces(d).take(cs))
                                   for d, cs in cells.items()})
        self.levels = {d: bytearray(n_left[d]) + bytearray(
            itertools.compress(levels[d], later[d])) for d in cells}

    def boundary(self, d: int) -> BoundaryMatrix:
        return self.bmats[d]


def family_homology(cx: ChainComplex) -> dict[int, dict]:
    """`snf.homology_report` of every C_{n,k}, 3 <= k < n, as {k: report}.

    The cells' levels (`faces.filtration_levels`) give each C_{n,k}, and
    every C_{n,k} reports degrees 0 .. n - 1, the top of C_{n,3}, since
    each holds every simplex face.  C_{n,3} is checked closed, which makes
    every C_{n,k} closed, and reduced; then for each k the half-cube cells
    of higher level are attached to what the reduction of C_{n,k} leaves,
    and that with the k-cells among them is reduced as C_{n,k+1}
    (`snf.py` docstring)."""
    table = cx.table
    levels = filtration_levels(table)
    sub = snf.check_closed(FaceSubset(table, {d: lv.translate(at_most(3))
                                              for d, lv in levels.items()}), table)
    top = max(d for d, m in sub.masks.items() if 1 in m)
    reports = {}
    for k in range(3, table.n):
        red = snf._Reduction(sub, cx)
        reports[k] = snf._report(red, top)
        if k + 1 < table.n:
            cx = _Attached(red, levels, k)
            levels = cx.levels
            sub = FaceSubset(cx.table, {d: lv.translate(at_most(k + 1))
                                        for d, lv in levels.items()})
    return reports
