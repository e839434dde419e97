"""Outside-in layer tracing for the halfcube benchmark.

The tracer wraps public functions of the halfcube layers by replacing module
attributes (and two `ChainComplex` methods) by name.  Every halfcube module
looks these names up as globals at call time, so the package itself is not
changed.  A name that no longer exists is skipped, so the tracer keeps
working when a later version deletes a helper.

Spans are recorded only at layer boundaries: name, start, end and parent,
kept in memory and exported when the traced op ends.  Hot leaves get
counters and never a span per call; two of them (`facets`,
`rule_applicability`) also accumulate their time.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("faces", "morse", "chains", "subcomplex", "snf", "cli")

# one span per call
SPANS = (
    ("cli", "main"),
    ("cli", "cmd_match"),
    ("cli", "cmd_basis"),
    ("cli", "cmd_betti"),
    ("faces", "enumerate_faces"),
    ("morse", "build_matching"),
    ("morse", "verify_acyclic"),
    ("morse", "morse_counts"),
    ("morse", "morse_boundary"),
    ("morse", "solve_cycle"),
    ("chains", "boundary_matrix"),
    ("chains", "apply_boundary"),
    ("chains", "ChainComplex.apply"),
    ("subcomplex", "subcomplex_faces"),
    ("subcomplex", "build_subcomplex"),
    ("subcomplex", "homology_basis"),
    ("snf", "check_closed"),
    ("snf", "restricted_boundary"),
    ("snf", "homology"),
    ("snf", "class_independence"),
)
# hot leaves: a call count and accumulated time, no span
TIMED_LEAVES = (
    ("faces", "facets"),
    ("morse", "rule_applicability"),
)
# hot leaves: a call count only
COUNTED_LEAVES = (
    ("faces", "vertices_of"),
    ("chains", "orientation_frame"),
    ("chains", "det_sign"),
    ("chains", "int_rank"),
    ("chains", "ChainComplex.boundary"),
)


# span name -> (counter, size of the returned value), added after the span ends
RESULT_SIZES = {
    "faces.enumerate_faces": ("faces.cells", lambda table: table.size),
    "chains.boundary_matrix": ("chains.boundary_nnz", lambda bmat: bmat.nnz()),
    "snf.restricted_boundary": ("snf.matrix_nnz", lambda rb: len(rb[2])),
    "subcomplex.homology_basis": ("subcomplex.basis_chains",
                                  lambda basis: len(basis.chains)),
}


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans, minus the timed-leaf time spent directly
    inside it.

    `spans` is a list of (name, start, end, parent, leaf_s) with `parent`
    the index of the parent span or -1.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, leaf_s) in enumerate(spans):
        covered = union_length(
            (max(a, start), min(b, end)) for a, b in children.get(i, ()))
        out.append(end - start - covered - leaf_s)
    return out


class Tracer:
    """Spans and counters for one traced op.

    `install` rebinds the traced names in every given namespace; `restore`
    puts the originals back.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, leaf_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.framed: set[str] = set()
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        size = RESULT_SIZES.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if size is not None:
                self.counts[size[0]] += size[1](result)
            return result

        return wrapper

    def _timed_leaf(self, name, fn):
        # the timed leaves never call each other, so their times are disjoint
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self.leaf_s[name] += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt

        return wrapper

    def _counted_leaf(self, name, fn):
        counts = self.counts
        if name == "chains.orientation_frame":
            framed = self.framed

            def wrapper(f, *args, **kwargs):
                counts[name] += 1
                framed.add(f)
                return fn(f, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, layers: dict, namespaces) -> None:
        """Wrap every traced name found in `layers` (layer name -> module).

        A module-level function is rebound in every namespace in
        `namespaces` that holds the same object, so names imported with
        `from .x import y` are traced too.
        """
        namespaces = list(namespaces)
        for table, make in ((SPANS, self._span),
                            (TIMED_LEAVES, self._timed_leaf),
                            (COUNTED_LEAVES, self._counted_leaf)):
            for layer, attr in table:
                self._wrap(layers, namespaces, layer, attr, make)

    def _wrap(self, layers, namespaces, layer, attr, make) -> None:
        name = f"{layer}.{attr}"
        owner = layers.get(layer)
        cls_name, _, attr_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            if owner is None or attr_name not in vars(owner):
                self.skipped.append(name)
                return
            orig = vars(owner)[attr_name]
            self._saved.append((owner, attr_name, orig))
            setattr(owner, attr_name, make(name, orig))
            return
        orig = getattr(owner, attr_name, None)
        if orig is None:
            self.skipped.append(name)
            return
        wrapper = make(name, orig)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is orig:
                    self._saved.append((ns, key, orig))
                    setattr(ns, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "leaf_s": dict(self.leaf_s),
            "framed": len(self.framed),
            "skipped": list(self.skipped),
        }


# -- per-layer metrics -----------------------------------------------------

def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_per_cell", "_per_face")):
        return "ratio"
    return "count"


def layer_metrics(traces, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the exported traces of its
    ops (one per process)."""
    span_s: dict[str, float] = defaultdict(float)
    span_n: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    leaf_s: dict[str, float] = defaultdict(float)
    framed = 0
    for tr in traces:
        spans = tr["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            span_s[name] += end - start
            span_n[name] += 1
            self_s[name] += own
        for k, v in tr["counts"].items():
            counts[k] += v
        for k, v in tr["leaf_s"].items():
            leaf_s[k] += v
        framed += tr["framed"]

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(layer):
        return (sum(v for k, v in self_s.items() if _layer_of(k) == layer)
                + sum(v for k, v in leaf_s.items() if _layer_of(k) == layer))

    m = {
        "faces.enumerate_s": span_s["faces.enumerate_faces"],
        "faces.cells": counts["faces.cells"],
        "faces.facets_calls": counts["faces.facets"],
        "faces.facets_s": leaf_s["faces.facets"],
        "faces.facets_per_cell": ratio(counts["faces.facets"], counts["faces.cells"]),
        "faces.vertices_of_calls": counts["faces.vertices_of"],
        "morse.build_matching_s": span_s["morse.build_matching"],
        "morse.rule_applicability_s": leaf_s["morse.rule_applicability"],
        "morse.verify_acyclic_s": span_s["morse.verify_acyclic"],
        "morse.morse_counts_s": span_s["morse.morse_counts"],
        "morse.morse_boundary_s": span_s["morse.morse_boundary"],
        "morse.solve_cycle_s": span_s["morse.solve_cycle"],
        "morse.solve_cycle_calls": span_n["morse.solve_cycle"],
        "chains.boundary_s": span_s["chains.boundary_matrix"],
        "chains.boundary_builds": span_n["chains.boundary_matrix"],
        "chains.boundary_calls": counts["chains.ChainComplex.boundary"],
        "chains.boundary_nnz": counts["chains.boundary_nnz"],
        "chains.apply_s": span_s["chains.ChainComplex.apply"],
        "chains.orientation_frame_calls": counts["chains.orientation_frame"],
        "chains.frames_per_face": ratio(counts["chains.orientation_frame"], framed),
        "chains.det_sign_calls": counts["chains.det_sign"],
        "chains.int_rank_calls": counts["chains.int_rank"],
        "subcomplex.build_subcomplex_s": span_s["subcomplex.build_subcomplex"],
        "subcomplex.subcomplex_faces_s": span_s["subcomplex.subcomplex_faces"],
        "subcomplex.homology_basis_s": span_s["subcomplex.homology_basis"],
        "subcomplex.basis_chains": counts["subcomplex.basis_chains"],
        "snf.homology_s": span_s["snf.homology"],
        "snf.class_independence_s": span_s["snf.class_independence"],
        "snf.check_closed_s": span_s["snf.check_closed"],
        "snf.check_closed_calls": span_n["snf.check_closed"],
        "snf.restricted_boundary_s": span_s["snf.restricted_boundary"],
        "snf.restricted_boundary_calls": span_n["snf.restricted_boundary"],
        "snf.matrix_nnz": counts["snf.matrix_nnz"],
        "snf.elim_self_s": self_s["snf.homology"] + self_s["snf.class_independence"],
        "cli.betti_s": span_s["cli.cmd_betti"],
        "cli.match_s": span_s["cli.cmd_match"],
        "cli.basis_s": span_s["cli.cmd_basis"],
        "cli.self_s": layer_self("cli"),
        "cli.out_bytes": out_bytes,
    }
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m
