"""Unit tests of the benchmark's span arithmetic and tracer.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import itertools
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def span(name, start, end, parent=-1, leaf=0.0):
    return [name, start, end, parent, leaf]


class UnionLengthTest(unittest.TestCase):
    def test_empty(self):
        self.assertEqual(spans.union_length([]), 0.0)

    def test_disjoint_overlapping_and_nested(self):
        self.assertEqual(spans.union_length([(0, 1), (2, 4)]), 3)
        self.assertEqual(spans.union_length([(0, 3), (2, 5)]), 5)
        self.assertEqual(spans.union_length([(0, 10), (2, 3), (4, 6)]), 10)
        self.assertEqual(spans.union_length([(4, 6), (0, 1), (1, 2)]), 4)

    def test_empty_intervals_ignored(self):
        self.assertEqual(spans.union_length([(3, 3), (5, 4)]), 0.0)


class SelfTimesTest(unittest.TestCase):
    def test_nested(self):
        # a [0,10] > b [2,5] > c [3,4]
        got = spans.self_times([span("a", 0, 10), span("b", 2, 5, 0),
                                span("c", 3, 4, 1)])
        self.assertEqual(got, [7, 2, 1])

    def test_disjoint_siblings(self):
        got = spans.self_times([span("a", 0, 10), span("b", 1, 3, 0),
                                span("c", 4, 6, 0)])
        self.assertEqual(got, [6, 2, 2])

    def test_overlapping_siblings_count_once(self):
        got = spans.self_times([span("a", 0, 10), span("b", 1, 5, 0),
                                span("c", 3, 7, 0)])
        self.assertEqual(got[0], 4)

    def test_child_clipped_to_parent(self):
        got = spans.self_times([span("a", 2, 6), span("b", 0, 3, 0),
                                span("c", 5, 9, 0)])
        self.assertEqual(got[0], 2)

    def test_grandchild_not_subtracted_twice(self):
        # the grandchild lies inside the child, so the parent loses only
        # the child's interval
        got = spans.self_times([span("a", 0, 10), span("b", 1, 9, 0),
                                span("c", 2, 8, 1)])
        self.assertEqual(got, [2, 2, 6])

    def test_leaf_time_is_not_self_time(self):
        got = spans.self_times([span("a", 0, 10, leaf=1.5), span("b", 1, 3, 0)])
        self.assertEqual(got, [6.5, 2])


def fake_layers():
    faces = types.ModuleType("faces")
    faces.facets = lambda f: [f + "a", f + "b"]
    faces.enumerate_faces = lambda n: types.SimpleNamespace(size=n * 10)
    chains = types.ModuleType("chains")

    class ChainComplex:
        def boundary(self, d):
            return d

        def apply(self, c):
            return self.boundary(c) + len(chains.facets(str(c)))

    chains.ChainComplex = ChainComplex
    chains.orientation_frame = lambda f: f
    chains.facets = faces.facets  # as `from .faces import facets` does
    morse = types.ModuleType("morse")

    def build_matching(table):
        return [chains.facets("x") for _ in range(table.size)]

    morse.build_matching = build_matching
    return {"faces": faces, "chains": chains, "morse": morse}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.layers = fake_layers()
        self.orig = {(m, k): v for m, mod in self.layers.items()
                     for k, v in vars(mod).items()}
        self.orig_apply = self.layers["chains"].ChainComplex.apply
        self.tracer = spans.Tracer(clock=itertools.count().__next__)
        self.tracer.install(self.layers, self.layers.values())

    def tearDown(self):
        self.tracer.restore()

    def test_restore_puts_originals_back(self):
        self.tracer.restore()
        for (m, k), v in self.orig.items():
            self.assertIs(vars(self.layers[m])[k], v)
        self.assertIs(self.layers["chains"].ChainComplex.apply, self.orig_apply)

    def test_missing_names_are_skipped(self):
        self.assertIn("chains.det_sign", self.tracer.skipped)
        self.assertIn("snf.homology", self.tracer.skipped)
        self.assertNotIn("faces.facets", self.tracer.skipped)

    def test_imported_names_are_traced(self):
        chains = self.layers["chains"]
        self.assertIs(chains.facets, self.layers["faces"].facets)
        chains.facets("y")
        self.assertEqual(self.tracer.counts["faces.facets"], 1)

    def test_spans_counts_and_results(self):
        layers = self.layers
        table = layers["faces"].enumerate_faces(2)
        layers["morse"].build_matching(table)
        cx = layers["chains"].ChainComplex()
        self.assertEqual(cx.apply(3), 5)
        layers["chains"].orientation_frame("f")
        layers["chains"].orientation_frame("f")
        tr = self.tracer.export()
        names = [s[0] for s in tr["spans"]]
        self.assertEqual(names, ["faces.enumerate_faces", "morse.build_matching",
                                 "chains.ChainComplex.apply"])
        self.assertEqual([s[3] for s in tr["spans"]], [-1, -1, -1])
        self.assertEqual(tr["counts"]["faces.cells"], 20)
        self.assertEqual(tr["counts"]["faces.facets"], 21)
        self.assertEqual(tr["counts"]["chains.ChainComplex.boundary"], 1)
        self.assertEqual(tr["counts"]["chains.orientation_frame"], 2)
        self.assertEqual(tr["framed"], 1)
        # every facets call took one clock tick, all inside build_matching
        # except the one inside apply
        self.assertEqual(tr["leaf_s"]["faces.facets"], 21)
        build = tr["spans"][1]
        self.assertEqual(build[4], 20)
        m = spans.layer_metrics([tr], out_bytes=7)
        self.assertEqual(m["faces.facets_per_cell"], 21 / 20)
        self.assertEqual(m["chains.frames_per_face"], 2)
        self.assertEqual(m["morse.self_s"] + m["faces.self_s"] + m["chains.self_s"],
                         sum(s[2] - s[1] for s in tr["spans"]))
        self.assertEqual(m["cli.out_bytes"], 7)

    def test_nested_spans_link_parents(self):
        layers = self.layers
        calls = []

        def fake_enumerate(n):
            calls.append(n)
            layers["morse"].build_matching(types.SimpleNamespace(size=0))
            return types.SimpleNamespace(size=0)

        # rebind the original so the wrapped span calls into another span
        self.tracer.restore()
        layers["faces"].enumerate_faces = fake_enumerate
        self.tracer = spans.Tracer(clock=itertools.count().__next__)
        self.tracer.install(layers, layers.values())
        layers["faces"].enumerate_faces(1)
        tr = self.tracer.export()
        self.assertEqual([(s[0], s[3]) for s in tr["spans"]],
                         [("faces.enumerate_faces", -1), ("morse.build_matching", 0)])
        self.assertEqual(calls, [1])
        self.assertEqual(self.tracer._stack, [])


if __name__ == "__main__":
    unittest.main()
