"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from math import comb

import pytest

from halfcube import faces, morse, snf
from halfcube.chains import ChainComplex, ChainVector
from halfcube.faces import Kind, classify
from halfcube.subcomplex import (
    basis_faces,
    betti_binomial,
    betti_power,
    build_subcomplex,
    homology_basis,
    subcomplex_faces,
)
from reference import diagonal, square_defects, total_and_u, vertex_point, vertices_of


def report(num, name, elapsed, budget=None):
    line = f"CRITERION {num:2d} {name}: PASS ({elapsed:.2f}s"
    if budget is not None:
        line += f" / budget {budget:.0f}s"
    print(line + ")")
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_face_census():
    t0 = time.monotonic()
    for n in range(4, 11):
        table = faces.enumerate_faces(n)
        counts = table.counts()
        assert counts[0] == 2 ** (n - 1)
        assert counts[1] == 2 ** (n - 2) * comb(n, 2)
        for k in range(2, n):
            simplex = sum(1 for f in table.faces(k)
                          if classify(f).kind is Kind.SIMPLEX)
            assert simplex == 2 ** (n - 1) * comb(n, k + 1)
        for k in range(3, n + 1):
            halfcube = sum(1 for f in table.faces(k)
                           if classify(f).kind is Kind.HALFCUBE)
            assert halfcube == 2 ** (n - k) * comb(n, k)
        assert counts[-1] == 1
    table4 = faces.enumerate_faces(4)
    assert [len(table4.faces(d)) for d in range(0, 5)] == [8, 24, 32, 16, 1]
    report(1, "face census n=4..10", time.monotonic() - t0, budget=5)


def test_criterion_02_chain_condition():
    t0 = time.monotonic()
    for n in range(4, 10):
        cx = ChainComplex(faces.enumerate_faces(n))
        for d in range(1, n + 1):
            assert not square_defects(cx.boundary(d), cx.boundary(d - 1)), (n, d)
    report(2, "boundary squared vanishes n=4..9", time.monotonic() - t0, budget=60)


def test_criterion_03_perfect_matching():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        m = morse.build_matching(table)  # validates involution and codim 1
        assert all(f in m.partner for f in table)
        for f in table:
            assert m.partner[m.partner[f]] == f
        for d, cells in table.cells.items():
            for f in cells:
                assert morse.applicable_rules(f, d) == 1 << m.rule[f], f
        assert 2 * m.pair_count() == table.size
    report(3, "perfect matching n=4..9", time.monotonic() - t0, budget=60)


def test_criterion_04_acyclicity():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        m = morse.build_matching(table)
        rep = morse.verify_acyclic(m, table)
        assert rep["acyclic"], n
        assert all(layer["cycle"] is None for layer in rep["layers"])
    report(4, "acyclic in every layer n=4..9", time.monotonic() - t0, budget=120)


def test_criterion_05_triangularity_and_solver():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    for n in range(4, 9):
        table = faces.enumerate_faces(n)
        cx = ChainComplex(table)
        m = morse.build_matching(table)
        for k in range(0, n):
            mb = morse.morse_boundary(m, table, k, cx)
            assert mb.is_triangular()
            assert all(v in (1, -1) for v in diagonal(mb))
            cells = table.faces(k + 1)
            for _ in range(100):
                c = ChainVector(k + 1, {
                    rng.randrange(len(cells)): rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 5))})
                y = cx.apply(c)
                f = morse.solve_cycle(y, m, table, cx, mb)
                assert cx.apply(f) == y
    report(5, "triangular solves, 100 cycles per (n,k), n=4..8",
           time.monotonic() - t0)


def test_criterion_06_betti_identity():
    t0 = time.monotonic()
    for n in range(3, 31):
        for k in range(3, n + 1):
            assert betti_binomial(n, k) == betti_power(n, k)
    assert betti_binomial(4, 3) == betti_power(4, 3) == 7
    assert betti_binomial(5, 3) == betti_power(5, 3) == 31
    assert betti_binomial(5, 4) == betti_power(5, 4) == 9
    report(6, "closed forms agree, 3<=k<=n<=30", time.monotonic() - t0)


def test_criterion_07_unmatched_census():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        m = morse.build_matching(table)
        for k in range(3, n):
            spec = build_subcomplex(n, k, table, m)
            assert len(spec.unmatched) == betti_power(n, k), (n, k)
            assert {table.dim_of(f) for f in spec.unmatched} == {k - 1}, (n, k)
    report(7, "restricted matching census n=4..9", time.monotonic() - t0)


def test_criterion_08_oracle_homology():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        cx = ChainComplex(table)
        for k in range(3, n):
            sub = subcomplex_faces(k, table)
            rep = snf.homology_report(sub, cx)
            want = betti_power(n, k)
            for d, b in rep["betti"].items():
                assert b == (want if d == k - 1 else 0), (n, k, d, b)
            assert not rep["torsion"], (n, k)
    report(8, "oracle homology Z^b in degree k-1, n=4..9",
           time.monotonic() - t0, budget=600)


def test_criterion_09_basis_certification():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        cx = ChainComplex(table)
        for k in range(3, n):
            sub = subcomplex_faces(k, table)
            hb = homology_basis(n, k, table, cx)
            assert len(hb.ids) == betti_power(n, k)
            verdict = snf.class_independence(cx.boundary(k), hb.ids, sub, cx)
            assert verdict.ok, (n, k, verdict.detail)
    report(9, "bases independent and generating, n=4..9", time.monotonic() - t0)


def test_criterion_10_contractibility_and_sphere():
    t0 = time.monotonic()
    for n in range(4, 10):
        table = faces.enumerate_faces(n)
        cx = ChainComplex(table)
        rep = snf.homology_report(set(table), cx)
        assert all(b == 0 for b in rep["betti"].values()), n
        assert not rep["torsion"]
    table = faces.enumerate_faces(4)
    bd = {f for f in table if table.dim_of(f) <= 3}
    rep = snf.homology_report(bd, ChainComplex(table))
    assert rep["betti"] == {0: 0, 1: 0, 2: 0, 3: 1}
    assert not rep["torsion"]
    report(10, "full complex contractible n=4..9, boundary is a 3-sphere",
           time.monotonic() - t0)


def test_criterion_11_worked_examples():
    t0 = time.monotonic()
    # sequence/vertex correspondences
    assert faces.parse_seq("1110100", 7) == "1110100"
    assert vertex_point("1110100") == (-1, -1, -1, 1, -1, 1, 1)
    assert classify("O1I01OO") == (Kind.SIMPLEX, 3)
    assert vertices_of("O1I01OO") == {"1110100", "0100100", "0110110", "0110101"}
    assert classify("010**1*010") == (Kind.HALFCUBE, 3)
    assert vertices_of("010**1*010") == {
        "0100011010", "0100110010", "0101010010", "0101111010"}
    assert faces.canonical_edge("O1I0100") == "I1O0100"
    assert faces.canonical_edge("01101II") == "01101OO"
    with pytest.raises(faces.NonCanonicalEdge):
        faces.parse_seq("O1I0100", 7)
    # the five matched pairs with their rule numbers, in both directions
    pairs = [
        ("0**1*10", "0**1**0", 1, 2),
        ("0O1I10O", "0O1II0O", 3, 4),
        ("0I1I10I", "0*1*10*", 5, 6),
        ("01I01O0", "01I0IO0", 7, 8),
        ("1110010", "11I00O0", 9, 10),
    ]
    for a, b, rule_up, rule_down in pairs:
        assert morse.match_face(a, 7) == (b, rule_up)
        assert morse.match_face(b, 7) == (a, rule_down)
    # the statistic example
    assert total_and_u("0I11OI01") == (23, "01110101")
    report(11, "worked examples byte-exact", time.monotonic() - t0)
