"""Source guards: the chain complex and the matching are built by the
caller and passed in, never rebuilt behind its back; a function reads the
face table from the matching or complex it is given; incidence signs come
from the closed-form rule, never from a determinant; code that only the
tests use lives in tests/reference.py, not in the package; a face table
looks face texts up by their codes, holding no map keyed by text; a
homology basis holds positions of boundary columns, not chains; a face is
(dimension, position within it) in every layer, the matching included."""

import ast
import copy
import importlib
import inspect
import re
import tracemalloc
from pathlib import Path

import halfcube

SRC = Path(halfcube.__file__).parent
MODULES = [importlib.import_module(f"halfcube.{p.stem}")
           for p in sorted(SRC.glob("*.py")) if not p.stem.startswith("_")]


def functions(module):
    """Every function and method defined in the module."""
    for _, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield from (f for f in vars(obj).values() if inspect.isfunction(f))


def test_context_arguments_are_required():
    optional = [f"{fn.__module__}.{fn.__qualname__}({name})"
                for module in MODULES for fn in functions(module)
                for name, p in inspect.signature(fn).parameters.items()
                if name in ("cx", "matching") and p.default is None]
    assert optional == []


# `perfbench/pipeline.py` calls these with the table beside its owner;
# each raises its layer's error when the table is not the owner's
TABLE_BESIDE_OWNER = ["halfcube.morse.morse_boundary", "halfcube.morse.solve_cycle",
                      "halfcube.morse.verify_acyclic",
                      "halfcube.subcomplex.build_subcomplex",
                      "halfcube.subcomplex.homology_basis"]


def test_a_basis_holds_positions_not_chains(tables, complexes):
    # each basis chain is a column of the boundary matrix, which owns it;
    # the basis keeps its complex and the positions of its basis faces
    t, cx = tables(7), complexes(7)
    for d in range(2, 7):
        cx.boundary(d)
    tracemalloc.start()
    try:
        bases = [halfcube.homology_basis(7, k, t, cx) for k in range(3, 7)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    copies = [(hb.k, name) for hb in bases for name, v in vars(hb).items()
              if isinstance(v, (dict, list, halfcube.ChainVector))]
    assert copies == []
    assert held < 16_000  # the chains as dicts kept 552 KB


def test_the_table_is_read_from_its_owner():
    beside = sorted(f"{fn.__module__}.{fn.__qualname__}"
                    for module in MODULES for fn in functions(module)
                    if "table" in (params := inspect.signature(fn).parameters)
                    and {"cx", "m", "matching"} & set(params))
    assert beside == TABLE_BESIDE_OWNER
    # the oracle takes the complex alone; only the closure check takes a
    # table, and the face lookup it shares with `restricted_boundary`
    takes_table = [fn.__qualname__ for fn in functions(halfcube.snf)
                   if "table" in inspect.signature(fn).parameters]
    assert takes_table == ["_subset", "check_closed"]


def test_only_the_cli_builds_complexes_and_matchings():
    calls = re.compile(r"(?<!def )\b(ChainComplex|build_matching)\(")
    callers = sorted(p.name for p in SRC.glob("*.py")
                     if calls.search(p.read_text()))
    assert callers == ["cli.py"]


def test_no_determinant_in_the_package():
    holders = [m.__name__ for m in [halfcube, *MODULES] if hasattr(m, "det_sign")]
    mentions = sorted(p.name for p in SRC.glob("*.py")
                      if re.search(r"\bdet_sign\b", p.read_text()))
    assert holders == [] and mentions == []


def test_no_test_only_code_in_the_package():
    # the text parsers `facets` and `vertices_of`, the statistic
    # `total_and_u`, the text-rewriting matcher's helpers and the planted
    # matchings' `from_pairs`/`up_cells` are references for the tests, and
    # so are the planted boundaries' column-dict builders, the text-based
    # `rule_applicability` and the dense-matrix `smith_normal_form`; the
    # oracle computes reduced homology only and dumps no report or boundary
    # matrix, and a Morse boundary's `diagonal` is read by the tests alone
    moved = ("facets", "vertices_of", "total_and_u", "report_json",
             "_rightmost_one", "_one_right_of_mask", "from_pairs", "up_cells",
             "boundary_from_cols", "morse_boundary_with_cols", "column_arrays",
             "incidence", "entry", "smith_normal_form", "rule_applicability",
             "diagonal")
    holders = [f"{m.__name__}.{name}" for m in [halfcube, *MODULES]
               for name in moved if hasattr(m, name)]
    definitions = sorted(p.name for p in SRC.glob("*.py")
                         if re.search(rf"\bdef ({'|'.join(moved)})\(", p.read_text()))
    reduced = [f"{fn.__module__}.{fn.__qualname__}"
               for module in MODULES for fn in functions(module)
               if "reduced" in inspect.signature(fn).parameters]
    assert holders == [] and definitions == [] and reduced == []
    assert not hasattr(halfcube.BoundaryMatrix, "jsonl_lines")
    # single-entry reads by position or face text, for the tests alone
    assert not hasattr(halfcube.BoundaryMatrix, "entry")
    assert not hasattr(halfcube.ChainComplex, "incidence")
    assert not hasattr(halfcube.MorseBoundary, "diagonal")
    assert not any(hasattr(halfcube.MorseMatching, name)
                   for name in ("from_pairs", "up_cells"))
    assert not hasattr(halfcube.faces, "mask")  # FaceSubset.mask(d) stays


def test_one_induced_order_in_morse():
    # verify_acyclic and morse_boundary read the one Kahn pass of
    # `_induced_order`; no second search walks the layer digraph
    assert not hasattr(halfcube.morse, "_layer_cycle")
    text = (SRC / "morse.py").read_text()
    assert text.count("heapq.heappop") == 1
    # the pass is run only by the matching's per-level entry, and its
    # array is shared as `MorseBoundary.up_ids`, not copied
    def passes(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and getattr(c.func, "id", None) == "_induced_order"]

    tree = ast.parse(text)
    entry = next(f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and f.name == "induced_order")
    assert len(passes(tree)) == len(passes(entry)) == 1
    assert not re.search(r"array\(\s*\"i\"\s*,\s*(order|up_ids)\s*\)", text)


def test_the_oracle_does_not_read_the_matching():
    # the SNF oracle and its reduction are an independent check of the
    # 11-rule matching, so snf must not import morse or hold its names
    text = (SRC / "snf.py").read_text()
    assert not re.search(r"^\s*(from|import)\s.*\bmorse\b", text, re.M)
    held = [name for name, v in vars(halfcube.snf).items()
            if getattr(v, "__module__", None) == "halfcube.morse"
            or getattr(v, "__name__", None) == "halfcube.morse"]
    assert held == []


def test_lookups_add_only_codes_to_the_table():
    table = halfcube.enumerate_faces(6)
    before = copy.deepcopy(vars(table))
    every = list(table)
    assert [table._locate(f) for f in every] == [
        (d, i) for d, cells in table.cells.items() for i in range(len(cells))]
    assert all(f in table for f in every)
    after = vars(table)
    assert not hasattr(table, "_position") and not hasattr(halfcube.FaceTable, "_position")
    assert {k: v for k, v in after.items() if k != "_codes"} == {
        k: v for k, v in before.items() if k != "_codes"}
    assert before["_codes"] == {} and sorted(after["_codes"]) == list(range(7))
    # no attribute of the table, nor any value of one, is keyed by face text
    keyed = [k for k, v in after.items() if isinstance(v, dict)
             and any(isinstance(key, str) for key in v)]
    assert keyed == []


def test_one_index_space():
    # a face is (dimension, position within it) in every layer: the table
    # keeps no table-order position, and the matching is held per dimension
    gone = ["start", "position", "dim_at", "face", "_starts"]
    table = halfcube.enumerate_faces(4)
    assert [a for a in gone if hasattr(table, a) or hasattr(halfcube.FaceTable, a)] == []
    callers = sorted(p.name for p in SRC.glob("*.py")
                     if re.search(r"\.(start|position|dim_at)\(", p.read_text()))
    assert callers == []
    m = halfcube.build_matching(table)
    assert list(m.mate) == list(m.rules) == list(table.cells)
    assert [len(m.mate[d]) for d in table.cells] == list(table.counts().values())


def test_guards_see_the_package():
    names = {m.__name__ for m in MODULES}
    assert {"halfcube.chains", "halfcube.morse", "halfcube.snf",
            "halfcube.subcomplex"} <= names
    assert any(fn.__name__ == "morse_boundary" for fn in functions(halfcube.morse))
    assert any("cx" in inspect.signature(fn).parameters
               for fn in functions(halfcube.snf))
