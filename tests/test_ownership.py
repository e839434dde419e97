"""Source guards: the chain complex and the matching are built by the
caller and passed in, never rebuilt behind its back; a function reads the
face table from the matching or complex it is given; incidence signs come
from the closed-form rule, never from a determinant; code that only the
tests use lives in tests/reference.py, not in the package; a face table
looks face texts up by their codes, holding no map keyed by text; a
homology basis holds positions of boundary columns, not chains; a face is
(dimension, position within it) in every layer, the matching included; a
face table holds one text per dimension and no string per face, and no
loop over the faces indexes a face view; the package reads a basis as
columns of a boundary matrix, never as a list of chains, and a face
table has one constructor, which takes the texts; the C_{n,k} filtration
levels are computed once, in faces, and the oracle reads neither the
matching nor its restriction."""

import ast
import copy
import importlib
import inspect
import re
import tracemalloc
from pathlib import Path

import halfcube
import reference

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


def test_a_basis_is_read_as_columns():
    # no package code reads a basis's `chains` (the benchmark's digests
    # do), and the family oracle projects boundary columns in place, so
    # it builds no ChainVector
    reads = sorted(f"{p.name}:{node.lineno}" for p in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(p.read_text()))
                   if isinstance(node, ast.Attribute) and node.attr == "chains")
    assert reads == []
    assert "ChainVector" not in (SRC / "_family.py").read_text()
    params = list(inspect.signature(halfcube.class_independence).parameters)
    assert params == ["cols", "ids", "subset", "cx"]


def test_a_face_table_has_one_constructor():
    assert not any(hasattr(halfcube.FaceTable, name) for name in ("from_texts", "_hold"))
    assert list(inspect.signature(halfcube.FaceTable).parameters) == ["n", "texts"]


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
    # matrix, a Morse boundary's `diagonal` is read by the tests alone, and
    # `enum` writes its lines through `FaceTable.jsonl_parts`, not per face
    moved = ("facets", "vertices_of", "total_and_u", "report_json",
             "_rightmost_one", "_one_right_of_mask", "from_pairs", "up_cells",
             "boundary_from_cols", "morse_boundary_with_cols", "column_arrays",
             "incidence", "entry", "smith_normal_form", "rule_applicability",
             "diagonal", "face_jsonl")
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


def _imported(path: Path) -> set[str]:
    """The last part of every module name the file imports, and every name
    it imports from a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rpartition(".")[2])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rpartition(".")[2] for a in node.names)
    return names


def test_the_oracle_does_not_read_the_matching():
    # the SNF oracle, its reduction and its family are an independent
    # check of the 11-rule matching and of its restriction to each
    # C_{n,k}, so neither snf nor _family imports morse or subcomplex, or
    # holds their names
    layers = {"morse", "subcomplex"}
    assert {p: _imported(SRC / p) & layers for p in ("snf.py", "_family.py")} == {
        "snf.py": set(), "_family.py": set()}
    held = [f"{module.__name__}.{name}"
            for module in (halfcube.snf, importlib.import_module("halfcube._family"))
            for name, v in vars(module).items()
            if {getattr(v, "__module__", None), getattr(v, "__name__", None)}
            & {f"halfcube.{layer}" for layer in layers}]
    assert held == []
    # the guard sees an import of either layer
    assert _imported(Path(halfcube.subcomplex.__file__)) & layers == {"morse"}


def test_one_filtration():
    # the C_{n,k} levels are computed in faces alone, and the layers that
    # read them keep no copy of their own
    counts = {p.name: p.read_text().count("bytes([d + 1])") for p in SRC.glob("*.py")}
    assert {name: c for name, c in counts.items() if c} == {"faces.py": 1}
    family = importlib.import_module("halfcube._family")
    assert not hasattr(halfcube.subcomplex, "_levels") and not hasattr(family, "_at_most")
    assert halfcube.subcomplex.filtration_levels is family.filtration_levels


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


def _held_strings(value, seen=None) -> list:
    """The tuples and lists of strings reachable from value through dicts,
    lists, tuples and the attributes of package objects."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, (list, tuple)):
        if any(isinstance(v, str) for v in value):
            return [value]
        return [x for v in value for x in _held_strings(v, seen)]
    if isinstance(value, dict):
        return [x for v in [*value, *value.values()] for x in _held_strings(v, seen)]
    if type(value).__module__.startswith("halfcube"):
        slots = getattr(type(value), "__slots__", ())
        attrs = [getattr(value, a) for a in slots] + list(getattr(value, "__dict__", {}).values())
        return [x for v in attrs for x in _held_strings(v, seen)]
    return []


def test_the_table_holds_one_text_per_dimension(tables, matchings):
    table = tables(6)
    matchings(6)  # codes and facet index built
    assert _held_strings(table) == []
    assert all(type(c) is halfcube.faces.FaceList and len(c.text) == len(c) * c.width
               for c in table.cells.values())
    planted = reference.face_table(6, {d: list(c) for d, c in table.cells.items()})
    assert _held_strings(planted) == []
    # the guard sees a table that keeps its faces
    planted.kept = {3: tuple(table.faces(3))}
    assert _held_strings(planted) != []


def test_an_enumerated_table_is_small():
    # a string per face held 2.08 MB at n=8; the texts hold 0.27 MB
    tracemalloc.start()
    try:
        table = halfcube.enumerate_faces(8)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.size == 33_442 and held < 500_000, held


def _loop_face_indexing(tree) -> list[tuple[str, int]]:
    """(function, line) of each subscript of a face view by a name that a
    loop around it binds, but for those in a raise, which runs once.  A face view is a `.faces(...)` call, or a name bound to one or
    to a value of `.cells.items()`."""
    def is_view_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "faces")

    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        views = set()
        for node in ast.walk(fn):
            pairs = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs += zip(target.elts, node.value.elts)
                    else:
                        pairs.append((target, node.value))
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                        and it.func.attr == "items"
                        and getattr(it.func.value, "attr", None) == "cells"
                        and isinstance(node.target, ast.Tuple)):
                    pairs.append((node.target.elts[1], ast.Call(
                        func=ast.Attribute(value=it, attr="faces"), args=[], keywords=[])))
            views |= {t.id for t, v in pairs
                      if isinstance(t, ast.Name) and is_view_call(v)}

        def names(node):
            return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

        def visit(node, bound):
            # bound: the names a loop around node binds per step
            if isinstance(node, ast.Raise) or (
                    node is not fn and isinstance(node, (ast.FunctionDef, ast.Lambda))):
                return
            if (isinstance(node, ast.Subscript) and names(node.slice) & bound
                    and (is_view_call(node.value) or getattr(node.value, "id", None) in views)):
                found.append((getattr(fn, "name", "<lambda>"), node.lineno))
            inner = bound
            if isinstance(node, ast.For):
                inner = bound | names(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                inner = bound.union(*(names(g.target) for g in node.generators))
            for child in ast.iter_child_nodes(node):
                # a for loop's iterable is read once, before the loop
                visit(child, bound if isinstance(node, ast.For) and child is node.iter
                      else inner)

        visit(fn, frozenset())
    return found


def test_no_loop_over_the_faces_indexes_a_face_view():
    # a loop reads the text, iterates a view or takes positions with
    # `take`: indexing a view calls back into Python once per face
    found = {p.name: _loop_face_indexing(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}
    # the guard sees an indexed view in a loop, by call and by name
    planted = ast.parse("def f(table, ids):\n"
                        "    cells = table.faces(3)\n"
                        "    a = [cells[i] for i in ids]\n"
                        "    for d, row in table.cells.items():\n"
                        "        for i in ids:\n"
                        "            a.append(row[i] + table.faces(d)[i])\n"
                        "    raise ValueError(cells[ids[0]])\n"
                        "def g(table, ids):\n"
                        "    cells = table.faces(2)\n"
                        "    return cells[ids[0]], [cells[i] for i in ids]\n")
    assert _loop_face_indexing(planted) == [("f", 3), ("f", 6), ("f", 6), ("g", 10)]
