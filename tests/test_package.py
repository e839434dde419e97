"""The package surface: `import halfcube` loads no layer, a layer loads on
first use, and every exported name is the one its layer defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import halfcube

SRC = Path(halfcube.__file__).resolve().parent.parent

SURFACE = {
    "faces": ("EMPTY", "FaceError", "FaceKind", "FaceSubset", "FaceTable", "Kind",
              "canonical_edge", "classify", "enumerate_faces", "expected_counts",
              "expected_shape_counts", "parse_seq"),
    "chains": ("BoundaryMatrix", "ChainComplex", "ChainVector", "boundary_matrix"),
    "morse": ("MorseBoundary", "MorseMatching", "build_matching", "match_face",
              "morse_boundary", "solve_cycle", "verify_acyclic"),
    "subcomplex": ("HomologyBasis", "SubcomplexSpec", "basis_faces", "betti_binomial",
                   "betti_power", "build_subcomplex", "homology_basis",
                   "subcomplex_faces"),
    "snf": ("IndependenceVerdict", "SNFResult", "class_independence", "homology",
            "homology_report"),
}
LAYERS = ("faces", "chains", "morse", "subcomplex", "snf", "cli")
HEAVY = ("json", "dataclasses", "heapq", "inspect")


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


class TestLazyImport:
    def test_enumeration_loads_faces_alone(self):
        at_start = loaded_after("pass")
        loaded = loaded_after("import halfcube; halfcube.faces.enumerate_faces(5)")
        ours = sorted(m for m in loaded if m.partition(".")[0] == "halfcube")
        assert ours == ["halfcube", "halfcube.faces"]
        assert [m for m in HEAVY if m in loaded and m not in at_start] == []

    def test_cli_loads_every_layer(self):
        loaded = loaded_after("import halfcube.cli")
        assert [m for m in LAYERS if f"halfcube.{m}" not in loaded] == []

    def test_family_loads_on_first_use(self):
        # the family oracle's code is read only by `betti --oracle`
        assert "halfcube._family" not in loaded_after("import halfcube.cli")
        assert "halfcube._family" in loaded_after(
            "import halfcube; halfcube.snf.family_homology("
            "halfcube.ChainComplex(halfcube.enumerate_faces(4)))")


class TestSurface:
    def test_all_is_the_exported_names(self):
        assert halfcube.__all__ == [name for names in SURFACE.values() for name in names]

    def test_each_name_is_its_layers(self):
        for layer, names in SURFACE.items():
            module = importlib.import_module(f"halfcube.{layer}")
            for name in names:
                assert getattr(halfcube, name) is getattr(module, name), name

    def test_layers_are_the_submodules(self):
        for layer in LAYERS:
            assert getattr(halfcube, layer) is sys.modules[f"halfcube.{layer}"]

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from halfcube import *", ns)
        assert [name for name in halfcube.__all__ if ns.get(name) is not
                getattr(halfcube, name)] == []

    def test_dir_lists_the_names_and_layers(self):
        assert {*halfcube.__all__, *LAYERS, "__version__"} <= set(dir(halfcube))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            halfcube.no_such_name
        assert not hasattr(halfcube, "det_sign")
