"""Half-cube face complexes over the integers.

The half cube on n coordinates is the convex hull of the even-sign points
of the n-cube.  This package enumerates its face lattice, orients it as a
regular cell complex with exact integer incidence numbers, constructs a
complete acyclic matching on the faces (empty face included), extracts
explicit integral homology bases for the subcomplexes obtained by deleting
the half-cube shaped cells of dimension >= k, and cross-checks everything
against an independent Smith-normal-form homology oracle and two closed
Betti-number formulas.

Importing the package loads none of its layers.  A layer module
(`halfcube.faces`, `chains`, `morse`, `subcomplex`, `snf`, `cli`) or a
name of `__all__` is imported on first access and then bound here, so a
caller that only enumerates faces loads `faces` alone.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("faces", "chains", "morse", "subcomplex", "snf", "cli")

# each exported name -> the layer that defines it
_EXPORTS = {
    **dict.fromkeys((
        "EMPTY", "FaceError", "FaceKind", "FaceSubset", "FaceTable", "Kind",
        "canonical_edge", "classify", "enumerate_faces", "expected_counts",
        "expected_shape_counts", "parse_seq"), "faces"),
    **dict.fromkeys((
        "BoundaryMatrix", "ChainComplex", "ChainVector", "boundary_matrix"), "chains"),
    **dict.fromkeys((
        "MorseBoundary", "MorseMatching", "build_matching", "match_face",
        "morse_boundary", "solve_cycle", "verify_acyclic"), "morse"),
    **dict.fromkeys((
        "HomologyBasis", "SubcomplexSpec", "basis_faces", "betti_binomial",
        "betti_power", "build_subcomplex", "homology_basis",
        "subcomplex_faces"), "subcomplex"),
    **dict.fromkeys((
        "IndependenceVerdict", "SNFResult", "class_independence", "homology",
        "homology_report"), "snf"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYERS, *__all__})
