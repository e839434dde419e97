"""Half-cube face complexes over the integers.

The half cube on n coordinates is the convex hull of the even-sign points
of the n-cube.  This package enumerates its face lattice, orients it as a
regular cell complex with exact integer incidence numbers, constructs a
complete acyclic matching on the faces (empty face included), extracts
explicit integral homology bases for the subcomplexes obtained by deleting
the half-cube shaped cells of dimension >= k, and cross-checks everything
against an independent Smith-normal-form homology oracle and two closed
Betti-number formulas.
"""

from .faces import (
    EMPTY,
    FaceError,
    FaceKind,
    FaceSubset,
    FaceTable,
    Kind,
    canonical_edge,
    classify,
    enumerate_faces,
    expected_counts,
    expected_shape_counts,
    parse_seq,
)
from .chains import (
    BoundaryMatrix,
    ChainComplex,
    ChainVector,
    boundary_matrix,
)
from .morse import (
    MorseBoundary,
    MorseMatching,
    build_matching,
    match_face,
    morse_boundary,
    solve_cycle,
    verify_acyclic,
)
from .subcomplex import (
    HomologyBasis,
    SubcomplexSpec,
    basis_faces,
    betti_binomial,
    betti_power,
    build_subcomplex,
    homology_basis,
    subcomplex_faces,
)
from .snf import (
    IndependenceVerdict,
    SNFResult,
    class_independence,
    homology,
    homology_report,
)

__version__ = "0.1.0"
