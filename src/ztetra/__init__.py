"""Equilateral triangles and regular tetrahedra with integer coordinates.

The package constructs every equilateral triangle in a rational plane
a*x + b*y + c*z = 0 with a^2 + b^2 + c^2 = 3*d^2 from two integer
parameters, extends triangles to regular tetrahedra, enumerates all
origin tetrahedra of a given side, and cross-checks everything against
brute-force oracles.
"""

from .eisenstein import EisensteinTriple, omega, primitive_triples, tau_orbit, zeta
from .errors import (
    ConstructionError,
    DomainError,
    RangeError,
    UsageError,
    VerificationError,
    ZtetraError,
)
from .numtheory import (
    INT64_MAX,
    Factorization,
    NormalQuadruple,
    RSPair,
    count_representations,
    factorize,
    is_loeschian,
    is_prime,
    solve_three_d2,
    solve_two_q,
)
from .oracle import (
    ComparisonReport,
    OffsetReport,
    brute_t0,
    brute_tetrahedra_grid,
    brute_triangles_grid,
    compare,
    compare_with_bfile,
    read_bfile,
    scan_tetrahedra,
    scan_triangles,
)
from .tetra import (
    FaceNormalSet,
    LatticeTetrahedron,
    corollary_solution,
    count_t0,
    enumerate_t0,
    face_normals,
    grid_counts,
    signed_completions,
    t0_rows,
    verify_orthogonality,
    verify_regular,
)
from .triangle import (
    ORIGIN,
    CoeffMatrix,
    LatticeTriangle,
    Point,
    coeff_matrix,
    triangle_points,
    verify_equilateral,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CoeffMatrix",
    "ConstructionError",
    "DomainError",
    "EisensteinTriple",
    "Factorization",
    "FaceNormalSet",
    "INT64_MAX",
    "LatticeTetrahedron",
    "LatticeTriangle",
    "NormalQuadruple",
    "ORIGIN",
    "OffsetReport",
    "Point",
    "RSPair",
    "RangeError",
    "UsageError",
    "VerificationError",
    "ZtetraError",
    "brute_t0",
    "brute_tetrahedra_grid",
    "brute_triangles_grid",
    "coeff_matrix",
    "compare",
    "compare_with_bfile",
    "corollary_solution",
    "count_representations",
    "count_t0",
    "enumerate_t0",
    "face_normals",
    "factorize",
    "grid_counts",
    "is_loeschian",
    "is_prime",
    "omega",
    "primitive_triples",
    "read_bfile",
    "scan_tetrahedra",
    "scan_triangles",
    "signed_completions",
    "solve_three_d2",
    "solve_two_q",
    "t0_rows",
    "tau_orbit",
    "triangle_points",
    "verify_equilateral",
    "verify_orthogonality",
    "verify_regular",
    "zeta",
    "__version__",
]
