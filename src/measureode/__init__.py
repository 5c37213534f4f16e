"""First-order linear systems Ju' + qu = wf with measure coefficients.

The coefficients q and w may carry atoms (point masses) as well as
piecewise-constant densities; balanced solutions are propagated across the
atoms, the points where the shifted jump matrices degenerate are detected,
and the finite block linear system coupling the subinterval coefficients is
assembled and analyzed: solvability, compactly supported homogeneous
solutions, the endpoint-vanishing solve with its orthogonality certificate,
and the algebraic identities tying them together.
"""

from .blocksystem import (BlockSystem, JumpReport, MomentVectors, Partition,
                          assemble, build_system, classify_jumps,
                          find_singular_points, make_partition,
                          moment_vectors, nullspace)
from .coefficients import (Check, MeasureMatrix, Problem, ValidationReport,
                           validate)
from .errors import (DimensionMismatch, EmptyWindow, InconsistentLift,
                     LiftEndpointNonzero, MeasureOdeError,
                     MissingRHS, NotInKernel, NotRepresentable, OutOfInterval,
                     ParseError, SingularAtom, SingularInitialPoint,
                     SingularJ, WindowMismatch)
from .fileio import ParsedProblem, load_problem, parse_problem
from .functions import L2Function
from .propagation import (FundamentalMatrix, PiecewiseSolution, atom_transfer,
                          fundamental_matrix, product_integral,
                          segment_exponential, segment_integral,
                          solve_ivp_regular)
from .relations import (K0Element, OrthogonalityCertificate, PairingReport,
                        inner_product, kernel_K0, lagrange_check, t0_solve,
                        weighted_norm)
from .solutions import (SolutionSet, compact_support_solutions,
                        functional_identity_defect, lift_kernel_vector,
                        minimum_norm_solve, solve_system)
from .verify import run_random_suites, run_suites

__version__ = "0.1.0"

__all__ = [
    "BlockSystem", "Check", "DimensionMismatch", "EmptyWindow",
    "FundamentalMatrix", "InconsistentLift", "JumpReport", "K0Element",
    "L2Function", "LiftEndpointNonzero", "MeasureMatrix", "MeasureOdeError",
    "MissingRHS", "MomentVectors", "NotInKernel", "NotRepresentable",
    "OrthogonalityCertificate", "OutOfInterval", "PairingReport",
    "ParseError", "ParsedProblem", "Partition", "PiecewiseSolution",
    "Problem", "SingularAtom", "SingularInitialPoint", "SingularJ",
    "SolutionSet", "ValidationReport", "WindowMismatch", "assemble",
    "atom_transfer", "build_system", "classify_jumps",
    "compact_support_solutions", "find_singular_points",
    "functional_identity_defect", "fundamental_matrix", "inner_product",
    "kernel_K0", "lagrange_check", "lift_kernel_vector", "load_problem",
    "make_partition", "minimum_norm_solve", "moment_vectors", "nullspace",
    "parse_problem", "product_integral", "segment_exponential",
    "segment_integral", "solve_ivp_regular", "solve_system", "t0_solve",
    "validate", "weighted_norm", "run_random_suites", "run_suites",
    "__version__",
]
