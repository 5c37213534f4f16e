"""First-order linear systems Ju' + qu = wf with measure coefficients.

The coefficients q and w may carry atoms (point masses) as well as
piecewise-constant densities; balanced solutions are propagated across the
atoms, the points where the shifted jump matrices degenerate are detected,
and the finite block linear system coupling the subinterval coefficients is
assembled and analyzed: solvability, compactly supported homogeneous
solutions, the endpoint-vanishing solve with its orthogonality certificate,
and the algebraic identities tying them together.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.  A name is imported on
# first use (PEP 562), so ``import measureode`` and each command-line mode
# load only the submodules they need.
_HOMES = {
    "blocksystem": ("BlockSystem", "JumpReport", "MomentVectors", "Partition", "assemble",
                    "build_system", "classify_jumps", "find_singular_points",
                    "make_partition", "moment_vectors", "nullspace"),
    "coefficients": ("Check", "MeasureMatrix", "Problem", "Tolerances", "ValidationReport",
                     "validate"),
    "errors": ("DimensionMismatch", "EmptyWindow", "InconsistentLift",
               "LiftEndpointNonzero", "MeasureOdeError", "MissingRHS", "NotInKernel",
               "NotRepresentable", "OutOfInterval", "ParseError", "SingularAtom",
               "SingularInitialPoint", "SingularJ", "WindowMismatch"),
    "fileio": ("ParsedProblem", "load_problem", "parse_problem"),
    "functions": ("L2Function",),
    "propagation": ("FundamentalMatrix", "PiecewiseSolution", "atom_transfer",
                    "fundamental_matrix", "product_integral", "segment_exponential",
                    "segment_integral", "solve_ivp_regular"),
    "relations": ("K0Basis", "K0Element", "OrthogonalityCertificate", "PairingReport",
                  "inner_product", "kernel_K0", "lagrange_check", "t0_solve",
                  "weighted_norm"),
    "solutions": ("SolutionSet", "compact_support_solutions", "functional_identity_defect",
                  "lift_kernel_vector", "solve_system"),
    "verify": ("run_random_suites", "run_suites"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
