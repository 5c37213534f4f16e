"""Matrix-valued measures and the problem data they feed.

A coefficient measure is a matrix-valued distribution of order zero on an
interval (a, b): a piecewise-constant density with respect to Lebesgue
measure plus finitely many point masses ("atoms").  Atom positions are exact
float keys; two positions are the same point only if the floats are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyWindow, OutOfInterval

# Default tolerance for the hypothesis-level checks in validate().
DEFAULT_VALIDATE_TOL = 1e-10
# Defaults of the singular-jump cut, the rank cut and the solve's consistency
# cut, and the verify suites in report order.  They live here, in a module
# every command-line mode loads, so parsing arguments loads nothing else;
# propagation, blocksystem and solutions re-export the cuts, verify the suites.
DEFAULT_TOL_SING = 1e-9
DEFAULT_TOL_RANK = 1e-10
DEFAULT_TOL_SOLVE = 1e-9
SUITE_NAMES = ("cbbc", "wronskian", "lift", "functional", "lagrange", "t0")


class Tolerances(NamedTuple):
    """The singular-jump, rank and consistency cuts, each relative to its scale."""

    sing: float = DEFAULT_TOL_SING
    rank: float = DEFAULT_TOL_RANK
    solve: float = DEFAULT_TOL_SOLVE


_SIDES = ("left", "right", "balanced")


def _as_square(matrix, n: int | None, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatch(f"{what} must be {n}x{n}, got {m.shape[0]}x{m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    return m


def _as_squares(matrices, n: int, what: str) -> np.ndarray:
    """``_as_square`` of each matrix, stacked (K, n, n) in one pass; one by one if that fails."""
    try:
        stack = np.array(matrices, dtype=complex)
        if stack.shape[1:] == (n, n) and np.isfinite(stack.view(float)).all():
            return stack
    except (ValueError, TypeError):
        pass
    return np.stack([_as_square(m, n, what) for m in matrices])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _union(*arrays) -> np.ndarray:
    """The sorted distinct values of 1-D arrays, as ``np.unique`` of their concatenation.

    The same sort and neighbour test that ``np.unique`` runs on 1-D input,
    without its masked-array check, which imports ``numpy.ma``.
    """
    values = np.concatenate(arrays)
    values.sort()
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _member(values: np.ndarray, sorted_values: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_values)`` for a sorted 1-D ``sorted_values``."""
    values = np.asarray(values)
    if not sorted_values.size:
        return np.zeros(values.shape, dtype=bool)
    k = np.minimum(np.searchsorted(sorted_values, values), sorted_values.size - 1)
    return sorted_values[k] == values


def _window_ends(window) -> tuple[float, float]:
    """The window's ends as floats; EmptyWindow unless lo < hi."""
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise EmptyWindow(f"window ({lo}, {hi}) is empty")
    return lo, hi


class MeasureMatrix:
    """Hermitian-matrix-valued measure: piecewise-constant density + atoms.

    Parameters
    ----------
    interval:
        Open interval (a, b) carrying the measure.
    n:
        System size; may be omitted when a density or atom fixes it.
    breakpoints, densities:
        ``breakpoints`` is the increasing grid a = t_0 < ... < t_M = b and
        ``densities[i]`` the constant density on (t_i, t_{i+1}).  Omitting
        both means zero density.
    atoms:
        Iterable of (position, matrix) pairs with positions strictly inside
        (a, b); the measure of {position} is the matrix.
    """

    def __init__(self, interval, n=None, breakpoints=None, densities=None, atoms=()):
        a, b = float(interval[0]), float(interval[1])
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"interval must be finite with a < b, got ({a}, {b})")
        self._interval = (a, b)

        atoms = [(float(x), m) for x, m in atoms]
        if n is None:
            if densities is not None and len(densities) > 0:
                n = np.asarray(densities[0]).shape[0]
            elif atoms:
                n = np.asarray(atoms[0][1]).shape[0]
            else:
                raise DimensionMismatch("cannot infer the system size of an empty measure")
        self._n = int(n)

        if breakpoints is None:
            breakpoints = [a, b]
            if densities is None:
                densities = [np.zeros((self._n, self._n), dtype=complex)]
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("breakpoints must list at least the interval ends")
        if bp[0] != a or bp[-1] != b:
            raise ValueError("breakpoints must start at a and end at b")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if densities is None or len(densities) != bp.size - 1:
            raise DimensionMismatch("need one density per gap between breakpoints")
        dens = _as_squares(densities, self._n, "density")

        positions = np.asarray([x for x, _ in atoms], dtype=float)
        if positions.size and not np.all(np.diff(positions) > 0):
            raise ValueError("atom positions must be strictly increasing and distinct")
        if positions.size and not (a < positions[0] and positions[-1] < b):
            raise OutOfInterval("atom positions must lie strictly inside the interval")
        mats = _as_squares([m for _, m in atoms], self._n, "atom matrix") \
            if atoms else np.zeros((0, self._n, self._n), dtype=complex)

        self._breakpoints = _freeze(bp)
        self._densities = _freeze(dens)
        self._atom_positions = _freeze(positions)
        self._atom_matrices = _freeze(mats)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, interval, n: int) -> "MeasureMatrix":
        return cls(interval, n=n)

    @classmethod
    def lebesgue(cls, interval, density) -> "MeasureMatrix":
        """Constant density on the whole interval, no atoms."""
        return cls(interval, breakpoints=None, densities=[density])

    @classmethod
    def from_atoms(cls, interval, n: int, atoms) -> "MeasureMatrix":
        return cls(interval, n=n, atoms=sorted(atoms, key=lambda p: p[0]))

    # -- basic queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def interval(self) -> tuple[float, float]:
        return self._interval

    @property
    def breakpoints(self) -> np.ndarray:
        return self._breakpoints

    @property
    def densities(self) -> np.ndarray:
        return self._densities

    @property
    def atom_positions(self) -> np.ndarray:
        return self._atom_positions

    @property
    def atom_matrices(self) -> np.ndarray:
        return self._atom_matrices

    def jump(self, x: float) -> np.ndarray:
        """Measure of the single point {x}; zero unless x is an atom position."""
        a, b = self._interval
        if not (a < x < b):
            raise OutOfInterval(f"jump evaluated at {x}, outside ({a}, {b})")
        idx = np.searchsorted(self._atom_positions, x)
        if idx < self._atom_positions.size and self._atom_positions[idx] == x:
            return self._atom_matrices[idx]
        return np.zeros((self._n, self._n), dtype=complex)

    def density_at(self, x: float) -> np.ndarray:
        """Density value on the gap containing x (x must not be a breakpoint)."""
        a, b = self._interval
        if not (a <= x <= b):
            raise OutOfInterval(f"density queried at {x}, outside [{a}, {b}]")
        idx = int(np.searchsorted(self._breakpoints, x, side="right")) - 1
        idx = min(max(idx, 0), self._densities.shape[0] - 1)
        return self._densities[idx]

    def atoms_between(self, lo: float, hi: float):
        """(positions, matrices) of the atoms strictly inside (lo, hi)."""
        i = np.searchsorted(self._atom_positions, lo, side="right")
        j = np.searchsorted(self._atom_positions, hi, side="left")
        return self._atom_positions[i:j], self._atom_matrices[i:j]

    def structure_points(self) -> np.ndarray:
        """All breakpoints and atom positions, sorted."""
        return _union(self._breakpoints, self._atom_positions)


@dataclass(frozen=True)
class Check:
    """One row of a validation report."""

    name: str
    measured: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


class Problem:
    """One system J u' + q u = w f on an interval.

    J is a constant invertible skew-Hermitian matrix, q a Hermitian measure
    and w a nonnegative one.  Construction checks only structure (shapes and
    matching intervals); the algebraic hypotheses are checked by validate(),
    which reports rather than raises so that a caller can name the failing
    check.
    """

    def __init__(self, J, q: MeasureMatrix, w: MeasureMatrix):
        J = _as_square(J, None, "J")
        n = J.shape[0]
        if n < 1:
            raise DimensionMismatch("J must be at least 1x1, got 0x0")
        if q.n != n or w.n != n:
            raise DimensionMismatch(
                f"coefficient sizes disagree: J is {n}x{n}, q has n={q.n}, w has n={w.n}"
            )
        if q.interval != w.interval:
            raise DimensionMismatch("q and w must live on the same interval")
        self._J = _freeze(J.copy())
        self._q = q
        self._w = w

    @property
    def J(self) -> np.ndarray:
        return self._J

    @property
    def q(self) -> MeasureMatrix:
        return self._q

    @property
    def w(self) -> MeasureMatrix:
        return self._w

    @property
    def n(self) -> int:
        return self._J.shape[0]

    @property
    def interval(self) -> tuple[float, float]:
        return self._q.interval

    def b_plus(self, x: float) -> np.ndarray:
        """J + dq(x)/2, the matrix multiplying the right limit in the jump rule."""
        return self._J + 0.5 * self._q.jump(x)

    def b_minus(self, x: float) -> np.ndarray:
        """J - dq(x)/2, the matrix multiplying the left limit in the jump rule."""
        return self._J - 0.5 * self._q.jump(x)


def _hermitian_defect(measure: MeasureMatrix) -> float:
    worst = 0.0
    for m in list(measure.densities) + list(measure.atom_matrices):
        worst = max(worst, float(np.linalg.norm(m - m.conj().T, 2)))
    return worst


def _psd_defect(measure: MeasureMatrix) -> float:
    """Max of Hermitian defect and eigenvalue deficit over all values."""
    worst = _hermitian_defect(measure)
    for m in list(measure.densities) + list(measure.atom_matrices):
        herm = 0.5 * (m + m.conj().T)
        if herm.shape[0]:
            lo = float(np.linalg.eigvalsh(herm)[0])
            worst = max(worst, max(0.0, -lo))
    return worst


def validate(problem: Problem, tol: float = DEFAULT_VALIDATE_TOL) -> ValidationReport:
    """Check the standing hypotheses and report per-check defects."""
    J = problem.J
    sigma = np.linalg.svd(J, compute_uv=False)
    sigma_min = float(sigma[-1]) if sigma.size else 0.0

    sorted_defect = 0.0
    for m in (problem.q, problem.w):
        d = np.diff(m.breakpoints)
        if d.size:
            sorted_defect = max(sorted_defect, float(max(0.0, -d.min())))

    interior_defect = 0.0
    a, b = problem.interval
    for m in (problem.q, problem.w):
        for pos in m.atom_positions:
            interior_defect = max(interior_defect, max(0.0, a - pos), max(0.0, pos - b))

    skew_defect = float(np.linalg.norm(J + J.conj().T, 2))
    q_defect = _hermitian_defect(problem.q)
    w_defect = _psd_defect(problem.w)
    checks = (
        Check("J invertible", sigma_min, tol, sigma_min > tol),
        Check("J skew-Hermitian", skew_defect, tol, skew_defect <= tol),
        Check("q Hermitian", q_defect, tol, q_defect <= tol),
        Check("w PSD", w_defect, tol, w_defect <= tol),
        Check("breakpoints sorted", sorted_defect, 0.0, sorted_defect <= 0.0),
        Check("atoms interior", interior_defect, 0.0, interior_defect <= 0.0),
    )
    return ValidationReport(checks)
