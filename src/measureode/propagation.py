"""Fundamental matrices, atom transfers and balanced solutions.

Between partition points a system J u' + q u = w f is propagated exactly:
matrix exponentials across the density pieces, transfer matrices through the
regular jumps, and augmented block exponentials for every integral of an
exponential factor.  No step-size control is involved anywhere; the data is
piecewise constant and the formulas are closed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .coefficients import _SIDES, MeasureMatrix, Problem, _freeze
from .errors import (
    DimensionMismatch,
    NotRepresentable,
    OutOfInterval,
    SingularAtom,
    SingularJ,
    WindowMismatch,
)
from .functions import L2Function

DEFAULT_TOL_SING = 1e-9


def _solve_j(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJ("the leading coefficient matrix is singular") from exc


def segment_exponential(J: np.ndarray, q0: np.ndarray, dx: float) -> np.ndarray:
    """Propagator exp(-dx * J^{-1} q0) across a gap with constant density q0."""
    if dx < 0:
        raise ValueError(f"gap width must be nonnegative, got {dx}")
    generator = -_solve_j(np.asarray(J, dtype=complex), np.asarray(q0, dtype=complex))
    return expm(generator * float(dx))


def segment_integral(A: np.ndarray, dx: float) -> np.ndarray:
    """Integral of exp(A s) for s from 0 to dx, via one augmented exponential.

    The block matrix [[A, I], [0, 0]] is exponentiated; its upper-right block
    is the desired integral.  Exact up to the accuracy of expm itself.
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[0]
    block = np.zeros((2 * m, 2 * m), dtype=complex)
    block[:m, :m] = A
    block[:m, m:] = np.eye(m)
    return expm(block * float(dx))[:m, m:]


def product_integral(A: np.ndarray, X: np.ndarray, B: np.ndarray, dx: float) -> np.ndarray:
    """Integral of exp(A s) X exp(B s) for s from 0 to dx.

    Uses the block-triangular exponential of [[-A, X], [0, B]], whose
    upper-right block is the time-reversed convolution, corrected by a left
    factor exp(A dx).
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    X = np.asarray(X, dtype=complex)
    m, p = X.shape
    block = np.zeros((m + p, m + p), dtype=complex)
    block[:m, :m] = -A
    block[:m, m:] = X
    block[m:, m:] = B
    return expm(A * float(dx)) @ expm(block * float(dx))[:m, m:]


def atom_transfer(J: np.ndarray, dq: np.ndarray, tol_sing: float = DEFAULT_TOL_SING,
                  position: float | None = None) -> np.ndarray:
    """Transfer matrix (J + dq/2)^{-1} (J - dq/2) through a regular jump."""
    J = np.asarray(J, dtype=complex)
    dq = np.asarray(dq, dtype=complex)
    if J.shape != dq.shape:
        raise DimensionMismatch("jump matrix must match the system size")
    b_plus = J + 0.5 * dq
    b_minus = J - 0.5 * dq
    sigma = np.linalg.svd(b_plus, compute_uv=False)
    if sigma[-1] <= tol_sing * max(1.0, float(sigma[0])):
        where = "" if position is None else f" at x={position}"
        raise SingularAtom(
            f"jump{where} is singular (sigma_min={sigma[-1]:.3e}); "
            "the point must become a partition point", position)
    return np.linalg.solve(b_plus, b_minus)


class FundamentalMatrix:
    """Balanced fundamental matrix of J u' + q u = 0 on one subinterval.

    Normalized to the identity as the right limit at the left endpoint; the
    value attributed to the right endpoint is the left limit there.  All jumps
    strictly inside must be regular.
    """

    def __init__(self, J, lo, hi, nodes, generators, transfers, rights, lefts):
        self.J = J
        self.lo = lo
        self.hi = hi
        self.nodes = nodes            # p_0 = lo < ... < p_K = hi
        self.generators = generators  # one per gap (p_k, p_{k+1})
        self.transfers = transfers    # one per interior node, identity if no atom
        self._rights = rights         # U(p_k+) for k = 0..K-1
        self._lefts = lefts           # U(p_k-) for k = 1..K

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def end_value(self) -> np.ndarray:
        """Left limit at the right endpoint."""
        return self._lefts[-1]

    def generator_at(self, x: float) -> np.ndarray:
        """Constant generator -J^{-1} q0 of the gap containing x."""
        k = int(np.searchsorted(self.nodes, x, side="right")) - 1
        k = min(max(k, 0), len(self.generators) - 1)
        return self.generators[k]

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        if not (self.lo <= x <= self.hi):
            raise OutOfInterval(f"{x} is outside [{self.lo}, {self.hi}]")
        idx = int(np.searchsorted(self.nodes, x))
        if idx < self.nodes.size and self.nodes[idx] == x:
            if idx == 0:
                return self._rights[0]
            if idx == self.nodes.size - 1:
                return self._lefts[-1]
            if side == "left":
                return self._lefts[idx - 1]
            if side == "right":
                return self._rights[idx]
            return 0.5 * (self._lefts[idx - 1] + self._rights[idx])
        k = idx - 1
        return expm(self.generators[k] * (x - self.nodes[k])) @ self._rights[k]

    def __call__(self, x: float, side: str = "balanced") -> np.ndarray:
        return self.evaluate(x, side)


def fundamental_matrix(problem: Problem, sub, tol_sing: float = DEFAULT_TOL_SING
                       ) -> FundamentalMatrix:
    """Build the fundamental matrix on (lo, hi); SingularAtom if a jump inside is."""
    lo, hi = float(sub[0]), float(sub[1])
    a, b = problem.interval
    if not (a <= lo < hi <= b):
        raise OutOfInterval(f"({lo}, {hi}) is not a subinterval of [{a}, {b}]")
    J = problem.J
    q = problem.q

    atom_pos, atom_mats = q.atoms_between(lo, hi)
    bkpts = q.breakpoints
    inner_bkpts = bkpts[(bkpts > lo) & (bkpts < hi)]
    nodes = np.unique(np.concatenate([[lo, hi], atom_pos, inner_bkpts]))
    atom_at = {float(x): m for x, m in zip(atom_pos, atom_mats)}

    generators = []
    for k in range(nodes.size - 1):
        mid = 0.5 * (nodes[k] + nodes[k + 1])
        generators.append(-_solve_j(J, q.density_at(mid)))

    eye = np.eye(problem.n, dtype=complex)
    transfers = []
    rights = [eye]
    lefts = []
    for k in range(nodes.size - 1):
        step = expm(generators[k] * (nodes[k + 1] - nodes[k]))
        left = step @ rights[k]
        lefts.append(left)
        if k + 1 < nodes.size - 1:
            pos = float(nodes[k + 1])
            if pos in atom_at:
                T = atom_transfer(J, atom_at[pos], tol_sing, position=pos)
            else:
                T = eye
            transfers.append(T)
            rights.append(T @ left)
    return FundamentalMatrix(J, lo, hi, nodes, generators, transfers, rights, lefts)


def _check_rhs(f, lo: float, hi: float) -> None:
    if not f.covers(lo, hi):
        raise NotRepresentable(
            f"right-hand side lives on {f.window}, which does not cover [{lo}, {hi}]")


def inhomogeneous_integral(U: FundamentalMatrix, w: MeasureMatrix,
                           f: L2Function | None, upto: float) -> np.ndarray:
    """Integral of U^* w f over the open interval (lo, upto).

    Interior atoms of w contribute with the balanced value of U and the
    stored value of f; an atom exactly at ``upto`` is excluded (it belongs to
    the point, not to the open interval).
    """
    lo, hi = U.interval
    n = U.n
    if not (lo <= upto <= hi):
        raise OutOfInterval(f"upper limit {upto} outside [{lo}, {hi}]")
    if f is None or upto == lo:
        return np.zeros(n, dtype=complex)
    _check_rhs(f, lo, upto)

    cuts = [U.nodes, w.breakpoints, f.structure_points()]
    positions, _ = w.atoms_between(lo, upto)
    grid = np.unique(np.concatenate(cuts + [positions, [lo, upto]]))
    grid = grid[(grid >= lo) & (grid <= upto)]

    total = np.zeros(n, dtype=complex)
    for k in range(grid.size - 1):
        s0, s1 = float(grid[k]), float(grid[k + 1])
        mid = 0.5 * (s0 + s1)
        M = U.generator_at(mid)
        w0 = w.density_at(mid)
        if not w0.any():
            continue
        f0 = f.value(mid)
        u0 = U.evaluate(s0, "right")
        total = total + u0.conj().T @ (segment_integral(M.conj().T, s1 - s0) @ (w0 @ f0))
    for pos, mat in zip(*w.atoms_between(lo, upto)):
        ub = U.evaluate(float(pos), "balanced")
        total = total + ub.conj().T @ (mat @ f.value(float(pos), "balanced"))
    return total


class _NodeStates(NamedTuple):
    """Augmented states y = (u, 1) of one solution, stacked over its window.

    ``nodes`` holds the partition points and every point inside a subinterval
    where q, w or f changes; ``generators[k]`` is the augmented generator on
    (nodes[k], nodes[k+1]), ``rights[k]`` the right limit at nodes[k] and
    ``lefts[k]`` the left limit at nodes[k+1].
    """

    nodes: np.ndarray
    generators: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray

    def flow(self, k: int, x: float) -> np.ndarray:
        """State at x in the closure of gap k: one exponential from nodes[k]."""
        if x == self.nodes[k]:
            return self.rights[k]
        return expm(self.generators[k] * (x - self.nodes[k])) @ self.rights[k]


class PiecewiseSolution:
    """A balanced solution described per subinterval of a partition.

    Stores the partition points, one fundamental matrix and one read-only
    coefficient vector (the right limit at the subinterval's start) per
    subinterval, and the right-hand side (None for homogeneous).  On first use
    each subinterval is stepped once through its nodes, the points where q, w
    or f change: one exponential of [[-J^{-1} q0, J^{-1} w0 f0], [0, 0]] carries
    the augmented state (u, 1) across each gap, and the jump rule
    (J + dq/2) u+ = (J - dq/2) u- + dw f links the two limits at each interior
    node.  A value at a node is a stored limit; anywhere else it is one
    exponential from the node to its left.  Outside the window evaluation
    raises.
    """

    def __init__(self, problem: Problem, points, fundamentals, coefficients,
                 rhs: L2Function | None = None):
        self.problem = problem
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise DimensionMismatch("a solution needs at least one subinterval")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("partition points must increase")
        if len(fundamentals) != self.points.size - 1:
            raise DimensionMismatch("one fundamental matrix per subinterval required")
        if len(coefficients) != self.points.size - 1:
            raise DimensionMismatch("one coefficient vector per subinterval required")
        self.fundamentals = list(fundamentals)
        self.coefficients = [_freeze(np.array(c, dtype=complex).reshape(-1))
                             for c in coefficients]
        n = problem.n
        if any(c.size != n for c in self.coefficients):
            raise DimensionMismatch(f"coefficient vectors must have length {n}")
        self.rhs = rhs
        self._states: _NodeStates | None = None

    @property
    def window(self) -> tuple[float, float]:
        return (float(self.points[0]), float(self.points[-1]))

    @property
    def n(self) -> int:
        return self.problem.n

    def covers(self, lo: float, hi: float) -> bool:
        return self.points[0] <= lo and hi <= self.points[-1]

    def coefficient_vector(self) -> np.ndarray:
        return np.concatenate(self.coefficients)

    def structure_points(self) -> np.ndarray:
        """Partition points and the points where q, or with a rhs w or f, changes."""
        pieces = [self.points] + [U.nodes for U in self.fundamentals]
        if self.rhs is not None:
            pieces += [self.rhs.structure_points(), self.problem.w.structure_points()]
        return np.unique(np.concatenate(pieces))

    def _node_states(self) -> _NodeStates:
        """States at every node, stepped once through each subinterval on first use."""
        if self._states is not None:
            return self._states
        f, problem, n = self.rhs, self.problem, self.n
        if f is not None:
            _check_rhs(f, *self.window)
        nodes = self.structure_points()
        nodes = nodes[(nodes >= self.points[0]) & (nodes <= self.points[-1])]
        gaps = nodes.size - 1
        generators = np.zeros((gaps, n + 1, n + 1), dtype=complex)
        rights = np.empty((gaps, n + 1), dtype=complex)
        lefts = np.empty((gaps, n + 1), dtype=complex)
        j = -1
        for k in range(gaps):
            x, mid = float(nodes[k]), 0.5 * (nodes[k] + nodes[k + 1])
            if x == self.points[j + 1]:
                # A partition point: the coupling equation holds the jump there.
                j += 1
                U, y = self.fundamentals[j], np.append(self.coefficients[j], 1.0)
            else:
                load = problem.w.jump(x) @ f.value(x, "balanced") if f is not None else 0.0
                if problem.q.jump(x).any() or np.any(load):
                    y[:n] = np.linalg.solve(problem.b_plus(x), problem.b_minus(x) @ y[:n] + load)
            generators[k, :n, :n] = U.generator_at(mid)
            if f is not None:
                generators[k, :n, n] = _solve_j(
                    problem.J, problem.w.density_at(mid) @ f.value(mid))
            rights[k] = y
            y = expm(generators[k] * (nodes[k + 1] - nodes[k])) @ y
            lefts[k] = y
        self._states = _NodeStates(nodes, generators, _freeze(rights), _freeze(lefts))
        return self._states

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        lo, hi = self.window
        if not (lo <= x <= hi):
            raise OutOfInterval(f"{x} is outside the solution window [{lo}, {hi}]")
        if side == "left" and x == lo:
            raise OutOfInterval("no left limit at the window start")
        if side == "right" and x == hi:
            raise OutOfInterval("no right limit at the window end")
        states, n = self._node_states(), self.n
        i = int(np.searchsorted(states.nodes, x))
        if states.nodes[i] != x:
            # Off a node the left, right and balanced values coincide.
            return states.flow(i - 1, x)[:n]
        if side == "right" or x == lo:
            return states.rights[i][:n]
        if side == "left" or x == hi:
            return states.lefts[i - 1][:n]
        return 0.5 * (states.lefts[i - 1] + states.rights[i])[:n]

    def __call__(self, x: float, side: str = "balanced") -> np.ndarray:
        return self.evaluate(x, side)


def solve_ivp_regular(problem: Problem, sub, x0: float, u0,
                      f: L2Function | None = None,
                      tol_sing: float = DEFAULT_TOL_SING) -> PiecewiseSolution:
    """Unique balanced solution on a regular subinterval with value u0 at x0.

    At the left endpoint the prescribed value is the right limit, at the
    right endpoint the left limit, anywhere else the balanced value.
    """
    lo, hi = float(sub[0]), float(sub[1])
    x0 = float(x0)
    if not (lo <= x0 <= hi):
        raise OutOfInterval(f"initial point {x0} outside [{lo}, {hi}]")
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.size != problem.n:
        raise DimensionMismatch(f"initial value must have length {problem.n}")
    U = fundamental_matrix(problem, (lo, hi), tol_sing)
    side = "right" if x0 == lo else "left" if x0 == hi else "balanced"
    particular = PiecewiseSolution(problem, [lo, hi], [U],
                                   [np.zeros(problem.n, dtype=complex)], f)
    c = np.linalg.solve(U.evaluate(x0, side), u0 - particular.evaluate(x0, side))
    return PiecewiseSolution(problem, [lo, hi], [U], [c], f)


# -- pairings against a weight -------------------------------------------------


def _factor_structure(factor, lo: float, hi: float) -> np.ndarray:
    pts = factor.structure_points()
    return pts[(pts > lo) & (pts < hi)]


def _balanced_value(factor, x: float) -> np.ndarray:
    if isinstance(factor, PiecewiseSolution):
        return factor.evaluate(x, "balanced")
    return factor.value(x, "balanced")


def _segment_representation(factor, s0: float, mid: float):
    """Affine-exponential form of a factor on a structure-free gap.

    Returns (P, A, y0) with value(s0 + s) = P exp(A s) y0 on the gap.
    """
    if isinstance(factor, PiecewiseSolution):
        states = factor._node_states()
        k = int(np.searchsorted(states.nodes, s0, "right")) - 1
        P = np.eye(factor.n, factor.n + 1, dtype=complex)
        return P, states.generators[k], states.flow(k, s0)
    value = factor.value(mid)
    return value.reshape(-1, 1), np.zeros((1, 1), dtype=complex), np.ones(1, dtype=complex)


def w_pairing(w: MeasureMatrix, u, v, window) -> complex:
    """Integral of u^* w v over the open window, conjugate-linear in u.

    Both factors may be balanced solutions or representable functions; atoms
    of w strictly inside the window contribute with balanced values.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise WindowMismatch(f"empty window ({lo}, {hi})")
    for factor in (u, v):
        if not factor.covers(lo, hi):
            raise WindowMismatch(
                f"factor on {factor.window} does not cover the window ({lo}, {hi})")

    cuts = [np.asarray([lo, hi])]
    wpts = w.structure_points()
    cuts.append(wpts[(wpts > lo) & (wpts < hi)])
    cuts.append(_factor_structure(u, lo, hi))
    cuts.append(_factor_structure(v, lo, hi))
    grid = np.unique(np.concatenate(cuts))

    total = 0.0 + 0.0j
    for k in range(grid.size - 1):
        s0, s1 = float(grid[k]), float(grid[k + 1])
        mid = 0.5 * (s0 + s1)
        w0 = w.density_at(mid)
        if not w0.any():
            continue
        Pu, Au, yu = _segment_representation(u, s0, mid)
        Pv, Av, yv = _segment_representation(v, s0, mid)
        X = Pu.conj().T @ w0 @ Pv
        kernel = product_integral(Au.conj().T, X, Av, s1 - s0)
        total += yu.conj() @ kernel @ yv
    for pos, mat in zip(*w.atoms_between(lo, hi)):
        x = float(pos)
        total += _balanced_value(u, x).conj() @ (mat @ _balanced_value(v, x))
    return complex(total)
