"""Fundamental matrices, atom transfers and balanced solutions.

Between partition points a system J u' + q u = w f is propagated exactly:
matrix exponentials across the density pieces, transfer matrices through the
regular jumps, and augmented block exponentials for every integral of an
exponential factor.  No step-size control is involved anywhere; the data is
piecewise constant and the formulas are closed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .coefficients import _SIDES, MeasureMatrix, Problem
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


def _atom_shift(problem: Problem, U: FundamentalMatrix, f: L2Function | None,
                x: float) -> np.ndarray | None:
    """Right-limit shift J^{-1} U(x)^* dw(x) f(x); None without f or a w-atom at x."""
    a, b = problem.interval
    if f is None or not a < x < b:
        return None
    dw = problem.w.jump(x)
    if not dw.any():
        return None
    atom = U.evaluate(x, "balanced").conj().T @ (dw @ f.value(x, "balanced"))
    return _solve_j(problem.J, atom)


class PiecewiseSolution:
    """A balanced solution described per subinterval of a partition.

    Stores the partition points, one fundamental matrix and one coefficient
    vector per subinterval, and the right-hand side (None for homogeneous).
    The value at any point of the closed window can be evaluated with a side
    convention; outside the window evaluation raises.
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
        self.coefficients = [np.asarray(c, dtype=complex).reshape(-1)
                             for c in coefficients]
        n = problem.n
        if any(c.size != n for c in self.coefficients):
            raise DimensionMismatch(f"coefficient vectors must have length {n}")
        self.rhs = rhs

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
        pieces = [self.points] + [U.nodes for U in self.fundamentals]
        if self.rhs is not None:
            pieces.append(self.rhs.structure_points())
        return np.unique(np.concatenate(pieces))

    def _assert_inside(self, x: float) -> None:
        lo, hi = self.window
        if not (lo <= x <= hi):
            raise OutOfInterval(f"{x} is outside the solution window [{lo}, {hi}]")

    def _one_sided(self, j: int, x: float, side: str) -> np.ndarray:
        """Left/right limit at x inside subinterval j (x may be an edge)."""
        U = self.fundamentals[j]
        base = self.coefficients[j]
        integral = inhomogeneous_integral(U, self.problem.w, self.rhs, x)
        v = base + _solve_j(self.problem.J, integral) if self.rhs is not None else base
        if side == "left":
            return U.evaluate(x, "left") @ v
        # At the subinterval's left edge the coefficient already is the right
        # limit (the jump there lives in the coupling equation).
        shift = _atom_shift(self.problem, U, self.rhs, x) if x > U.lo else None
        if shift is not None:
            v = v + shift
        return U.evaluate(x, "right") @ v

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        self._assert_inside(x)
        pts = self.points
        idx = int(np.searchsorted(pts, x))
        at_point = idx < pts.size and pts[idx] == x
        if at_point and idx == 0:
            if side == "left":
                raise OutOfInterval("no left limit at the window start")
            return self._one_sided(0, x, "right")
        if at_point and idx == pts.size - 1:
            if side == "right":
                raise OutOfInterval("no right limit at the window end")
            return self._one_sided(idx - 1, x, "left")
        if at_point:
            if side == "left":
                return self._one_sided(idx - 1, x, "left")
            if side == "right":
                return self._one_sided(idx, x, "right")
            return 0.5 * (self._one_sided(idx - 1, x, "left")
                          + self._one_sided(idx, x, "right"))
        j = idx - 1
        if side == "balanced":
            return 0.5 * (self._one_sided(j, x, "left") + self._one_sided(j, x, "right"))
        return self._one_sided(j, x, side)

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
    J = problem.J
    w = problem.w

    if x0 == lo:
        c = u0
    elif x0 == hi:
        full = inhomogeneous_integral(U, w, f, hi) if f is not None else None
        c = np.linalg.solve(U.end_value, u0)
        if full is not None:
            c = c - _solve_j(J, full)
    else:
        integral = (inhomogeneous_integral(U, w, f, x0) if f is not None
                    else np.zeros(problem.n, dtype=complex))
        shift_left = _solve_j(J, integral)
        shift_right = shift_left
        atom = _atom_shift(problem, U, f, x0)
        if atom is not None:
            shift_right = shift_left + atom
        u_left = U.evaluate(x0, "left")
        u_right = U.evaluate(x0, "right")
        balanced = 0.5 * (u_left + u_right)
        offset = 0.5 * (u_left @ shift_left + u_right @ shift_right)
        c = np.linalg.solve(balanced, u0 - offset)
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
        j = int(np.searchsorted(factor.points, mid)) - 1
        j = min(max(j, 0), len(factor.fundamentals) - 1)
        U = factor.fundamentals[j]
        M = U.generator_at(mid)
        n = factor.n
        start = factor.evaluate(s0, "right")
        if factor.rhs is None:
            return np.eye(n, dtype=complex), M, start
        w0 = factor.problem.w.density_at(mid)
        drift = _solve_j(factor.problem.J, w0 @ factor.rhs.value(mid))
        A = np.zeros((n + 1, n + 1), dtype=complex)
        A[:n, :n] = M
        A[:n, n] = drift
        P = np.zeros((n, n + 1), dtype=complex)
        P[:, :n] = np.eye(n)
        y0 = np.concatenate([start, [1.0]])
        return P, A, y0
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
