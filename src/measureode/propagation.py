"""Fundamental matrices, atom transfers and balanced solutions.

Between partition points a system J u' + q u = w f is propagated exactly:
matrix exponentials across the density pieces, transfer matrices through the
regular jumps, and augmented block exponentials for every integral of an
exponential factor.  No step-size control is involved anywhere; the data is
piecewise constant and the formulas are closed.

Every exponential goes through ``expm``, and each routine that needs many of
them (fundamental matrices, node states, moment integrals, pairings) asks for
all of them in one stacked call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import expm as _scipy_expm

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

# (degree m, theta_m, coefficients b_0..b_m) of the diagonal [m/m] Padé
# approximants: below 1-norm theta_m their backward error is at most the unit
# roundoff (N. J. Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0,
                               129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0,
                               40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def expm(A) -> np.ndarray:
    """Exponential of one matrix (m, m) or of every matrix in a stack (..., m, m).

    A single matrix goes to scipy's compiled expm.  A stack goes to batched
    scaling and squaring (Higham 2005): one Padé degree for the stack, chosen
    from its largest 1-norm; above theta_13 each matrix is scaled by its own
    2^-s, and the squarings are applied to the matrices that still need them.
    """
    A = np.asarray(A)
    if A.ndim <= 2:
        return _scipy_expm(A)
    shape, m = A.shape, A.shape[-1]
    A = A.reshape(-1, m, m).astype(np.result_type(A.dtype, float), copy=False)
    if A.shape[0] == 0:
        return A.reshape(shape)
    norms = np.abs(A).sum(axis=1).max(axis=1)
    largest = norms.max()
    for degree, theta, b in _PADE:
        if largest <= theta:
            break
    squarings = None
    if not largest <= theta:
        squarings = np.zeros(norms.shape, dtype=int)
        big = np.isfinite(norms) & (norms > theta)
        squarings[big] = np.ceil(np.log2(norms[big] / theta))
        A = A * np.exp2(-squarings)[:, None, None]
    eye = np.eye(m)
    A2 = A @ A
    if degree == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        odd = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) \
            + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
        V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) \
            + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    else:
        powers = [A2]
        while len(powers) < degree // 2:
            powers.append(powers[-1] @ A2)
        odd, V = b[1] * eye, b[0] * eye
        for k, P in enumerate(powers, 1):
            odd = odd + b[2 * k + 1] * P
            V = V + b[2 * k] * P
    U = A @ odd
    R = np.linalg.solve(V - U, V + U)
    for level in range(0 if squarings is None else int(squarings.max())):
        todo = squarings > level
        if todo.all():
            R = R @ R
        else:
            R[todo] = R[todo] @ R[todo]
    return R.reshape(shape)


def _solve_j(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJ("the leading coefficient matrix is singular") from exc


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return blocks.conj().swapaxes(-1, -2)


def _pieces_at(breakpoints: np.ndarray, table: np.ndarray, xs) -> np.ndarray:
    """Rows of a per-piece table at points off its breakpoints (one piece per gap)."""
    k = np.searchsorted(breakpoints, xs, side="right") - 1
    return table[np.minimum(np.maximum(k, 0), len(table) - 1)]


def segment_exponential(J: np.ndarray, q0: np.ndarray, dx: float) -> np.ndarray:
    """Propagator exp(-dx * J^{-1} q0) across a gap with constant density q0."""
    if dx < 0:
        raise ValueError(f"gap width must be nonnegative, got {dx}")
    generator = -_solve_j(np.asarray(J, dtype=complex), np.asarray(q0, dtype=complex))
    return expm(generator * float(dx))


def segment_integral(A: np.ndarray, dx) -> np.ndarray:
    """Integral of exp(A s) for s from 0 to dx, via one augmented exponential.

    The block matrix [[A, I], [0, 0]] is exponentiated; its upper-right block
    is the desired integral.  Exact up to the accuracy of expm itself.  A
    stack A (K, m, m) with widths dx (K,) gives K integrals in one call.
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[-1]
    block = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    block[..., :m, :m] = A
    block[..., :m, m:] = np.eye(m)
    return expm(block * np.asarray(dx, dtype=float)[..., None, None])[..., :m, m:]


def _convolution(A: np.ndarray, X: np.ndarray, B: np.ndarray, dx) -> np.ndarray:
    """exp(-A dx) times product_integral(A, X, B, dx), from one exponential.

    The upper-right block of exp([[-A, X], [0, B]] dx); stacks broadcast.
    """
    X = np.asarray(X, dtype=complex)
    m, p = X.shape[-2:]
    block = np.zeros(X.shape[:-2] + (m + p, m + p), dtype=complex)
    block[..., :m, :m] = -np.asarray(A)
    block[..., :m, m:] = X
    block[..., m:, m:] = B
    return expm(block * np.asarray(dx, dtype=float)[..., None, None])[..., :m, m:]


def product_integral(A: np.ndarray, X: np.ndarray, B: np.ndarray, dx) -> np.ndarray:
    """Integral of exp(A s) X exp(B s) for s from 0 to dx.

    The block convolution times exp(A dx).  Stacks (K, ...) with widths dx
    (K,) broadcast.
    """
    A, t = np.asarray(A, dtype=complex), np.asarray(dx, dtype=float)[..., None, None]
    return expm(A * t) @ _convolution(A, X, B, dx)


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


class _NodeStates(NamedTuple):
    """Stacked read-only states of a piecewise exponential flow over a window.

    ``nodes`` holds the window ends and every point inside where the
    generator or the state jumps; ``generators[k]`` is the constant generator
    on (nodes[k], nodes[k+1]), ``rights[k]`` the right limit at nodes[k] and
    ``lefts[k]`` the left limit at nodes[k+1].  A state is a matrix (a
    fundamental matrix) or a column (a solution's augmented (u, 1)).
    """

    nodes: np.ndarray
    generators: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray

    def span(self, gaps: slice) -> "_NodeStates":
        """The states of a run of consecutive gaps: views, not copies."""
        return _NodeStates(self.nodes[gaps.start:gaps.stop + 1], self.generators[gaps],
                           self.rights[gaps], self.lefts[gaps])

    def generators_at(self, xs: np.ndarray) -> np.ndarray:
        """Generators of the gaps containing the points xs, all off the nodes."""
        return _pieces_at(self.nodes, self.generators, xs)

    def flow(self, k, x) -> np.ndarray:
        """State at x in the closure of gap k: one exponential from nodes[k].

        A scalar k and x give one state; index and point arrays give a stack
        from one stacked exponential.
        """
        dx = x - self.nodes[k]
        if np.ndim(dx):
            dx = dx[:, None, None]
        return expm(self.generators[k] * dx) @ self.rights[k]

    def value(self, x: float, side: str) -> np.ndarray:
        """State at x; at the window ends the one limit there, whatever the side."""
        nodes = self.nodes
        i = int(np.searchsorted(nodes, x))
        if nodes[i] != x:
            # Off a node the left, right and balanced values coincide.
            return self.flow(i - 1, x)
        if i == 0:
            return self.rights[0]
        if i == nodes.size - 1:
            return self.lefts[-1]
        if side == "left":
            return self.lefts[i - 1]
        if side == "right":
            return self.rights[i]
        return 0.5 * (self.lefts[i - 1] + self.rights[i])

    def limits(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right limits at each point of xs, as ``value`` gives them.

        Off the nodes both limits are the same state, from one stacked flow.
        """
        nodes, gaps = self.nodes, self.generators.shape[0]
        i = np.searchsorted(nodes, xs)
        on = nodes[np.minimum(i, gaps)] == xs
        j = i[on]
        lefts = self.lefts[np.maximum(j - 1, 0)]
        rights = self.rights[np.minimum(j, gaps - 1)]
        left = np.empty((xs.size,) + self.rights.shape[1:], dtype=complex)
        right = np.empty_like(left)
        left[on] = np.where((j == 0)[:, None, None], rights, lefts)
        right[on] = np.where((j == gaps)[:, None, None], lefts, rights)
        off = ~on
        if off.any():
            left[off] = right[off] = self.flow(i[off] - 1, xs[off])
        return left, right


class FundamentalMatrix:
    """Balanced fundamental matrix of J u' + q u = 0 on one subinterval.

    Normalized to the identity as the right limit at the left endpoint; the
    value attributed to the right endpoint is the left limit there.  All jumps
    strictly inside must be regular.  Its ``states`` and ``transfers`` are
    views of its run ``gaps`` of the read-only states and transfers that one
    build stepped for a whole partition.
    """

    def __init__(self, J, partition_states: _NodeStates, partition_transfers, gaps: slice):
        self.J, self.gaps = J, gaps
        self.partition_states = partition_states
        self.partition_transfers = partition_transfers
        self.states = partition_states.span(gaps)
        self.transfers = partition_transfers[gaps.start + 1:gaps.stop]  # at interior nodes
        self.lo, self.hi = float(self.states.nodes[0]), float(self.states.nodes[-1])

    @property
    def nodes(self) -> np.ndarray:
        """p_0 = lo < ... < p_K = hi: the ends and the q-structure inside."""
        return self.states.nodes

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @property
    def end_value(self) -> np.ndarray:
        """Left limit at the right endpoint."""
        return self.states.lefts[-1]

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        if not (self.lo <= x <= self.hi):
            raise OutOfInterval(f"{x} is outside [{self.lo}, {self.hi}]")
        return self.states.value(x, side)

    def __call__(self, x: float, side: str = "balanced") -> np.ndarray:
        return self.evaluate(x, side)


def _carry(generators, widths, starts: dict, jump) -> tuple[np.ndarray, np.ndarray]:
    """Read-only right and left limits of a state carried across consecutive gaps.

    One stacked expm steps every gap.  Gap k starts from starts[k] where that
    is given, else from jump(k, y), y being the left limit that ends gap k - 1.
    """
    steps = expm(generators * widths[:, None, None])
    rights = np.empty(steps.shape[:1] + starts[0].shape, dtype=complex)
    lefts = np.empty_like(rights)
    for k, step in enumerate(steps):
        y = starts[k] if k in starts else jump(k, y)
        rights[k] = y
        y = lefts[k] = step @ y
    return _freeze(rights), _freeze(lefts)


def _fundamental_matrices(problem: Problem, points, tol_sing: float = DEFAULT_TOL_SING
                          ) -> list[FundamentalMatrix]:
    """Fundamental matrices on the subintervals between consecutive points.

    One stacked expm steps every gap into one set of node states; transfers[k]
    enters gap k (the identity where no atom is, and where a subinterval
    restarts from the identity).
    """
    a, b = problem.interval
    J, q, n = problem.J, problem.q, problem.n
    points = np.asarray(points, dtype=float)
    lo, hi = float(points[0]), float(points[-1])
    if not (a <= lo and hi <= b and np.all(np.diff(points) > 0)):
        raise OutOfInterval(f"{points.tolist()} do not partition part of [{a}, {b}]")
    atom_pos, atom_mats = q.atoms_between(lo, hi)
    bkpts = q.breakpoints[(q.breakpoints > lo) & (q.breakpoints < hi)]
    nodes = _freeze(np.unique(np.concatenate([points, atom_pos, bkpts])))
    firsts = np.searchsorted(nodes, points).tolist()
    eye = np.eye(n, dtype=complex)
    starts = dict.fromkeys(firsts[:-1], eye)
    atom_at = dict(zip(atom_pos.tolist(), atom_mats))
    inner = {k: atom_transfer(J, atom_at[x], tol_sing, position=x)
             for k, x in enumerate(nodes[:-1].tolist()) if x in atom_at and k not in starts}
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    generators = _freeze(-_solve_j(J, _pieces_at(q.breakpoints, q.densities, mids)))
    rights, lefts = _carry(generators, np.diff(nodes), starts,
                           lambda k, y: inner[k] @ y if k in inner else y)
    states = _NodeStates(nodes, generators, rights, lefts)
    transfers = _freeze(np.array([inner.get(k, eye) for k in range(nodes.size - 1)]))
    return [FundamentalMatrix(J, states, transfers, slice(first, stop))
            for first, stop in zip(firsts[:-1], firsts[1:])]


def _partition_states(fundamentals, points) -> tuple[_NodeStates, np.ndarray]:
    """Views of the states and transfers of fundamentals on (points[j], points[j+1]).

    WindowMismatch unless they are consecutive subintervals of one build.
    """
    spans = list(zip(points[:-1], points[1:]))
    one_build = all(V.partition_states is U.partition_states and V.gaps.start == U.gaps.stop
                    for U, V in zip(fundamentals, fundamentals[1:]))
    if not one_build or [U.interval for U in fundamentals] != spans:
        raise WindowMismatch("fundamental matrices must be consecutive subintervals "
                             "of one build, spanning the partition")
    first = fundamentals[0]
    gaps = slice(first.gaps.start, fundamentals[-1].gaps.stop)
    return first.partition_states.span(gaps), first.partition_transfers[gaps]


def fundamental_matrix(problem: Problem, sub, tol_sing: float = DEFAULT_TOL_SING
                       ) -> FundamentalMatrix:
    """Build the fundamental matrix on (lo, hi); SingularAtom if a jump inside is."""
    return _fundamental_matrices(problem, sub, tol_sing)[0]


def _check_rhs(f, lo: float, hi: float) -> None:
    if not f.covers(lo, hi):
        raise NotRepresentable(
            f"right-hand side lives on {f.window}, which does not cover [{lo}, {hi}]")


class PiecewiseSolution:
    """A balanced solution described per subinterval of a partition.

    Stores the partition points, one fundamental matrix U_j and one read-only
    coefficient vector c_j (the right limit at the subinterval's start) per
    subinterval, and the right-hand side (None for homogeneous).  It keeps
    views of the node states of its fundamental matrices, consecutive
    subintervals of one build.  A homogeneous solution's node states are
    U_j(node+-) c_j, with no exponential of their own.
    With a rhs the nodes include where w or f change; exponentials of
    [[-J^{-1} q0, J^{-1} w0 f0], [0, 0]], one stacked call, carry (u, 1) from
    (c_j, 1) across the gaps, and the jump rule (J + dq/2) u+ = (J - dq/2) u-
    + dw f links the two limits at each interior atom.  A value at a node is a
    stored limit; anywhere else it is one exponential from the node to its
    left.  Outside the window evaluation raises.
    """

    def __init__(self, problem: Problem, points, fundamentals, coefficients,
                 rhs: L2Function | None = None):
        self.problem = problem
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise DimensionMismatch("a solution needs at least one subinterval")
        self.fundamentals = list(fundamentals)
        self._homogeneous, _ = _partition_states(self.fundamentals, self.points)
        if len(coefficients) != self.points.size - 1:
            raise DimensionMismatch("one coefficient vector per subinterval required")
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
        pieces = [self._homogeneous.nodes]
        if self.rhs is not None:
            pieces += [self.rhs.structure_points(), self.problem.w.structure_points()]
        return np.unique(np.concatenate(pieces))

    def _node_states(self) -> _NodeStates:
        """States at every node, built on first use as the class describes."""
        if self._states is not None:
            return self._states
        homogeneous = self._homogeneous
        f, problem, n = self.rhs, self.problem, self.n
        if f is None:
            c = np.repeat(np.array(self.coefficients),
                          [U.nodes.size - 1 for U in self.fundamentals], axis=0)[..., None]
            self._states = homogeneous._replace(rights=_freeze(homogeneous.rights @ c),
                                                lefts=_freeze(homogeneous.lefts @ c))
            return self._states
        q, w = problem.q, problem.w
        _check_rhs(f, *self.window)
        nodes = self.structure_points()
        nodes = nodes[(nodes >= self.points[0]) & (nodes <= self.points[-1])]
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        generators = np.zeros((mids.size, n + 1, n + 1), dtype=complex)
        generators[:, :n, :n] = homogeneous.generators_at(mids)
        loads = (_pieces_at(w.breakpoints, w.densities, mids)
                 @ _pieces_at(f.breakpoints, f.piece_values, mids)[..., None])
        generators[:, :n, n:] = _solve_j(problem.J, loads)
        atoms = np.isin(nodes, q.atom_positions) | np.isin(nodes, w.atom_positions)
        # At a partition point the coupling equation holds the jump.
        starts = {int(k): np.append(c, 1.0)[:, None] for k, c in
                  zip(np.searchsorted(nodes, self.points[:-1]), self.coefficients)}

        def jump(k, y):
            if not atoms[k]:
                return y
            x = float(nodes[k])
            load = w.jump(x) @ f.value(x, "balanced")
            if not (q.jump(x).any() or load.any()):
                return y
            u = np.linalg.solve(problem.b_plus(x), problem.b_minus(x) @ y[:n, 0] + load)
            return np.vstack([u[:, None], y[n:]])

        rights, lefts = _carry(generators, np.diff(nodes), starts, jump)
        self._states = _NodeStates(nodes, _freeze(generators), rights, lefts)
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
        return self._node_states().value(x, side)[:self.n, 0]

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


def _pairing_form(factor, n: int, mids: np.ndarray, atoms: np.ndarray,
                  starts: np.ndarray, ends: np.ndarray):
    """A factor on the pieces of a pairing grid and at the w-atoms.

    Returns (P, A, y, z, a): on the piece from starts[k] the factor's value is
    P exp(A[k] s) y[k] (P one matrix, or one per piece), z[k] is its left
    limit at ends[k] (``ends`` may be empty) and a[i] its balanced value at
    atoms[i].  Values are columns (n, 1), or (n, n) for the matrix states of
    fundamental matrices.
    """
    if isinstance(factor, L2Function):
        values = _pieces_at(factor.breakpoints, factor.piece_values, mids)
        balanced = np.array([factor.value(float(x), "balanced") for x in atoms])
        return (values[..., None], np.zeros((mids.size, 1, 1), dtype=complex),
                np.ones((starts.size, 1, 1), dtype=complex),
                np.ones((ends.size, 1, 1), dtype=complex), balanced.reshape(-1, n, 1))
    K, L = starts.size, starts.size + ends.size
    left, right = factor.limits(np.concatenate([starts, ends, atoms]))
    return (np.eye(n, factor.generators.shape[-1], dtype=complex),
            factor.generators_at(mids), right[:K], left[K:L],
            0.5 * (left[L:, :n] + right[L:, :n]))


def _pairings(w: MeasureMatrix, u, v, edges) -> np.ndarray:
    """Integral of u^* w v over each open interval (edges[i], edges[i+1]).

    A factor is a balanced solution, a representable function or the node
    states of fundamental matrices (matrix-valued); row i holds the pairings
    of u's columns with v's.  Atoms of w strictly inside an interval
    contribute with balanced values, atoms at the edges do not.  One grid,
    one ``limits`` call per state factor (u's at both piece ends, as
    y_u^* exp(A_u^* dx) is u's end state) and one stacked _convolution cover
    every interval.
    """
    u, v = (f._node_states() if isinstance(f, PiecewiseSolution) else f for f in (u, v))
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[0], edges[-1]
    cuts = np.concatenate([edges, w.breakpoints, w.atom_positions] + [
        f.nodes if isinstance(f, _NodeStates) else f.structure_points() for f in (u, v)])
    grid = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    mids = 0.5 * (grid[:-1] + grid[1:])
    w0 = _pieces_at(w.breakpoints, w.densities, mids)
    keep = w0.any(axis=(1, 2))
    starts, ends, mids, w0 = grid[:-1][keep], grid[1:][keep], mids[keep], w0[keep]
    positions, matrices = w.atoms_between(lo, hi)
    inside = ~np.isin(positions, edges)
    positions, matrices = positions[inside], matrices[inside]

    Pu, Au, yu, zu, au = _pairing_form(u, w.n, mids, positions, starts, ends)
    Pv, Av, yv, _, av = (Pu, Au, yu, zu, au) if v is u else \
        _pairing_form(v, w.n, mids, positions, starts, ends[:0])
    kernel = _convolution(_adjoint(Au), _adjoint(Pu) @ w0 @ Pv, Av, ends - starts)
    pieces = _adjoint(zu) @ kernel @ yv
    out = np.zeros((edges.size - 1,) + pieces.shape[1:], dtype=complex)
    np.add.at(out, np.searchsorted(edges, mids) - 1, pieces)
    np.add.at(out, np.searchsorted(edges, positions) - 1, _adjoint(au) @ (matrices @ av))
    return out


def inhomogeneous_integral(U: FundamentalMatrix, w: MeasureMatrix,
                           f: L2Function | None, upto: float) -> np.ndarray:
    """Integral of U^* w f over the open interval (lo, upto).

    Interior atoms of w contribute with the balanced value of U and the
    stored value of f; an atom exactly at ``upto`` is excluded (it belongs to
    the point, not to the open interval).
    """
    if not U.lo <= upto <= U.hi:
        raise OutOfInterval(f"upper limit {upto} outside [{U.lo}, {U.hi}]")
    if f is None or upto == U.lo:
        return np.zeros(U.n, dtype=complex)
    _check_rhs(f, U.lo, upto)
    return _pairings(w, U.states, f, [U.lo, upto])[0, :, 0]


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
    return complex(_pairings(w, u, v, [lo, hi])[0, 0, 0])
