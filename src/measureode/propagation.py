"""Fundamental matrices, atom transfers and balanced solutions.

Between partition points a system J u' + q u = w f is propagated exactly:
matrix exponentials across the density pieces, transfer matrices through the
regular jumps, and augmented block exponentials for every integral of an
exponential factor.  No step-size control is involved anywhere; the data is
piecewise constant and the formulas are closed.

Every exponential goes through ``expm``, and each routine that needs many of
them (fundamental matrices, node states, moment integrals, pairings) asks for
all of them in one stacked call.  A pointwise value off the nodes takes none:
it is read from a Taylor table kept by the factor it belongs to, and so is a
solution's w-integral with itself.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import pairwise

import numpy as np

from .coefficients import (_SIDES, DEFAULT_TOL_SING, MeasureMatrix, Problem, _freeze,
                           _member, _union, _window_ends)
from .errors import (
    DimensionMismatch,
    NotRepresentable,
    OutOfInterval,
    SingularAtom,
    SingularInitialPoint,
    SingularJ,
    WindowMismatch,
)
from .functions import L2Function
from .partition import _singular

IVP_MATCH_TOL = 1e-8  # a solution's own value at x0 against u0, relative to 1 + |u0|

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

# Below degree 13, the rows of odd and even coefficients (b_1, b_3, ...) and
# (b_0, b_2, ...) that weight I, A^2, A^4, ... in the two Padé sums.
_PADE_SUMS = {degree: np.array([b[1::2], b[0::2]]) for degree, _, b in _PADE[:-1]}


def expm(A) -> np.ndarray:
    """Exponential of one matrix (m, m) or of every matrix in a stack (..., m, m).

    Batched scaling and squaring (Higham 2005); one matrix is a stack of one.
    One Padé degree serves the stack, chosen from its largest 1-norm; above
    theta_13 each matrix is scaled by its own 2^-s, and the squarings are
    applied to the matrices that still need them.
    """
    A = np.asarray(A)
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
        # I, A^2, A^4, ... stacked, and both sums from one contraction.
        powers = np.empty((degree // 2 + 1,) + A2.shape, dtype=A2.dtype)
        powers[0], powers[1] = eye, A2
        for k in range(2, powers.shape[0]):
            np.matmul(powers[k - 1], A2, out=powers[k])
        odd, V = (_PADE_SUMS[degree] @ powers.reshape(powers.shape[0], -1)).reshape(
            (2,) + A2.shape)
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
    # Each x lies above breakpoints[0]; at the last breakpoint it reads the last row.
    return table[np.minimum(np.searchsorted(breakpoints, xs, side="right") - 1, len(table) - 1)]


def segment_exponential(J: np.ndarray, q0: np.ndarray, dx: float) -> np.ndarray:
    """Propagator exp(-dx * J^{-1} q0) across a gap with constant density q0."""
    if dx < 0:
        raise ValueError(f"gap width must be nonnegative, got {dx}")
    generator = -_solve_j(np.asarray(J, dtype=complex), np.asarray(q0, dtype=complex))
    return expm(generator * float(dx))


def segment_integral(A: np.ndarray, dx) -> np.ndarray:
    """Integral of exp(A s) for s from 0 to dx: the upper-right block of
    exp([[A, I], [0, 0]] dx), a block convolution.  Exact up to the accuracy of
    expm itself.  A stack A (K, m, m) with widths dx (K,) gives K integrals in one call.
    """
    A = np.asarray(A, dtype=complex)
    return _convolution(-A, np.broadcast_to(np.eye(A.shape[-1]), A.shape), None, dx)


def _convolution(A: np.ndarray | None, X: np.ndarray, B: np.ndarray | None, dx
                 ) -> np.ndarray:
    """exp(-A dx) times product_integral(A, X, B, dx), from one exponential.

    The upper-right block of exp([[-A, X], [0, B]] dx); stacks broadcast.
    A or B None is a zero generator.
    """
    X = np.asarray(X, dtype=complex)
    m, p = X.shape[-2:]
    block = np.zeros(X.shape[:-2] + (m + p, m + p), dtype=complex)
    if A is not None:
        block[..., :m, :m] = -np.asarray(A)
    block[..., :m, m:] = X
    if B is not None:
        block[..., m:, m:] = B
    return expm(block * np.asarray(dx, dtype=float)[..., None, None])[..., :m, m:]


def product_integral(A: np.ndarray, X: np.ndarray, B: np.ndarray, dx) -> np.ndarray:
    """Integral of exp(A s) X exp(B s) for s from 0 to dx.

    The block convolution times exp(A dx).  Stacks (K, ...) with widths dx
    (K,) broadcast.
    """
    A, t = np.asarray(A, dtype=complex), np.asarray(dx, dtype=float)[..., None, None]
    return expm(A * t) @ _convolution(A, X, B, dx)


def _transfers(J: np.ndarray, dq: np.ndarray, tol_sing: float, positions) -> np.ndarray:
    """(J + dq/2)^{-1} (J - dq/2) through each jump of a stack (K, n, n), from one
    stacked svd and solve; SingularAtom at the first singular one, at positions[k]."""
    b_plus = J + 0.5 * dq
    sigmas = np.linalg.svd(b_plus, compute_uv=False)
    singular = np.flatnonzero(_singular(sigmas, tol_sing))
    if singular.size:
        k = singular[0]
        where = "" if positions[k] is None else f" at x={positions[k]}"
        raise SingularAtom(f"jump{where} is singular (sigma_min={sigmas[k, -1]:.3e}); "
                           "the point must become a partition point", positions[k])
    return np.linalg.solve(b_plus, J - 0.5 * dq)


def atom_transfer(J: np.ndarray, dq: np.ndarray, tol_sing: float = DEFAULT_TOL_SING,
                  position: float | None = None) -> np.ndarray:
    """Transfer matrix (J + dq/2)^{-1} (J - dq/2) through a regular jump."""
    J = np.asarray(J, dtype=complex)
    dq = np.asarray(dq, dtype=complex)
    if J.shape != dq.shape:
        raise DimensionMismatch("jump matrix must match the system size")
    return _transfers(J, dq[None], tol_sing, [position])[0]


# Off-node values come from a Taylor table, the truncated-Taylor action of
# the exponential (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)).  Each
# gap is split into sub-gaps of width delta with ||G||_1 delta <= _TAYLOR_THETA;
# on the sub-gap from xi, Y(xi + r delta) for 0 <= r <= 1 is the sum over
# j <= _TAYLOR_DEGREE of r^j (delta G)^j Y(xi) / j!.  The truncation error is
# at most theta^(P+1) e^theta / (P+1)! ||Y(xi)||_1 = 2.2e-17 ||Y(xi)||_1.
_TAYLOR_THETA = 1.0
_TAYLOR_DEGREE = 18
# Real, as the terms are read through their real view; a read views its dot
# back as _COMPLEX, a dtype built once instead of converted on every read.
_TAYLOR_POWERS = np.arange(_TAYLOR_DEGREE + 1, dtype=float)
_COMPLEX = np.dtype(complex)
# A solution's own w-integral over a whole sub-gap (``_self_pairings``) weighs
# the product of terms i and j by 1/(i + j + 1), the integral of r^(i+j).
_HILBERT = 1.0 / np.add.outer(_TAYLOR_POWERS, _TAYLOR_POWERS + 1)


class _Sampler:
    """A factor's values at single points strictly inside its window.

    A value is the first n rows of a state, flattened: a solution's u, or a
    whole fundamental matrix.  ``starts`` and ``widths`` (tuples of floats)
    are the Taylor table's sub-gaps, gap k of width h_k split into max(1,
    ceil(||G_k||_1 h_k / theta)); ``nodes[s]`` is the interior node at
    starts[s], else 0.  ``terms[s]``, the real view of the values of
    (delta_s G)^j Y(starts[s]) / j!, is sub-gap s's contiguous row, which
    ``read`` dots with r^j (r in [0, 1)); ``lefts`` and ``rights`` hold the
    values of the node limits.  Both factor kinds read every interior point
    through ``read``.  The same sub-gaps are kept stacked for a solution's
    own w-integral, which sums whole sub-gaps (``_self_pairings``):
    ``origins`` and ``deltas`` (arrays of the starts and widths) and
    ``rows``, the complex (S, _TAYLOR_DEGREE + 1, n k) array of which
    ``terms`` holds the real views.
    """

    def __init__(self, states: _NodeStates, n: int):
        widths = np.diff(states.nodes)
        norms = np.abs(states.generators).sum(axis=-2).max(axis=-1)
        pieces = np.maximum(np.ceil(norms * widths / _TAYLOR_THETA), 1).astype(int)
        gap = np.repeat(np.arange(pieces.size), pieces)
        offset = np.arange(gap.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        delta = (widths / pieces)[gap]
        starts = states.nodes[gap] + offset * delta
        state = states.rights[gap]
        inner = offset > 0
        if inner.any():
            state[inner] = states.flow(gap[inner], starts[inner])
        steps = states.generators[gap] * delta[:, None, None]
        terms = [state]
        for j in range(1, _TAYLOR_DEGREE + 1):
            terms.append(steps @ terms[-1] / j)
        self.starts, self.widths = tuple(starts.tolist()), tuple(delta.tolist())
        self.nodes = tuple(np.where(offset == 0, gap, 0).tolist())
        self.origins, self.deltas = _freeze(starts), _freeze(delta)
        self.rows = _freeze(np.ascontiguousarray(_head(np.stack(terms, axis=1), n)))
        self.terms = tuple(self.rows.view(float))
        self.lefts, self.rights = _head(states.lefts, n), _head(states.rights, n)

    def read(self, x: float, side: str) -> np.ndarray:
        """The value at a float x strictly inside the window: at an interior
        node the stored limit on ``side``, elsewhere one real dot of r^j with
        the sub-gap's row, viewed as complex."""
        s = bisect_right(self.starts, x) - 1
        start, i = self.starts[s], self.nodes[s]
        if x == start and i:
            if side == "left":
                return self.lefts[i - 1]
            if side == "right":
                return self.rights[i]
            return 0.5 * (self.lefts[i - 1] + self.rights[i])
        return (((x - start) / self.widths[s]) ** _TAYLOR_POWERS).dot(self.terms[s]).view(_COMPLEX)


def _head(states: np.ndarray, n: int) -> np.ndarray:
    """The first n rows of each state in a stack (..., m, k), flattened to (..., n k)."""
    return states[..., :n, :].reshape(states.shape[:-2] + (-1,))


class _NodeStates:
    """Stacked read-only states of a piecewise exponential flow over a window.

    ``nodes`` holds the window ends and every point inside where the
    generator or the state jumps; ``generators[k]`` is the constant generator
    on (nodes[k], nodes[k+1]), ``rights[k]`` the right limit at nodes[k] and
    ``lefts[k]`` the left limit at nodes[k+1].  ``starts`` indexes the
    nodes at the partition points: subinterval j is the run of gaps
    starts[j] .. starts[j+1] - 1, and the state restarts at its first node
    (from the identity for fundamental matrices, from c_j for a solution).
    A state is a matrix (a fundamental matrix) or a column (a solution's
    augmented (u, 1)).  The pairing table of a build's fundamental
    matrices with themselves (``table``) is built on first use and belongs
    to these states alone: a copy or a ``span`` starts without it.  Read-only,
    and equal only to themselves.
    """

    def __init__(self, nodes: np.ndarray, generators: np.ndarray, rights: np.ndarray,
                 lefts: np.ndarray, starts: np.ndarray):
        vars(self).update(nodes=nodes, generators=generators, rights=rights, lefts=lefts,
                          starts=starts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of node states")

    def span(self, first: int, stop: int) -> "_NodeStates":
        """The states of gaps first .. stop - 1 as one subinterval: views, not copies."""
        return _NodeStates(self.nodes[first:stop + 1], self.generators[first:stop],
                           self.rights[first:stop], self.lefts[first:stop],
                           _freeze(np.array([0, stop - first])))

    def flow(self, k: np.ndarray, x: np.ndarray) -> np.ndarray:
        """States at the points x, each in the closure of its gap k.

        One stacked exponential from the nodes to their right; a single point
        off the nodes is read from a factor's ``_Sampler`` instead.
        """
        dx = x - self.nodes[k]
        return expm(self.generators[k] * dx[:, None, None]) @ self.rights[k]

    def table(self, w: MeasureMatrix, edges) -> _PairingTable:
        """The pairing table over edges against w of these fundamental-matrix
        states with themselves, built by ``_pairing_table`` on first use.

        One slot keeps it, keyed by w's identity and the edges, until a
        pairing asks for another weight or other edges; it is freed with the
        states.  A rhs f's table belongs to its ``MomentVectors`` instead.
        """
        key = (w, tuple(np.asarray(edges, dtype=float).tolist()))
        if key not in vars(self).get("_tables", {}):
            # The slot goes in the instance dict, as the states refuse assignment.
            vars(self)["_tables"] = {key: _pairing_table(self, w, edges)}
        return self._tables[key]

    def limits(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Left and right limits at each point of xs; at the window ends the one limit there.

        Off the nodes both limits are the same state, from one stacked flow
        in which each distinct point flows once.
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
        off = np.flatnonzero(~on)
        if off.size:
            # The sort and neighbour test of ``_union``: flow the first of each
            # run of equal points, then scatter back.
            order = off[np.argsort(xs[off], kind="stable")]
            x = xs[order]
            first = np.concatenate(([True], x[1:] != x[:-1]))
            flowed = self.flow(i[order[first]] - 1, x[first])
            if not first.all():
                flowed = flowed[np.cumsum(first) - 1]
            left[order] = right[order] = flowed
        return left, right


class FundamentalMatrix:
    """Balanced fundamental matrix of J u' + q u = 0 on one subinterval.

    Normalized to the identity as the right limit at the left endpoint; the
    value attributed to the right endpoint is the left limit there.  All jumps
    strictly inside must be regular.  ``states`` and ``transfers`` (one per
    atom inside, in order) are views of the read-only states and transfers
    that one build stepped for a whole partition (``_fundamentals``).  ``evaluate``
    reads a point off the ends through the matrix's own ``_Sampler.read``,
    the sampler built on the first such read.
    """

    def __init__(self, J, states: _NodeStates, transfers: np.ndarray):
        self.J, self.states, self.transfers = J, states, transfers
        self.lo, self.hi = float(states.nodes[0]), float(states.nodes[-1])

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def interval(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    @cached_property
    def _sampler(self) -> _Sampler:
        return _Sampler(self.states, self.n)

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        x = float(x)
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        if self.lo < x < self.hi:
            return self._sampler.read(x, side).reshape(self.J.shape)
        if not (self.lo <= x <= self.hi):
            raise OutOfInterval(f"{x} is outside [{self.lo}, {self.hi}]")
        return self.states.rights[0] if x == self.lo else self.states.lefts[-1]


def _carry(generators, widths, starts: dict, jump) -> tuple[np.ndarray, np.ndarray]:
    """Read-only right and left limits of a state carried across consecutive gaps.

    One stacked expm steps every gap.  Gap k starts from starts[k] where that
    is given, else from jump(k, y), y being the left limit that ends gap k - 1.
    """
    rights, lefts = [], []
    for k, step in enumerate(expm(generators * widths[:, None, None])):
        y = starts[k] if k in starts else jump(k, y)
        rights.append(y)
        lefts.append(y := step @ y)
    return _freeze(np.array(rights)), _freeze(np.array(lefts))


def _fundamental_matrices(problem: Problem, points, tol_sing: float = DEFAULT_TOL_SING
                          ) -> tuple[_NodeStates, np.ndarray, np.ndarray]:
    """Node states and atom transfers of the fundamental matrices between consecutive points.

    One stacked expm steps every gap into one set of node states, which
    restart from the identity at each point.  Returns (states, transfers,
    inner): transfers[i] carries the states through the atom at node
    inner[i], for each atom strictly inside a subinterval, in order.
    """
    a, b = problem.interval
    J, q, n = problem.J, problem.q, problem.n
    points = np.asarray(points, dtype=float)
    lo, hi = float(points[0]), float(points[-1])
    if not (a <= lo and hi <= b and np.all(np.diff(points) > 0)):
        raise OutOfInterval(f"{points.tolist()} do not partition part of [{a}, {b}]")
    atom_pos, atom_mats = q.atoms_between(lo, hi)
    bkpts = q.breakpoints[(q.breakpoints > lo) & (q.breakpoints < hi)]
    nodes = _freeze(_union(points, atom_pos, bkpts))
    firsts = np.searchsorted(nodes, points).tolist()
    eye = np.eye(n, dtype=complex)
    starts = dict.fromkeys(firsts[:-1], eye)
    # The atoms inside a subinterval: one stacked transfer through all of them.
    inside = [k for k in np.flatnonzero(_member(nodes[:-1], atom_pos)).tolist()
              if k not in starts]
    transfers = np.empty((0, n, n), dtype=complex)
    if inside:
        xs = nodes[inside]
        transfers = _transfers(J, atom_mats[np.searchsorted(atom_pos, xs)], tol_sing,
                               xs.tolist())
    inner = dict(zip(inside, transfers))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    generators = _freeze(-_solve_j(J, _pieces_at(q.breakpoints, q.densities, mids)))
    rights, lefts = _carry(generators, np.diff(nodes), starts,
                           lambda k, y: inner[k] @ y if k in inner else y)
    states = _NodeStates(nodes, generators, rights, lefts, _freeze(np.array(firsts)))
    return states, _freeze(transfers), _freeze(np.array(inside, dtype=int))


def _fundamentals(J: np.ndarray, states: _NodeStates, transfers: np.ndarray,
                  inner: np.ndarray) -> list[FundamentalMatrix]:
    """The fundamental matrix on each subinterval of one build: views of its
    states, and of the transfers through its atoms (at nodes ``inner``)."""
    cuts = np.searchsorted(inner, states.starts).tolist()
    return [FundamentalMatrix(J, states.span(first, stop), transfers[a:b])
            for (first, stop), (a, b) in zip(pairwise(states.starts.tolist()),
                                              pairwise(cuts))]


def _homogeneous_states(states: _NodeStates, coefficients) -> _NodeStates:
    """Node states of homogeneous solutions U_j c_j, one column per solution.

    ``states`` are the node states of one build's fundamental matrices;
    ``coefficients`` (N+1, n, d) holds the c_j of d solutions as columns.
    No exponential: the states are the build's times the coefficient rows.
    """
    c = np.repeat(coefficients, np.diff(states.starts), axis=0)
    return _NodeStates(states.nodes, states.generators, _freeze(states.rights @ c),
                       _freeze(states.lefts @ c), states.starts)


def fundamental_matrix(problem: Problem, sub, tol_sing: float = DEFAULT_TOL_SING
                       ) -> FundamentalMatrix:
    """Build the fundamental matrix on (lo, hi); SingularAtom if a jump inside is."""
    return _fundamentals(problem.J, *_fundamental_matrices(problem, sub, tol_sing))[0]


def _check_rhs(f, n: int, lo: float, hi: float) -> None:
    if f.n != n:
        raise DimensionMismatch(f"right-hand side has length {f.n}, the system size is {n}")
    if not f.covers(lo, hi):
        raise NotRepresentable(
            f"right-hand side lives on {f.window}, which does not cover [{lo}, {hi}]")


class PiecewiseSolution:
    """A balanced solution described per subinterval of a partition.

    Reads one build's node states of the fundamental matrices U_j (a
    BlockSystem's ``states``, or a FundamentalMatrix's) and stores the
    read-only coefficient vectors c_j (the right limit at the subinterval's
    start) as the rows of ``coefficients`` and the right-hand side (None for
    homogeneous).  Its read-only partition points are the nodes at the
    states' ``starts``.  A homogeneous solution's node states are
    U_j(node+-) c_j, with no exponential of their own, and two homogeneous
    solutions of the same states pair through a pairing table cached on
    them, from their coefficient rows alone.
    With a rhs the nodes include where w or f change; exponentials of
    [[-J^{-1} q0, J^{-1} w0 f0], [0, 0]], one stacked call, carry (u, 1) from
    (c_j, 1) across the gaps, and the jump rule (J + dq/2) u+ = (J - dq/2) u-
    + dw f links the two limits at each interior atom.  ``evaluate`` takes x
    as a float; at a window end it returns the stored limit there, building
    no sampler, and anywhere else it reads the solution's ``_Sampler``, built
    on the first such value, with no exponential per call; the solution's
    w-integral with itself reads the same sampler.  The window ends
    and ``n`` are Python scalars fixed at construction.  Outside the window
    evaluation raises.  A rhs of another length than n, or one that does not
    cover the window, raises at construction.
    """

    def __init__(self, problem: Problem, states: _NodeStates, coefficients,
                 rhs: L2Function | None = None):
        self.problem = problem
        self._homogeneous = states
        self.points = _freeze(states.nodes[states.starts])
        self.window = (float(self.points[0]), float(self.points[-1]))
        self.n = n = problem.n
        if len(coefficients) != self.points.size - 1:
            raise DimensionMismatch("one coefficient vector per subinterval required")
        try:
            self.coefficients = _freeze(
                np.array(coefficients, dtype=complex).reshape(len(coefficients), n))
        except ValueError:
            raise DimensionMismatch(f"coefficient vectors must have length {n}") from None
        if rhs is not None:
            _check_rhs(rhs, n, *self.window)
        self.rhs = rhs
        self._states: _NodeStates | None = None

    def covers(self, lo: float, hi: float) -> bool:
        return self.window[0] <= lo and hi <= self.window[1]

    def structure_points(self) -> np.ndarray:
        """Partition points and the points where q, or with a rhs w or f, changes."""
        pieces = [self._homogeneous.nodes]
        if self.rhs is not None:
            pieces += [self.rhs.structure_points(), self.problem.w.structure_points()]
        return _union(*pieces)

    def _node_states(self) -> _NodeStates:
        """States at every node, built on first use as the class describes."""
        if self._states is not None:
            return self._states
        homogeneous = self._homogeneous
        f, problem, n = self.rhs, self.problem, self.n
        if f is None:
            self._states = _homogeneous_states(homogeneous, self.coefficients[..., None])
            return self._states
        J, q, w = problem.J, problem.q, problem.w
        nodes = self.structure_points()
        nodes = nodes[(nodes >= self.points[0]) & (nodes <= self.points[-1])]
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        generators = np.zeros((mids.size, n + 1, n + 1), dtype=complex)
        generators[:, :n, :n] = _pieces_at(homogeneous.nodes, homogeneous.generators, mids)
        loads = (_pieces_at(w.breakpoints, w.densities, mids)
                 @ _pieces_at(f.breakpoints, f.piece_values, mids)[..., None])
        generators[:, :n, n:] = _solve_j(J, loads)
        firsts = np.searchsorted(nodes, self.points)
        # At a partition point the coupling equation holds the jump.
        starts = {k: np.append(c, 1.0)[:, None]
                  for k, c in zip(firsts[:-1].tolist(), self.coefficients)}
        # The jump data at each atom node, looked up once: (J + dq/2, J - dq/2, dw f).
        jumps, atoms = {}, _member(nodes, q.atom_positions) | _member(nodes, w.atom_positions)
        atoms[firsts] = False
        for k, x in zip(np.flatnonzero(atoms).tolist(), nodes[atoms].tolist()):
            dq, load = q.jump(x), w.jump(x) @ f.value(x, "balanced")
            if dq.any() or load.any():
                jumps[k] = (J + 0.5 * dq, J - 0.5 * dq, load)

        def jump(k, y):
            if k not in jumps:
                return y
            b_plus, b_minus, load = jumps[k]
            return np.concatenate([np.linalg.solve(b_plus, b_minus @ y[:n, 0] + load)[:, None],
                                   y[n:]])

        rights, lefts = _carry(generators, np.diff(nodes), starts, jump)
        self._states = _NodeStates(nodes, _freeze(generators), rights, lefts, _freeze(firsts))
        return self._states

    @cached_property
    def _sampler(self) -> _Sampler:
        return _Sampler(self._node_states(), self.n)

    def evaluate(self, x: float, side: str = "balanced") -> np.ndarray:
        x = float(x)
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        lo, hi = self.window
        if lo < x < hi:
            return self._sampler.read(x, side)
        if not (lo <= x <= hi):
            raise OutOfInterval(f"{x} is outside the solution window [{lo}, {hi}]")
        if x == lo:
            if side == "left":
                raise OutOfInterval("no left limit at the window start")
            return self._node_states().rights[0, :self.n, 0]
        if side == "right":
            raise OutOfInterval("no right limit at the window end")
        return self._node_states().lefts[-1, :self.n, 0]

    def evaluate_many(self, xs) -> np.ndarray:
        """Balanced values (len(xs), n) at every point of xs.

        (left + right)/2 from one ``limits`` call, so every point off the
        nodes shares one stacked exponential.  OutOfInterval if a point lies
        outside the window.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        lo, hi = self.window
        inside = (lo <= xs) & (xs <= hi)
        if not inside.all():
            raise OutOfInterval(f"{xs[~inside][0]} is outside the solution window "
                                f"[{lo}, {hi}]")
        left, right = self._node_states().limits(xs)
        return 0.5 * (left[:, :self.n, 0] + right[:, :self.n, 0])


def solve_ivp_regular(problem: Problem, sub, x0: float, u0,
                      f: L2Function | None = None,
                      tol_sing: float = DEFAULT_TOL_SING) -> PiecewiseSolution:
    """Unique balanced solution on a regular subinterval with value u0 at x0.

    At the left endpoint the prescribed value is the right limit, at the
    right endpoint the left limit, anywhere else the balanced value.
    ValueError if u0 is not finite; SingularInitialPoint if the fundamental
    matrix at x0 is numerically singular, or so ill-conditioned that the
    solution's own value at x0 misses u0 by more than
    IVP_MATCH_TOL * (1 + |u0|).
    """
    lo, hi = float(sub[0]), float(sub[1])
    x0 = float(x0)
    if not (lo <= x0 <= hi):
        raise OutOfInterval(f"initial point {x0} outside [{lo}, {hi}]")
    u0 = np.asarray(u0, dtype=complex).reshape(-1)
    if u0.size != problem.n:
        raise DimensionMismatch(f"initial value must have length {problem.n}")
    if not np.isfinite(u0).all():
        raise ValueError("initial value contains non-finite entries")
    U = fundamental_matrix(problem, (lo, hi), tol_sing)
    side = "right" if x0 == lo else "left" if x0 == hi else "balanced"
    particular = PiecewiseSolution(problem, U.states, [np.zeros(problem.n, dtype=complex)], f)
    try:
        c = np.linalg.solve(U.evaluate(x0, side), u0 - particular.evaluate(x0, side))
    except np.linalg.LinAlgError as exc:
        raise SingularInitialPoint(
            f"the fundamental matrix at x0={x0} is numerically singular") from exc
    solution = PiecewiseSolution(problem, U.states, [c], f)
    miss = float(np.linalg.norm(solution.evaluate(x0, side) - u0))
    if miss > IVP_MATCH_TOL * (1.0 + float(np.linalg.norm(u0))):
        raise SingularInitialPoint(f"the fundamental matrix at x0={x0} is too "
                                   f"ill-conditioned: the solution misses u0 by {miss:.3e}")
    return solution


# -- pairings against a weight -------------------------------------------------


def _pairing_form(factor, n: int, mids: np.ndarray, atoms: np.ndarray,
                  starts: np.ndarray, ends: np.ndarray):
    """A factor on the pieces of a pairing grid and at the w-atoms.

    Returns (P, A, y, z, a_left, a_right): on the piece from starts[k] the
    factor's value is P exp(A[k] s) y[k] (P one matrix, or one per piece),
    z[k] is its left limit at ends[k] (``ends`` may be empty), and
    a_left[i] and a_right[i] are its two limits at atoms[i], whose mean is
    the balanced value.  Values are (n, m): m columns of representable
    functions, or (n, n) for the matrix states of fundamental matrices, or
    (n, d) for a basis of d homogeneous solutions.  Representable functions
    do not flow: their P holds the piece values, A, y and z are None (zero,
    and identities), and both atom limits are the balanced value.
    """
    if isinstance(factor, list):
        values = np.stack([_pieces_at(f.breakpoints, f.piece_values, mids) for f in factor],
                          axis=-1)
        balanced = np.array([[f.value(x, "balanced") for f in factor]
                             for x in atoms.tolist()]).reshape(-1, len(factor), n)
        balanced = np.swapaxes(balanced, 1, 2)
        return values, None, None, None, balanced, balanced
    K, L = starts.size, starts.size + ends.size
    left, right = factor.limits(np.concatenate([starts, ends, atoms]))
    return (np.eye(n, factor.generators.shape[-1], dtype=complex),
            _pieces_at(factor.nodes, factor.generators, mids), right[:K], left[K:L],
            left[L:, :n], right[L:, :n])


def _piece_terms(u_form: tuple, v_form: tuple, w0: np.ndarray, widths: np.ndarray
                 ) -> np.ndarray:
    """The integral of u^* w v over each piece, from the two ``_pairing_form`` results.

    u's end state z_u replaces the left factor exp(A_u dx) of
    ``product_integral``, as y_u^* exp(A_u^* dx) is u's end state.
    """
    (Pu, Au, _, zu, _, _), (Pv, Av, yv, _, _, _) = u_form, v_form
    pieces = _adjoint(Pu) @ w0 @ Pv
    if Au is None and Av is None:
        # Neither factor flows: each piece is X dx, with no exponential.
        return pieces * widths[:, None, None]
    pieces = _convolution(None if Au is None else _adjoint(Au), pieces, Av, widths)
    if zu is not None:
        pieces = _adjoint(zu) @ pieces
    return pieces if yv is None else pieces @ yv


def _pairing_grid(w: MeasureMatrix, edges: np.ndarray, nodes: list):
    """The pieces and atoms a pairing over ``edges`` sums.

    The grid cuts at the edges, at w's structure and at every array of
    ``nodes``.  Returns (starts, ends, mids, w0) of the pieces where w has a
    density w0, and (positions, matrices) of w's atoms strictly inside an
    interval: atoms at the edges are left out.
    """
    lo, hi = edges[0], edges[-1]
    cuts = np.concatenate([edges, w.breakpoints, w.atom_positions] + nodes)
    grid = _union(cuts[(cuts >= lo) & (cuts <= hi)])
    mids = 0.5 * (grid[:-1] + grid[1:])
    w0 = _pieces_at(w.breakpoints, w.densities, mids)
    keep = w0.any(axis=(1, 2))
    positions, matrices = w.atoms_between(lo, hi)
    inside = ~_member(positions, edges)
    return (grid[:-1][keep], grid[1:][keep], mids[keep], w0[keep],
            positions[inside], matrices[inside])


class _PairingTable:
    """What a pairing of a build's homogeneous factors with one partner over
    given edges against w takes from the build and the partner alone.

    The partner is the build itself or a rhs f.  A homogeneous factor with
    coefficient rows c (N+1, n, d) pairs with one with rows c' as the sum
    over terms t of c[left_rows[t]]^* terms[t] c'[right_rows[t]], and with f
    as the sum of c[left_rows[t]]^* terms[t] (f is one row of ones, so its
    right rows are 0); term t adds to interval ``rows[t]``.  The terms come
    in three runs, each in grid order: the pieces, the integral of U^* w V
    over each; from ``atoms`` on, one balanced term per w-atom whose two
    limits lie in one subinterval; from ``splits`` on, at a w-atom on a
    partition point, the product of each half limit of U with each of V
    (V one term for f: its value there).  ``square`` is the integral of
    f^* w f over the edges, with its atoms (None for the build itself).
    Read-only, and equal only to itself.
    """

    def __init__(self, terms: np.ndarray, left_rows: np.ndarray, right_rows: np.ndarray,
                 rows: np.ndarray, atoms: int, splits: int, intervals: int,
                 square: float | None):
        vars(self).update(terms=terms, left_rows=left_rows, right_rows=right_rows, rows=rows,
                          atoms=atoms, splits=splits, intervals=intervals, square=square)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a pairing table")

    def runs(self, rows: np.ndarray, terms: np.ndarray) -> list:
        """(rows, terms) of each of the three runs, for ``_interval_sums``."""
        cuts = (0, self.atoms, self.splits, None)
        return [(rows[a:b], terms[a:b]) for a, b in pairwise(cuts)]

    def integrals(self, count: int) -> np.ndarray:
        """The integral of U_j^* w f over each open subinterval j of ``count``, (count, n, 1).

        The pieces and the balanced atom terms summed by subinterval; the
        split terms, at the partition points, are left to the jump moments.
        """
        return _interval_sums(count, *self.runs(self.left_rows, self.terms)[:2])


def _subinterval_rows(states: _NodeStates, mids: np.ndarray, positions: np.ndarray):
    """The subinterval (coefficient row) of each piece midpoint, and the ones left
    and right of each atom position, among the partition points of ``states``."""
    points = states.nodes[states.starts]
    return (points.searchsorted(mids) - 1, points.searchsorted(positions) - 1,
            points.searchsorted(positions, "right") - 1)


def _pairing_table(states: _NodeStates, w: MeasureMatrix, edges,
                   f: L2Function | None = None) -> _PairingTable:
    """The pairing table over edges against w of a build's fundamental-matrix
    states and a partner: the states themselves (f None) or f.

    The grid, ``limits`` call and stacked _convolution of one general
    pairing of the two partners.  With f over the window, the pieces and
    balanced atom terms are those of the general ``_pairings(w, states, f,
    edges)`` for edges from the build's partition points, bit for bit.
    ``_NodeStates.table`` keeps the table of the states themselves;
    ``moment_vectors`` builds f's and returns it in its ``MomentVectors``.
    """
    edges = np.asarray(edges, dtype=float)
    structure = [states.nodes] + ([] if f is None else [f.structure_points()])
    starts, ends, mids, w0, positions, matrices = _pairing_grid(w, edges, structure)
    widths = ends - starts
    U = _pairing_form(states, w.n, mids, positions, starts, ends)
    V = U if f is None else _pairing_form([f], w.n, mids, positions, starts, ends[:0])
    rows, lefts, rights = _subinterval_rows(states, mids, positions)
    atom_intervals = np.searchsorted(edges, positions) - 1
    # (terms, left rows, right rows, intervals) of each run; f's rows are all 0.
    self_rows = 1 if f is None else 0
    runs = [(_piece_terms(U, V, w0, widths), rows, self_rows * rows,
             np.searchsorted(edges, mids) - 1)]
    one, split = lefts == rights, lefts != rights
    if one.any():
        runs.append((_adjoint(0.5 * (U[4][one] + U[5][one]))
                     @ (matrices[one] @ (0.5 * (V[4][one] + V[5][one]))),
                     lefts[one], self_rows * lefts[one], atom_intervals[one]))
    if split.any():
        # U's two half limits, each on its own row, and V's (f's value), on axes
        # 1 and 2; each atom's products are consecutive, so the run keeps grid order.
        halves = 0.5 * np.stack([U[4][split], U[5][split]], axis=1)
        half_rows = np.stack([lefts[split], rights[split]], axis=1)
        partner, partner_rows = (halves, half_rows) if f is None \
            else (V[4][split][:, None], 0 * half_rows[:, :1])
        terms = _adjoint(halves)[:, :, None] @ (matrices[split][:, None, None] @ partner[:, None])
        shape = terms.shape[:3]
        runs.append((terms.reshape((-1,) + terms.shape[3:]),
                     np.broadcast_to(half_rows[:, :, None], shape).reshape(-1),
                     np.broadcast_to(partner_rows[:, None], shape).reshape(-1),
                     np.repeat(atom_intervals[split], shape[1] * shape[2])))
    square = None
    if f is not None:
        square = float(np.real(_piece_terms(V, V, w0, widths).sum()
                               + (_adjoint(V[4]) @ (matrices @ V[4])).sum()))
    return _PairingTable(*(_freeze(np.concatenate(parts)) for parts in zip(*runs)), mids.size,
                         mids.size + int(one.sum()), edges.size - 1, square)


def _contract(table: _PairingTable, c: np.ndarray, c_partner: np.ndarray) -> np.ndarray:
    """Each interval's pairing of the factors with coefficient rows c and
    c_partner, from the table: the gather-and-contract every table read is."""
    terms = _adjoint(c[table.left_rows]) @ table.terms @ c_partner[table.right_rows]
    return _interval_sums(table.intervals, *table.runs(table.rows, terms))


def _squares(table: _PairingTable, c: np.ndarray) -> np.ndarray:
    """The diagonal of the pairing of the factor with coefficient rows c
    (N+1, n, d) with itself, summed over the intervals, (d,): the sum over
    terms t of diag(c[r_t]^* T_t c[r'_t]), in one einsum, with no d x d
    product."""
    return np.einsum("tak,tab,tbk->k", c.conj()[table.left_rows], table.terms,
                     c[table.right_rows])


def _interval_sums(count: int, *runs) -> np.ndarray:
    """Each interval's sum of the terms of each (rows, terms) run in turn;
    every run's rows are sorted.

    The terms of one interval are a run of equal rows, so each run is
    summed by one ``reduceat``.  An interval with no term stays exactly zero.
    """
    out = np.zeros((count,) + runs[0][1].shape[1:], dtype=complex)
    for rows, terms in runs:
        if rows.size:
            firsts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
            sums = np.add.reduceat(terms, firsts)
            if firsts.size == count:  # every interval has a term
                out += sums
            else:
                out[rows[firsts]] += sums
    return out


def _self_pairings(u: PiecewiseSolution, w: MeasureMatrix, edges: np.ndarray) -> np.ndarray:
    """Integral of u^* w u over each open interval between edges, from u's own
    Taylor table, where the edges and w's structure between them are nodes of u.

    Every piece of the grid is then a whole sub-gap s of width delta, on
    which u is the sum of r^j a_j for 0 <= r <= 1, so the piece adds delta
    times the sum of a_i^* w0 a_j / (i + j + 1): one product with
    ``_HILBERT``.  The w-atoms strictly inside an interval add their
    balanced terms from the stored node limits, with no exponential.
    """
    sampler, states = u._sampler, u._node_states()
    origins = sampler.origins
    _, _, mids, w0, positions, matrices = _pairing_grid(w, edges, [origins, states.nodes[-1:]])
    sub = np.searchsorted(origins, mids) - 1
    a = sampler.rows[sub].swapaxes(1, 2)
    weighted = (a.reshape(-1, _HILBERT.shape[0]) @ _HILBERT).reshape(a.shape)
    forms = (a.conj() @ weighted.swapaxes(1, 2)) * w0
    left, right = states.limits(positions)
    atoms = 0.5 * (left[:, :u.n] + right[:, :u.n])
    return _interval_sums(edges.size - 1,
                          (np.searchsorted(edges, mids) - 1,
                           (sampler.deltas[sub] * forms.sum(axis=(1, 2)))[:, None, None]),
                          (np.searchsorted(edges, positions) - 1,
                           _adjoint(atoms) @ (matrices @ atoms)))


def _pairings(w: MeasureMatrix, u, v, edges) -> np.ndarray:
    """Integral of u^* w v over each open interval (edges[i], edges[i+1]).

    A factor is a balanced solution, a representable function, a list of
    them (the columns of a matrix-valued function) or node states with any
    number of columns (fundamental matrices, or a homogeneous basis from
    ``_homogeneous_states``); row i holds the pairings of u's columns with
    v's, and the block convolution is the same size whatever their number.
    Atoms of w strictly inside an interval contribute with balanced values,
    atoms at the edges do not.  Three routes, tried in this order:

    1. two homogeneous solutions of one build, over edges inside its
       window, read the build's table with itself (``_NodeStates.table``),
       with no grid and no exponential of their own;
    2. a ``PiecewiseSolution`` paired with itself (``u is v``) reads its own
       Taylor table (``_self_pairings``), with no block convolution, when
       every cut of the grid between the edges (the edges, w's breakpoints
       and w's atom positions) is a node of u.  A solution with a rhs has the
       problem's w's structure among its nodes, so this holds for that w
       over edges that are nodes;
    3. every other pair takes the grid: one ``limits`` call per state factor
       (u's at both piece ends, as y_u^* exp(A_u^* dx) is u's end state) and
       one stacked _convolution cover every interval; two representable
       factors need no convolution, as neither flows.
    """
    edges = np.asarray(edges, dtype=float)
    if all(isinstance(f, PiecewiseSolution) and f.rhs is None for f in (u, v)):
        build = u._homogeneous
        if v._homogeneous is build and build.nodes[0] <= edges[0] <= edges[-1] <= build.nodes[-1]:
            return _contract(build.table(w, edges), u.coefficients[..., None],
                             v.coefficients[..., None])
    if u is v and isinstance(u, PiecewiseSolution):
        cuts = np.concatenate([edges, w.breakpoints, w.atom_positions])
        if _member(cuts[(cuts >= edges[0]) & (cuts <= edges[-1])], u._node_states().nodes).all():
            return _self_pairings(u, w, edges)
    u, v = (f._node_states() if isinstance(f, PiecewiseSolution)
            else [f] if isinstance(f, L2Function) else f for f in (u, v))
    starts, ends, mids, w0, positions, matrices = _pairing_grid(w, edges, [
        f.nodes if isinstance(f, _NodeStates) else g.structure_points()
        for f in (u, v) for g in (f if isinstance(f, list) else [f])])

    u_form = _pairing_form(u, w.n, mids, positions, starts, ends)
    v_form = _pairing_form(v, w.n, mids, positions, starts, ends[:0])
    au, av = (0.5 * (form[4] + form[5]) for form in (u_form, v_form))
    return _interval_sums(edges.size - 1,
                          (np.searchsorted(edges, mids) - 1,
                           _piece_terms(u_form, v_form, w0, ends - starts)),
                          (np.searchsorted(edges, positions) - 1,
                           _adjoint(au) @ (matrices @ av)))


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
    _check_rhs(f, U.n, U.lo, upto)
    return _pairings(w, U.states, f, [U.lo, upto])[0, :, 0]


def w_pairing(w: MeasureMatrix, u, v, window) -> complex:
    """Integral of u^* w v over the open window, conjugate-linear in u.

    Both factors may be balanced solutions or representable functions; atoms
    of w strictly inside the window contribute with balanced values.  Two
    homogeneous solutions of one build pair from the build's table with
    itself, cached on its node states.  A solution paired with itself reads
    its own Taylor table when the window's ends and w's structure inside it
    are nodes of the solution: the problem's w is, for a solution with a rhs
    over a window whose ends are nodes.  Every other pair takes the general
    path of ``_pairings``.  Each table gives the same bits whether it was
    built before the call or inside it, so the result does not depend on
    what ran before.
    """
    lo, hi = _window_ends(window)
    for factor in (u, v):
        if factor.n != w.n:
            raise DimensionMismatch(f"factor has length {factor.n}, the weight size is {w.n}")
        if not factor.covers(lo, hi):
            raise WindowMismatch(
                f"factor on {factor.window} does not cover the window ({lo}, {hi})")
    return complex(_pairings(w, u, v, [lo, hi])[0, 0, 0])
