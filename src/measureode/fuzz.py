"""Seeded random problem instances for randomized identity checking.

Everything here is driven by a numpy Generator the caller seeds, so any
reported failure can be replayed from the seed alone.  Matrix entries are
drawn uniformly from [-2, 2] (real and imaginary parts) and then symmetrized
or projected to the positive cone as the coefficient hypotheses require.
Singular jumps are crafted exactly: given an isotropic vector e of the
Hermitian form i J, the Hermitian rank-two matrix built from e and -2 J e
makes J + dq/2 annihilate e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import MeasureMatrix, Problem
from .functions import L2Function

_EIGEN_FLOOR = 0.5        # keep random J comfortably invertible
_EIGEN_CAP = 1.5          # ... and its norm bounded
_REGULAR_FLOOR = 0.3      # resample regular jumps that land near singular
_DENSITY_CAP = 0.3        # bounds exponential growth across a subinterval


def hermitize(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    return 0.5 * (matrix + matrix.conj().T)


def _clip_norm(matrix: np.ndarray, bound: float) -> np.ndarray:
    """Rescale so the spectral norm does not exceed ``bound``."""
    top = float(np.linalg.svd(matrix, compute_uv=False)[0])
    if top <= bound:
        return matrix
    return matrix * (bound / top)


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix (eigenvalue clipping)."""
    herm = hermitize(matrix)
    values, vectors = np.linalg.eigh(herm)
    return (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, (n, n)) + 1j * rng.uniform(-2.0, 2.0, (n, n))


def random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, n) + 1j * rng.uniform(-2.0, 2.0, n)


def canonical_j(n: int) -> np.ndarray:
    """Block diagonal of 2x2 rotations, padded with 1j for odd sizes."""
    J = np.zeros((n, n), dtype=complex)
    for k in range(0, n - 1, 2):
        J[k, k + 1] = -1.0
        J[k + 1, k] = 1.0
    if n % 2:
        J[n - 1, n - 1] = 1j
    return J


def random_skew_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random skew-Hermitian matrix with spectrum pushed away from zero."""
    herm = hermitize(random_matrix(rng, n))
    values, vectors = np.linalg.eigh(herm)
    signs = np.where(values >= 0, 1.0, -1.0)
    values = signs * np.clip(np.abs(values), _EIGEN_FLOOR, _EIGEN_CAP)
    return 1j * ((vectors * values) @ vectors.conj().T)


def isotropic_vector(J: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """Unit vector e with e^* J e = 0, or None when the form is definite."""
    values, vectors = np.linalg.eigh(1j * np.asarray(J, dtype=complex))
    if values[-1] <= 1e-9 or values[0] >= -1e-9:
        return None
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    e = (vectors[:, -1] / np.sqrt(values[-1])
         + phase * vectors[:, 0] / np.sqrt(-values[0]))
    return e / np.linalg.norm(e)


def singular_jump(J: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """Hermitian dq making J + dq/2 exactly singular, or None if impossible."""
    e = isotropic_vector(J, rng)
    if e is None:
        return None
    y = -2.0 * (J @ e)
    dq = np.outer(y, e.conj()) + np.outer(e, y.conj())
    if rng.uniform() < 0.5:
        # Extra Hermitian noise orthogonal to e keeps the jump singular.
        projector = np.eye(J.shape[0], dtype=complex) - np.outer(e, e.conj())
        noise = projector @ hermitize(random_matrix(rng, J.shape[0])) @ projector
        dq = dq + _clip_norm(noise, 1.0)
    return dq


def regular_jump(J: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hermitian jump that stays comfortably away from singularity."""
    for _ in range(64):
        dq = _clip_norm(hermitize(random_matrix(rng, J.shape[0])), 1.0)
        sigma = np.linalg.svd(J + 0.5 * dq, compute_uv=False)
        if sigma[-1] > _REGULAR_FLOOR:
            return dq
    return np.zeros_like(J)


def random_psd_atom(rng: np.random.Generator, n: int) -> np.ndarray:
    if n > 1 and rng.uniform() < 0.3:
        v = random_vector(rng, n)
        return _clip_norm(np.outer(v, v.conj()), 2.0)  # rank one, degenerate
    return _clip_norm(psd_project(random_matrix(rng, n)), 2.0)


@dataclass
class Instance:
    """One random problem with a window, forced points and optional rhs."""

    problem: Problem
    window: tuple[float, float]
    f: L2Function | None
    extra_points: tuple[float, ...]


def random_f(rng: np.random.Generator, problem: Problem, window) -> L2Function:
    lo, hi = window
    cuts = np.sort(rng.choice(np.linspace(lo, hi, 17)[1:-1],
                              size=int(rng.integers(0, 3)), replace=False))
    edges = np.concatenate([[lo], cuts, [hi]])
    pieces = [(float(edges[i]), float(edges[i + 1]), random_vector(rng, problem.n))
              for i in range(edges.size - 1)]
    positions, _ = problem.w.atoms_between(lo, hi)
    atom_values = {float(x): random_vector(rng, problem.n) for x in positions}
    return L2Function.from_pieces(window, pieces, atom_values, w=problem.w)


def random_instance(rng: np.random.Generator, n: int | None = None,
                    with_f: bool = True,
                    zero_q_density: bool | None = None,
                    singular_count: int | None = None) -> Instance:
    """Random problem instance with intended partition size between 2 and 5."""
    if n is None:
        n = int(rng.integers(1, 4))
    a = -1.0 - float(rng.uniform(0.0, 1.0))
    b = 1.0 + float(rng.uniform(0.0, 1.0))
    if rng.uniform() < 0.5:
        window = (a, b)
    else:
        inset = 0.12 * (b - a)
        window = (a + inset, b - inset)
    lo, hi = window

    if rng.uniform() < 0.5 or n == 1:
        J = canonical_j(n)
    else:
        J = random_skew_invertible(rng, n)

    # Interior grid: odd slots take atoms, even slots take forced points,
    # so positions never collide accidentally.
    grid = np.linspace(lo, hi, 25)[1:-1]
    atom_slots = list(grid[1::2])
    extra_slots = list(grid[0::2])
    rng.shuffle(atom_slots)
    rng.shuffle(extra_slots)

    if singular_count is None:
        singular_count = int(rng.integers(0, 4))
    singular_positions = []
    q_atoms = []
    for _ in range(singular_count):
        dq = singular_jump(J, rng)
        if dq is None or not atom_slots:
            break
        x = float(atom_slots.pop())
        q_atoms.append((x, dq))
        singular_positions.append(x)
    for _ in range(int(rng.integers(0, 2))):
        if not atom_slots:
            break
        q_atoms.append((float(atom_slots.pop()), regular_jump(J, rng)))

    if zero_q_density is None:
        zero_q_density = bool(rng.uniform() < 0.5)
    q_breaks, q_dens = _random_density(rng, (a, b), n, zero_q_density, hermitize)
    w_breaks, w_dens = _random_density(rng, (a, b), n,
                                       bool(rng.uniform() < 0.4), psd_project)

    w_atoms = []
    taken = set()
    for x, _ in q_atoms:
        if rng.uniform() < 0.5:
            w_atoms.append((x, random_psd_atom(rng, n)))
            taken.add(x)
    for _ in range(int(rng.integers(0, 3))):
        if not atom_slots:
            break
        x = float(atom_slots.pop())
        if x not in taken:
            w_atoms.append((x, random_psd_atom(rng, n)))

    q = MeasureMatrix((a, b), n=n, breakpoints=q_breaks, densities=q_dens,
                      atoms=sorted(q_atoms, key=lambda p: p[0]))
    w = MeasureMatrix((a, b), n=n, breakpoints=w_breaks, densities=w_dens,
                      atoms=sorted(w_atoms, key=lambda p: p[0]))
    problem = Problem(J, q, w)

    target = int(rng.integers(2, 6))
    extras = []
    while len(singular_positions) + len(extras) < target and extra_slots:
        extras.append(float(extra_slots.pop()))
    f = random_f(rng, problem, window) if with_f else None
    return Instance(problem, window, f, tuple(sorted(extras)))


def random_chain(rng: np.random.Generator, N: int, n: int = 2,
                 mirrored: bool = True) -> Instance:
    """Random problem with N singular q-atoms at x = 1 .. N on the window (0, N + 1).

    Independent singular jumps leave ker B^* trivial.  ``mirrored`` (N even)
    makes atom 2k+1 the negative of atom 2k and the q-density a(x) iJ with a
    real: its generator -i a(x) is scalar, so the vector e that J + dq/2
    annihilates at atom 2k reaches atom 2k+1 up to a phase, where
    J - (-dq)/2 annihilates it again.  Each pair then carries one
    homogeneous solution vanishing outside it, and dim ker B^* = N / 2.
    The weight and the rhs are drawn as in random_instance; n >= 2, since J
    needs an isotropic vector.
    """
    if mirrored and N % 2:
        raise ValueError("a mirrored chain needs an even number of atoms")
    J = canonical_j(n)
    window = (0.0, N + 1.0)
    q_atoms = []
    for k in range(N):
        dq = -q_atoms[-1][1] if mirrored and k % 2 else singular_jump(J, rng)
        if dq is None:
            raise ValueError("J has no isotropic vector")
        q_atoms.append((float(k + 1), dq))
    # Density breakpoints sit halfway between atoms.
    q_breaks = [0.0, float(rng.integers(0, N + 1)) + 0.5, N + 1.0]
    if mirrored:
        q_dens = [rng.uniform(-1.0, 1.0) * _DENSITY_CAP * 1j * J for _ in range(2)]
    else:
        q_dens = [_clip_norm(hermitize(random_matrix(rng, n)), _DENSITY_CAP)
                  for _ in range(2)]
    w_breaks, w_dens = _random_density(rng, window, n, False, psd_project)
    w_atoms = [(k + 0.5, random_psd_atom(rng, n))
               for k in sorted(rng.choice(N + 1, size=min(N + 1, 3), replace=False))]
    q = MeasureMatrix(window, n=n, breakpoints=q_breaks, densities=q_dens, atoms=q_atoms)
    w = MeasureMatrix(window, n=n, breakpoints=w_breaks, densities=w_dens, atoms=w_atoms)
    problem = Problem(J, q, w)
    return Instance(problem, window, random_f(rng, problem, window), ())


def _random_density(rng, interval, n, zero: bool, project):
    a, b = interval
    if zero:
        return [a, b], [np.zeros((n, n), dtype=complex)]
    pieces = int(rng.integers(1, 3))
    if pieces == 1:
        breaks = [a, b]
    else:
        cut = float(rng.uniform(a + 0.2 * (b - a), b - 0.2 * (b - a)))
        breaks = [a, cut, b]
    return breaks, [_clip_norm(project(random_matrix(rng, n)), _DENSITY_CAP)
                    for _ in range(pieces)]
