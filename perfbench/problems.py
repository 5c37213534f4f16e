"""Seeded problem generators for the benchmark workloads.

Every generator takes a numpy Generator that the harness seeds from its
``--seed`` argument; the program under test only ever sees the problems built
here.  Random matrices come from measureode's own fuzzer helpers
(``canonical_j``, ``singular_jump``, ``random_matrix`` ...), so the benchmark
draws from the same distributions the identity suites are fuzzed with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from measureode import L2Function, MeasureMatrix, Problem
from measureode import fuzz
from measureode.fileio import matrix_json, vector_json

# Same cap as the fuzzer's q-densities: it bounds propagator growth across a
# unit subinterval.  Deliberately not tuned per workload.
Q_DENSITY_CAP = 0.3


def _scaled(matrix: np.ndarray, norm: float) -> np.ndarray:
    return matrix * (norm / float(np.linalg.norm(matrix, 2)))


def small_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return _scaled(fuzz.hermitize(fuzz.random_matrix(rng, n)),
                   rng.uniform(0.5, 1.0) * Q_DENSITY_CAP)


def psd_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive-definite Gram matrix of spectral norm one."""
    root = fuzz.random_matrix(rng, n)
    return _scaled(root @ root.conj().T, 1.0)


@dataclass
class Chain:
    """A problem with ``N`` singular q-atoms at x = 1..N on the window (0, N+1).

    ``expected_adjoint`` is the dimension of ker B* the construction
    guarantees; ker B then has dimension ``n + expected_adjoint``.
    """

    problem: Problem
    window: tuple[float, float]
    f: L2Function
    expected_adjoint: int

    @property
    def n(self) -> int:
        return self.problem.n


def chain(rng: np.random.Generator, N: int, n: int, kind: str,
          q_pieces: int = 4, w_pieces: int = 4, f_pieces: int = 8,
          w_atom_every: int = 5) -> Chain:
    """Chain problem; ``kind`` is "random" or "mirrored".

    Random chains draw every singular jump independently, and their adjoint
    kernel is trivial.  Mirrored chains make atom 2k+1 the negative of atom
    2k, and give the q-density the form a(x) iJ, whose generator is the
    scalar -i a(x).  The isotropic vector e that J + dq/2 annihilates at
    atom 2k is then carried unchanged to atom 2k+1, where J - dq/2 also
    annihilates it, so each pair supports one homogeneous solution that
    vanishes outside it: dim ker B* = N/2.
    """
    if kind not in ("random", "mirrored"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if kind == "mirrored" and N % 2:
        raise ValueError("a mirrored chain needs an even number of atoms")
    J = fuzz.canonical_j(n)
    length = float(N + 1)
    interval = (0.0, length)

    atoms = []
    for k in range(N):
        if kind == "mirrored" and k % 2:
            dq = -atoms[-1][1]
        else:
            dq = fuzz.singular_jump(J, rng)
            if dq is None:
                raise ValueError("J has no isotropic vector")
        atoms.append((float(k + 1), dq))

    # Density breakpoints sit at quarter points so they never meet an atom.
    q_breaks = _cuts(rng, length, q_pieces, 0.25)
    if kind == "mirrored":
        q_dens = [rng.uniform(-1.0, 1.0) * Q_DENSITY_CAP * 1j * J
                  for _ in range(q_pieces)]
    else:
        q_dens = [small_hermitian(rng, n) for _ in range(q_pieces)]
    q = MeasureMatrix(interval, n=n, breakpoints=q_breaks, densities=q_dens,
                      atoms=atoms)

    w_breaks = _cuts(rng, length, w_pieces, 0.75)
    w_atoms = [(k + 0.5, fuzz.random_psd_atom(rng, n))
               for k in range(0, N + 1, w_atom_every)]
    w = MeasureMatrix(interval, n=n, breakpoints=w_breaks,
                      densities=[psd_density(rng, n) for _ in range(w_pieces)],
                      atoms=w_atoms)
    problem = Problem(J, q, w)

    f_breaks = _cuts(rng, length, f_pieces, 0.125)
    pieces = [(f_breaks[i], f_breaks[i + 1], fuzz.random_vector(rng, n))
              for i in range(f_pieces)]
    f = L2Function.from_pieces(interval, pieces, w=w)
    expected = N // 2 if kind == "mirrored" else 0
    return Chain(problem, interval, f, expected)


def _cuts(rng: np.random.Generator, length: float, pieces: int,
          offset: float) -> list[float]:
    """Breakpoints 0 = t_0 < ... < t_pieces = length on an offset grid.

    Interior cuts are drawn from the points (k + offset) / per, with per
    the smallest subdivision that offers enough points.  For the offsets
    used here (odd multiples of 1/8) no cut lands on an integer (where the
    q-atoms sit) or a half-integer (where the w-atoms sit).
    """
    slots = np.arange(int(length)) + offset
    slots = slots[(slots > 0.0) & (slots < length)]
    if pieces - 1 > slots.size:
        # More pieces than unit slots: subdivide each slot evenly.
        per = -(-(pieces - 1) // slots.size)
        fine = (np.arange(int(length) * per) + offset) / per
        slots = fine[(fine > 0.0) & (fine < length)]
    inner = np.sort(rng.choice(slots, size=pieces - 1, replace=False))
    return [0.0, *(float(x) for x in inner), length]


# -- problem files for the command line ------------------------------------------


def _measure_json(m: MeasureMatrix) -> dict:
    bp = m.breakpoints
    return {
        "density": [{"from": float(bp[i]), "to": float(bp[i + 1]),
                     "matrix": matrix_json(d)}
                    for i, d in enumerate(m.densities)],
        "atoms": [{"x": float(x), "matrix": matrix_json(a)}
                  for x, a in zip(m.atom_positions, m.atom_matrices)],
    }


def problem_file(instance: fuzz.Instance) -> str:
    """JSON problem file text for a fuzz instance (floats round-trip exactly)."""
    problem = instance.problem
    data = {
        "n": problem.n,
        "J": matrix_json(problem.J),
        "interval": [float(v) for v in problem.interval],
        "window": [float(v) for v in instance.window],
        "q": _measure_json(problem.q),
        "w": _measure_json(problem.w),
        "forced_partition_points": [float(x) for x in instance.extra_points],
    }
    f = instance.f
    if f is not None:
        bp = f.breakpoints
        data["f"] = {
            "pieces": [{"from": float(bp[i]), "to": float(bp[i + 1]),
                        "vector": vector_json(v)}
                       for i, v in enumerate(f.piece_values)],
            "atom_values": [{"x": x, "vector": vector_json(v)}
                            for x, v in sorted(f.atom_value_map().items())],
        }
    return json.dumps(data, indent=1) + "\n"
