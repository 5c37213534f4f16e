"""Shared problem builders for the test suite.

Two hand-analyzed two-atom systems recur throughout: the "mirror" pair
(opposite off-diagonal atoms, which couples into a one-dimensional adjoint
kernel and a compactly supported solution) and the "repeated" pair (equal
atoms, whose adjoint kernel is trivial).  Both use the canonical 2x2
rotation J and a single identity weight atom at the origin.
``count_calls`` counts the calls of a module attribute during one test,
``minimum_norm_solve`` is the dense-SVD oracle for min-norm solves, and
``fresh_python`` runs a fresh interpreter on the tested package.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import measureode
from measureode import DimensionMismatch, MeasureMatrix, Problem, build_system, propagation
from measureode.coefficients import DEFAULT_TOL_RANK
from measureode.functions import L2Function

J2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SWAP2 = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
INTERVAL = (-1.0, 1.0)


def two_atom_problem(left, right, w_atoms=((0.0, np.eye(2)),)):
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(-0.5, left), (0.5, right)])
    w = MeasureMatrix.from_atoms(INTERVAL, 2, list(w_atoms))
    return Problem(J2, q, w)


def fresh_python(*args, timeout=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, warnings as errors, that imports the tested package.

    With ``timeout`` (seconds), a run that outlasts it is killed and raises
    ``subprocess.TimeoutExpired``.
    """
    src = os.path.dirname(os.path.dirname(measureode.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def block_system(problem, window=INTERVAL, extra=()):
    return build_system(problem, window, extra)


def basis_states(bs, coefficients):
    """Node states of the homogeneous solutions of bs with stacked coefficients
    (n(N+1), d): one matrix-valued pairing factor with a column per solution."""
    return propagation._homogeneous_states(bs.states, coefficients.reshape(bs.N + 1, bs.n, -1))


def minimum_norm_solve(matrix, rhs, tol_rank=DEFAULT_TOL_RANK):
    """Minimum-norm least-squares solution with an explicit rank cut."""
    matrix = np.asarray(matrix, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex).reshape(-1)
    if matrix.shape[0] != rhs.size:
        raise DimensionMismatch("right-hand side length must match the row count")
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(matrix.shape[1], dtype=complex)
    keep = s > tol_rank * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return vh.conj().T @ (inv * (u.conj().T @ rhs))


@pytest.fixture
def mirror_problem():
    """Atoms [[0,2],[2,0]] at -0.5 and its negative at +0.5."""
    return two_atom_problem(SWAP2, -SWAP2)


@pytest.fixture
def repeated_problem():
    """The same atom [[0,2],[2,0]] at both -0.5 and +0.5."""
    return two_atom_problem(SWAP2, SWAP2)


@pytest.fixture
def mirror_system(mirror_problem):
    return block_system(mirror_problem)


@pytest.fixture
def repeated_system(repeated_problem):
    return block_system(repeated_problem)


@pytest.fixture
def ones_rhs(mirror_problem):
    """The constant function (1, 1) refined against the weight."""
    return L2Function.constant(INTERVAL, np.array([1.0, 1.0]), w=mirror_problem.w)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` for the test.

    Returns its counter: ``counter.calls`` is the number of calls so far,
    and a test may reset it; ``counter.kwargs`` lists each call's keyword
    arguments, one dict per call.
    """
    def wrap(module, name):
        func = getattr(module, name)
        counter = SimpleNamespace(calls=0, kwargs=[])

        def counted(*args, **kwargs):
            counter.calls += 1
            counter.kwargs.append(kwargs)
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counter
    return wrap
