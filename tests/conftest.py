"""Shared problem builders for the test suite.

Two hand-analyzed two-atom systems recur throughout: the "mirror" pair
(opposite off-diagonal atoms, which couples into a one-dimensional adjoint
kernel and a compactly supported solution) and the "repeated" pair (equal
atoms, whose adjoint kernel is trivial).  Both use the canonical 2x2
rotation J and a single identity weight atom at the origin.
``count_calls`` counts the calls of a module attribute during one test.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from measureode import MeasureMatrix, Problem, build_system
from measureode.functions import L2Function

J2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
SWAP2 = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
INTERVAL = (-1.0, 1.0)


def two_atom_problem(left, right, w_atoms=((0.0, np.eye(2)),)):
    q = MeasureMatrix.from_atoms(INTERVAL, 2, [(-0.5, left), (0.5, right)])
    w = MeasureMatrix.from_atoms(INTERVAL, 2, list(w_atoms))
    return Problem(J2, q, w)


def block_system(problem, window=INTERVAL, extra=()):
    return build_system(problem, window, extra)


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
    and a test may reset it.
    """
    def wrap(module, name):
        func = getattr(module, name)
        counter = SimpleNamespace(calls=0)

        def counted(*args, **kwargs):
            counter.calls += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counter
    return wrap
