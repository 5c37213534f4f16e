"""Piecewise-constant right-hand sides and their value conventions."""

import numpy as np
import pytest

from measureode import DimensionMismatch, MeasureMatrix, NotRepresentable, OutOfInterval
from measureode.functions import L2Function

WIN = (0.0, 1.0)


def test_constant_everywhere():
    f = L2Function.constant(WIN, [1.0, 2.0])
    np.testing.assert_allclose(f.value(0.3), [1.0, 2.0])
    np.testing.assert_allclose(f.value(0.0, "right"), [1.0, 2.0])
    np.testing.assert_allclose(f.value(1.0, "left"), [1.0, 2.0])


def test_piece_values_of_different_lengths_are_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        L2Function(WIN, [0.0, 0.5, 1.0], [[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch):
        L2Function.from_pieces(WIN, [(0.0, 0.5, [1.0]), (0.5, 1.0, [3.0, 4.0])])


def test_from_pieces_values_and_breakpoint_sides():
    f = L2Function.from_pieces(WIN, [(0.0, 0.5, [1.0]), (0.5, 1.0, [3.0])])
    np.testing.assert_allclose(f.value(0.25), [1.0])
    np.testing.assert_allclose(f.value(0.75), [3.0])
    np.testing.assert_allclose(f.value(0.5, "left"), [1.0])
    np.testing.assert_allclose(f.value(0.5, "right"), [3.0])
    np.testing.assert_allclose(f.value(0.5, "balanced"), [2.0])


def test_atom_value_overrides_balanced_only():
    f = L2Function.from_pieces(WIN, [(0.0, 0.5, [1.0]), (0.5, 1.0, [3.0])],
                               atom_values={0.5: [7.0]})
    np.testing.assert_allclose(f.value(0.5), [7.0])
    np.testing.assert_allclose(f.value(0.5, "left"), [1.0])
    np.testing.assert_allclose(f.value(0.5, "right"), [3.0])


def test_from_pieces_rejects_gaps_overlaps_and_empty():
    with pytest.raises(NotRepresentable):
        L2Function.from_pieces(WIN, [(0.0, 0.4, [1.0]), (0.5, 1.0, [1.0])])
    with pytest.raises(NotRepresentable):
        L2Function.from_pieces(WIN, [(0.0, 0.6, [1.0]), (0.5, 1.0, [1.0])])
    with pytest.raises(NotRepresentable):
        L2Function.from_pieces(WIN, [])
    with pytest.raises(NotRepresentable):
        L2Function.from_pieces(WIN, [(0.0, 0.5, [1.0])])


def test_value_outside_window_raises():
    f = L2Function.constant(WIN, [1.0])
    with pytest.raises(OutOfInterval):
        f.value(1.5)
    with pytest.raises(OutOfInterval):
        L2Function(WIN, [0.0, 1.0], [[1.0]], atom_values={2.0: [1.0]})


def test_refined_against_pins_weight_atoms():
    w = MeasureMatrix(( -1.0, 2.0), breakpoints=[-1.0, 0.5, 2.0],
                      densities=[np.eye(1), np.eye(1)],
                      atoms=[(0.25, np.eye(1))])
    f = L2Function.from_pieces(WIN, [(0.0, 0.5, [2.0]), (0.5, 1.0, [4.0])])
    g = f.refined_against(w)
    # the weight's interior structure shows up as breakpoints
    assert 0.25 in g.breakpoints
    # the balanced value is pinned at the atom and survives as the stored value
    np.testing.assert_allclose(g.value(0.25), [2.0])
    assert 0.25 in g.atom_value_map()
    # values between cuts unchanged
    for x in (0.1, 0.4, 0.9):
        np.testing.assert_allclose(g.value(x), f.value(x))


def test_refined_against_keeps_explicit_atom_values():
    w = MeasureMatrix(WIN, n=1, atoms=[(0.5, np.eye(1))])
    f = L2Function.from_pieces(WIN, [(0.0, 0.5, [1.0]), (0.5, 1.0, [3.0])],
                               atom_values={0.5: [-9.0]})
    g = f.refined_against(w)
    np.testing.assert_allclose(g.value(0.5), [-9.0])


def test_zero_function():
    z = L2Function.zero(WIN, 3)
    assert z.n == 3
    np.testing.assert_array_equal(z.value(0.5), np.zeros(3))


def test_covers():
    f = L2Function.constant(WIN, [1.0])
    assert f.covers(0.2, 0.8)
    assert f.covers(0.0, 1.0)
    assert not f.covers(-0.1, 0.5)
