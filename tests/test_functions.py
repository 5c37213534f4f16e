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


def test_piece_values_are_checked_together_with_the_same_messages():
    with pytest.raises(DimensionMismatch, match="piece values must all have the same length"):
        L2Function(WIN, [0.0, 0.5, 1.0], [[1.0, 2.0], [3.0]])
    # A non-finite entry is reported first, ragged or not.
    for values in ([[1.0, np.nan], [3.0, 4.0]], [[1.0, 2.0], [np.inf]]):
        with pytest.raises(ValueError, match="piece value contains non-finite entries"):
            L2Function(WIN, [0.0, 0.5, 1.0], values)
    # Values of any shape are flattened; a caller's array is copied, not frozen.
    values = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    f = L2Function(WIN, [0.0, 0.5, 1.0], values)
    assert f.piece_values.shape == (2, 2) and values.flags.writeable
    np.testing.assert_array_equal(f.value(0.75), [3.0, 4.0])


def _per_piece_refined(f, w):
    """The refinement built piece by piece: one ``value`` call per midpoint and new atom."""
    lo, hi = f.window
    cuts = w.structure_points()
    bp = np.unique(np.concatenate([f.breakpoints, cuts[(cuts > lo) & (cuts < hi)]]))
    values = [f.value(0.5 * (bp[i] + bp[i + 1])) for i in range(bp.size - 1)]
    atom_values = f.atom_value_map()
    for x in w.atoms_between(lo, hi)[0]:
        atom_values.setdefault(float(x), f.value(float(x), "balanced"))
    return L2Function(f.window, bp, values, atom_values)


def test_refined_against_matches_the_per_piece_construction():
    # The acceptance fuzz draws, each with an unrefined f pinned at some w-atoms.
    from measureode.fuzz import random_instance, random_vector
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        inst = random_instance(rng, with_f=False)
        (lo, hi), n, w = inst.window, inst.problem.n, inst.problem.w
        edges = np.concatenate([[lo], np.sort(rng.uniform(lo, hi, int(rng.integers(0, 4)))),
                                [hi]])
        pinned = {float(x): random_vector(rng, n) for x in w.atoms_between(lo, hi)[0]
                  if rng.uniform() < 0.5}
        f = L2Function(inst.window, edges, [random_vector(rng, n) for _ in edges[1:]], pinned)
        got, want = f.refined_against(w), _per_piece_refined(f, w)
        np.testing.assert_array_equal(got.breakpoints, want.breakpoints)
        np.testing.assert_array_equal(got.piece_values, want.piece_values)
        np.testing.assert_array_equal(got.atom_positions, want.atom_positions)
        bp = got.breakpoints
        for x in np.concatenate([0.5 * (bp[:-1] + bp[1:]), got.atom_positions]).tolist():
            np.testing.assert_array_equal(got.value(x), want.value(x))


def test_refining_a_refined_function_returns_it():
    w = MeasureMatrix((-1.0, 2.0), breakpoints=[-1.0, 0.5, 2.0],
                      densities=[np.eye(1), np.eye(1)], atoms=[(0.25, np.eye(1))])
    f = L2Function.from_pieces(WIN, [(0.0, 0.7, [2.0]), (0.7, 1.0, [4.0])])
    g = f.refined_against(w)
    assert g is not f and g.refined_against(w) is g
    # A weight that adds nothing on the window leaves f itself.
    assert f.refined_against(MeasureMatrix.zero((-1.0, 2.0), 1)) is f


def test_a_stored_atom_value_stays_a_point_value_when_refined():
    # The new piece (0.25, 1) has its midpoint at f's atom 0.625; its value
    # is still the piece value there, not the atom value.
    w = MeasureMatrix(WIN, breakpoints=[0.0, 0.25, 1.0], densities=[np.eye(1), np.eye(1)])
    f = L2Function(WIN, [0.0, 1.0], [[1.0]], atom_values={0.625: [5.0]})
    g = f.refined_against(w)
    np.testing.assert_array_equal(g.piece_values, [[1.0], [1.0]])
    np.testing.assert_array_equal(g.value(0.625), [5.0])
