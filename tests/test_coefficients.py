"""Measure construction, queries, and the hypothesis checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measureode import (
    DimensionMismatch,
    MeasureMatrix,
    OutOfInterval,
    Problem,
    validate,
)
from measureode.coefficients import _as_square, _member, _union

IV = (-1.0, 1.0)
EYE2 = np.eye(2, dtype=complex)


def test_zero_measure_has_zero_density_and_no_atoms():
    m = MeasureMatrix.zero(IV, 2)
    assert m.n == 2
    assert m.interval == IV
    np.testing.assert_array_equal(m.density_at(0.3), np.zeros((2, 2)))
    assert m.atom_positions.size == 0


def test_lebesgue_constant_density():
    m = MeasureMatrix.lebesgue(IV, 0.5 * EYE2)
    np.testing.assert_allclose(m.density_at(-0.9), 0.5 * EYE2)
    np.testing.assert_allclose(m.density_at(0.9), 0.5 * EYE2)


def test_from_atoms_sorts_and_jump_reads_back():
    a0 = np.diag([1.0, 2.0]).astype(complex)
    a1 = np.diag([3.0, 4.0]).astype(complex)
    m = MeasureMatrix.from_atoms(IV, 2, [(0.5, a1), (-0.5, a0)])
    np.testing.assert_array_equal(m.atom_positions, [-0.5, 0.5])
    np.testing.assert_allclose(m.jump(-0.5), a0)
    np.testing.assert_allclose(m.jump(0.5), a1)
    np.testing.assert_array_equal(m.jump(0.1), np.zeros((2, 2)))


def test_jump_outside_open_interval_raises():
    m = MeasureMatrix.zero(IV, 2)
    with pytest.raises(OutOfInterval):
        m.jump(-1.0)
    with pytest.raises(OutOfInterval):
        m.jump(1.5)


def test_atoms_between_is_strict():
    m = MeasureMatrix.from_atoms(IV, 1, [(-0.5, [[1.0]]), (0.0, [[2.0]]), (0.5, [[3.0]])])
    pos, mats = m.atoms_between(-0.5, 0.5)
    np.testing.assert_array_equal(pos, [0.0])
    np.testing.assert_allclose(mats[0], [[2.0]])


def test_piecewise_density_lookup():
    m = MeasureMatrix(IV, breakpoints=[-1.0, 0.0, 1.0],
                      densities=[1.0 * EYE2, 2.0 * EYE2])
    np.testing.assert_allclose(m.density_at(-0.5), EYE2)
    np.testing.assert_allclose(m.density_at(0.5), 2.0 * EYE2)


def test_structure_points_merge_breakpoints_and_atoms():
    m = MeasureMatrix(IV, breakpoints=[-1.0, 0.25, 1.0],
                      densities=[EYE2, EYE2], atoms=[(0.5, EYE2)])
    np.testing.assert_array_equal(m.structure_points(), [-1.0, 0.25, 0.5, 1.0])


def test_measure_rejects_bad_data():
    with pytest.raises(ValueError):
        MeasureMatrix(IV, breakpoints=[-1.0, 0.5, 0.25, 1.0],
                      densities=[EYE2, EYE2, EYE2])
    with pytest.raises(OutOfInterval):
        MeasureMatrix.from_atoms(IV, 2, [(-1.0, EYE2)])
    # A lone NaN position compares False with both ends.
    with pytest.raises(OutOfInterval):
        MeasureMatrix(IV, 2, atoms=[(float("nan"), EYE2)])
    with pytest.raises(ValueError):
        MeasureMatrix.from_atoms(IV, 2, [(0.0, EYE2), (0.0, EYE2)])
    with pytest.raises(DimensionMismatch):
        MeasureMatrix(IV, n=2, breakpoints=[-1.0, 1.0], densities=[])
    with pytest.raises(ValueError):
        MeasureMatrix.from_atoms(IV, 2, [(0.0, np.full((2, 2), np.nan))])
    with pytest.raises(DimensionMismatch):
        MeasureMatrix(IV, n=2, densities=[np.eye(3)])


def test_densities_and_atoms_are_checked_in_one_pass_with_the_same_messages():
    # The stacked check keeps the per-matrix messages, naming the first
    # matrix that fails, and stores what the per-matrix conversion gave.
    bad = {"a 2x3 matrix": np.ones((2, 3)), "a 3x3 matrix": np.eye(3),
           "a vector": np.ones(2), "a NaN": np.array([[1.0, np.nan], [0.0, 1.0]]),
           "an inf": np.array([[1.0, 0.0], [np.inf, 1.0]])}
    for what, matrix in bad.items():
        for matrices in ([EYE2, matrix], [matrix, np.eye(3)]):
            try:
                _as_square(matrices[0], 2, "density")
                _as_square(matrices[1], 2, "density")
            except (DimensionMismatch, ValueError) as exc:
                expected = (type(exc), str(exc))
            with pytest.raises(expected[0]) as density:
                MeasureMatrix(IV, n=2, breakpoints=[-1.0, 0.0, 1.0], densities=matrices)
            assert (density.type, str(density.value)) == expected, what
            with pytest.raises(expected[0]) as atom:
                MeasureMatrix(IV, n=2, atoms=[(-0.5, matrices[0]), (0.5, matrices[1])])
            assert str(atom.value) == expected[1].replace("density", "atom matrix"), what
    ints = [[[1, 2], [3, 4]], np.eye(2, dtype=int)]
    m = MeasureMatrix(IV, breakpoints=[-1.0, 0.0, 1.0], densities=ints, atoms=[(0.5, ints[0])])
    assert m.densities.dtype == complex and m.atom_matrices.dtype == complex
    assert np.array_equal(m.densities, np.stack([np.asarray(d, dtype=complex) for d in ints]))


def test_measures_are_frozen():
    m = MeasureMatrix.from_atoms(IV, 2, [(0.0, EYE2)])
    with pytest.raises(ValueError):
        m.atom_matrices[0][0, 0] = 5.0


def test_problem_structural_checks():
    q = MeasureMatrix.zero(IV, 2)
    w3 = MeasureMatrix.zero(IV, 3)
    with pytest.raises(DimensionMismatch):
        Problem(np.array([[0.0, -1.0], [1.0, 0.0]]), q, w3)
    w_other = MeasureMatrix.zero((-2.0, 2.0), 2)
    with pytest.raises(DimensionMismatch):
        Problem(np.array([[0.0, -1.0], [1.0, 0.0]]), q, w_other)
    # A 0 x 0 system would fail only later, inside the sweep over B.
    empty = MeasureMatrix.zero(IV, 0)
    with pytest.raises(DimensionMismatch):
        Problem(np.zeros((0, 0)), empty, empty)


def test_b_plus_minus_encode_half_jumps():
    J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    dq = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
    q = MeasureMatrix.from_atoms(IV, 2, [(0.25, dq)])
    p = Problem(J, q, MeasureMatrix.zero(IV, 2))
    np.testing.assert_allclose(p.b_plus(0.25), J + dq / 2)
    np.testing.assert_allclose(p.b_minus(0.25), J - dq / 2)
    np.testing.assert_allclose(p.b_plus(0.7), J)


def test_validate_passes_on_clean_problem():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = MeasureMatrix.from_atoms(IV, 2, [(0.0, np.diag([1.0, -1.0]))])
    w = MeasureMatrix.lebesgue(IV, EYE2)
    report = validate(Problem(J, q, w))
    assert report.passed
    assert not report.failures()


@pytest.mark.parametrize("J, q_atom, w_density, failing", [
    (np.zeros((2, 2)), None, None, "J invertible"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), None, None, "J skew-Hermitian"),
    (None, np.array([[0.0, 1.0], [0.0, 0.0]]), None, "q Hermitian"),
    (None, None, -np.eye(2), "w PSD"),
])
def test_validate_names_the_failing_check(J, q_atom, w_density, failing):
    if J is None:
        J = np.array([[0.0, -1.0], [1.0, 0.0]])
    q = (MeasureMatrix.from_atoms(IV, 2, [(0.0, q_atom)])
         if q_atom is not None else MeasureMatrix.zero(IV, 2))
    w = (MeasureMatrix.lebesgue(IV, w_density)
         if w_density is not None else MeasureMatrix.zero(IV, 2))
    report = validate(Problem(J, q, w))
    assert not report.passed
    assert failing in [c.name for c in report.failures()]


def test_validate_flags_indefinite_weight_atom():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = MeasureMatrix.from_atoms(IV, 2, [(0.3, np.diag([1.0, -0.5]))])
    report = validate(Problem(J, MeasureMatrix.zero(IV, 2), w))
    failing = {c.name: c for c in report.failures()}
    assert "w PSD" in failing
    assert failing["w PSD"].measured == pytest.approx(0.5)


# Finite floats, drawn often from a small pool so that duplicates and both
# zeros are common.
_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, 1e-300]),
                    st.floats(allow_nan=False, allow_infinity=False))
_ARRAYS = st.lists(_FLOATS, max_size=40).map(lambda xs: np.array(xs, dtype=float))


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bits, so -0.0 and 0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(_ARRAYS, min_size=1, max_size=4))
def test_union_is_unique_of_the_concatenation(arrays):
    assert _same(_union(*arrays), np.unique(np.concatenate(arrays)))


@settings(max_examples=300, deadline=None)
@given(_ARRAYS, _ARRAYS)
def test_member_is_isin_against_a_sorted_array(values, pool):
    pool = np.sort(pool)
    assert _same(_member(values, pool), np.isin(values, pool))
