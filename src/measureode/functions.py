"""Representable right-hand sides: piecewise-constant vectors plus atom values.

Members of the weighted L2 space are handled through a concrete family:
constant vector values on finitely many pieces of a window, together with an
explicit value at every atom of the weight there.  The atom values matter
because the weight sees single points; between atoms only the piece values
enter any integral.
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import _SIDES, MeasureMatrix, _member, _union, _window_ends
from .errors import DimensionMismatch, NotRepresentable, OutOfInterval



def _as_vector(v, n: int | None, what: str) -> np.ndarray:
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if n is not None and vec.size != n:
        raise DimensionMismatch(f"{what} must have length {n}, got {vec.size}")
    if not np.all(np.isfinite(vec.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    return vec


def _stacked(values) -> np.ndarray:
    """Piece values (P, n), checked in one pass: same length, finite entries."""
    try:
        vals = np.array(values, dtype=complex)  # a copy: it is frozen below
    except (ValueError, TypeError):  # ragged: report as the per-value checks would
        vals = [_as_vector(v, None, "piece value") for v in values]
        if any(v.size != vals[0].size for v in vals):
            raise DimensionMismatch("piece values must all have the same length") from None
        return np.stack(vals)
    vals = vals.reshape(vals.shape[0], math.prod(vals.shape[1:]))
    if not np.isfinite(vals.view(float)).all():
        raise ValueError("piece value contains non-finite entries")
    return vals


class L2Function:
    """A vector-valued function on a window, constant between breakpoints.

    ``values[i]`` is the value on the open piece (breakpoints[i],
    breakpoints[i+1]); ``atom_values`` maps selected positions to the value
    the function takes exactly there (the representative chosen at a point
    the weight charges).  Where no atom value is stored, the value at a
    breakpoint is the balanced average of the two neighbouring pieces.
    """

    def __init__(self, window, breakpoints, values, atom_values=None):
        self._window = lo, hi = _window_ends(window)
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or bp[0] != lo or bp[-1] != hi:
            raise NotRepresentable("breakpoints must run from the window start to its end")
        if not np.all(np.diff(bp) > 0):
            raise NotRepresentable("breakpoints must be strictly increasing")
        if len(values) != bp.size - 1:
            raise DimensionMismatch("need one value per piece between breakpoints")
        vals = _stacked(values)
        self._n = vals.shape[1]

        items = sorted((float(x), _as_vector(v, self._n, "atom value"))
                       for x, v in (atom_values or {}).items())
        for x, _ in items:
            if not (lo <= x <= hi):
                raise OutOfInterval(f"atom value position {x} outside [{lo}, {hi}]")
        self._set(bp, vals, np.asarray([x for x, _ in items], dtype=float),
                  np.stack([v for _, v in items]) if items
                  else np.zeros((0, self._n), dtype=complex))

    def _set(self, breakpoints, values, atom_positions, atom_values) -> None:
        self._breakpoints, self._values = breakpoints, values
        self._atom_positions, self._atom_values = atom_positions, atom_values
        for a in (breakpoints, values, atom_positions, atom_values):
            a.flags.writeable = False

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, window, value, w: MeasureMatrix | None = None) -> "L2Function":
        """The constant function; atom values filled in from w if given."""
        value = np.asarray(value, dtype=complex).reshape(-1)
        f = cls(window, [window[0], window[1]], [value])
        return f.refined_against(w) if w is not None else f

    @classmethod
    def from_pieces(cls, window, pieces, atom_values=None,
                    w: MeasureMatrix | None = None) -> "L2Function":
        """Build from (from, to, value) triples that tile the window."""
        lo, hi = float(window[0]), float(window[1])
        pieces = sorted(((float(p0), float(p1), v) for p0, p1, v in pieces),
                        key=lambda t: t[0])
        if not pieces:
            raise NotRepresentable("at least one piece is required")
        bp = [pieces[0][0]]
        vals = []
        for p0, p1, v in pieces:
            if p0 != bp[-1]:
                raise NotRepresentable(
                    f"pieces must tile the window; gap or overlap at {p0}")
            if not p1 > p0:
                raise NotRepresentable(f"piece ({p0}, {p1}) is empty")
            bp.append(p1)
            vals.append(v)
        if bp[0] != lo or bp[-1] != hi:
            raise NotRepresentable("pieces must cover exactly the window")
        f = cls(window, bp, vals, atom_values)
        return f.refined_against(w) if w is not None else f

    @classmethod
    def zero(cls, window, n: int) -> "L2Function":
        return cls.constant(window, np.zeros(n, dtype=complex))

    def refined_against(self, w: MeasureMatrix) -> "L2Function":
        """Insert w's structure into the breakpoints and pin w-atom values.

        Atoms of w inside the window that carry no explicit value get the
        balanced piece value, so that integrals against w are reproducible.
        A function that w leaves unchanged is returned itself.
        """
        lo, hi = self._window
        cuts = w.structure_points()
        cuts = cuts[(cuts > lo) & (cuts < hi)]
        positions, _ = w.atoms_between(lo, hi)
        new = ~_member(positions, self._atom_positions)
        if _member(cuts, self._breakpoints).all() and not new.any():
            return self
        bp = _union(self._breakpoints, cuts)
        # Each refined piece lies inside the old piece holding its midpoint.
        k = np.searchsorted(self._breakpoints, 0.5 * (bp[:-1] + bp[1:]), side="right") - 1
        values = self._values[np.minimum(k, self._values.shape[0] - 1)]
        # The data was validated when self was built, so it is not checked again.
        refined = L2Function.__new__(L2Function)
        refined._window, refined._n = self._window, self._n
        atoms = np.concatenate([self._atom_positions, positions[new]])
        order = np.argsort(atoms)
        added = [self.value(x, "balanced") for x in positions[new].tolist()]
        refined._set(bp, values, atoms[order],
                     np.concatenate([self._atom_values, np.reshape(added, (-1, self._n))])[order])
        return refined

    # -- queries ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def window(self) -> tuple[float, float]:
        return self._window

    @property
    def breakpoints(self) -> np.ndarray:
        return self._breakpoints

    @property
    def piece_values(self) -> np.ndarray:
        return self._values

    @property
    def atom_positions(self) -> np.ndarray:
        return self._atom_positions

    @property
    def atom_values(self) -> np.ndarray:
        """The stored atom values (len(atom_positions), n), read-only."""
        return self._atom_values

    def atom_value_map(self) -> dict[float, np.ndarray]:
        return {float(x): self._atom_values[i]
                for i, x in enumerate(self._atom_positions)}

    def structure_points(self) -> np.ndarray:
        return _union(self._breakpoints, self._atom_positions)

    def covers(self, lo: float, hi: float) -> bool:
        return self._window[0] <= lo and hi <= self._window[1]

    def value(self, x: float, side: str = "balanced") -> np.ndarray:
        """Value at x; 'left'/'right' give the one-sided piece limits.

        The stored atom value overrides the balanced value only: one-sided
        limits always come from the neighbouring pieces.
        """
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}")
        lo, hi = self._window
        if not (lo <= x <= hi):
            raise OutOfInterval(f"value requested at {x}, outside [{lo}, {hi}]")
        if side == "balanced":
            idx = np.searchsorted(self._atom_positions, x)
            if idx < self._atom_positions.size and self._atom_positions[idx] == x:
                return self._atom_values[idx]
        bp = self._breakpoints
        k = int(np.searchsorted(bp, x))
        if k < bp.size and bp[k] == x:
            left = self._values[k - 1] if k > 0 else self._values[0]
            right = self._values[k] if k < self._values.shape[0] else self._values[-1]
            if side == "left":
                return left
            if side == "right":
                return right
            return 0.5 * (left + right)
        k = max(0, min(k - 1, self._values.shape[0] - 1))
        return self._values[k]
