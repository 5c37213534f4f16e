"""Where unique continuation fails: singular jumps and the partition at them.

At a q-atom where J + dq/2 is singular the jump rule does not determine
the right limit of a balanced solution from its left limit, so unique
continuation fails there.  ``classify_jumps`` finds those points in a
window, and ``make_partition`` turns them into the partition points
x_1 < ... < x_N, with x_0 and x_{N+1} the window ends.  This is all the
``analyze`` mode runs; the block system built on a partition lives in
``measureode.blocksystem``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coefficients import DEFAULT_TOL_SING, Problem, _window_ends
from .errors import OutOfInterval

BORDERLINE_SING = 1e-6


def _singular(sigmas: np.ndarray, tol_sing: float) -> np.ndarray:
    """The singular-jump test sigma_min <= tol_sing * max(1, sigma_max), on each
    descending row of singular values of J + dq/2."""
    return sigmas[..., -1] <= tol_sing * np.maximum(1.0, sigmas[..., 0])


class JumpReport(NamedTuple):
    """Singular-value data of J + dq/2 at one jump position."""

    position: float
    sigma_min: float
    sigma_max: float
    status: str  # "singular" | "borderline" | "regular"


def classify_jumps(problem: Problem, window,
                   tol_sing: float = DEFAULT_TOL_SING) -> list[JumpReport]:
    """Classify every q-atom inside the open window by the singular-jump test at
    tol_sing ("singular") and at BORDERLINE_SING ("borderline")."""
    lo, hi = _window_ends(window)
    a, b = problem.interval
    if not (a <= lo and hi <= b):
        raise OutOfInterval(f"window ({lo}, {hi}) is not inside [{a}, {b}]")
    positions, atoms = problem.q.atoms_between(lo, hi)
    sigmas = np.linalg.svd(problem.J + 0.5 * atoms, compute_uv=False)
    statuses = np.where(_singular(sigmas, tol_sing), "singular",
                        np.where(_singular(sigmas, BORDERLINE_SING), "borderline", "regular"))
    return [JumpReport(float(x), float(sigma[-1]), float(sigma[0]), str(status))
            for x, sigma, status in zip(positions, sigmas, statuses)]


def find_singular_points(problem: Problem, window,
                         tol_sing: float = DEFAULT_TOL_SING) -> list[float]:
    """Positions in the open window where J + dq/2 fails to be invertible."""
    return [r.position for r in classify_jumps(problem, window, tol_sing)
            if r.status == "singular"]


class Partition:
    """Window ends plus at least two interior points, singular ones flagged.

    Read-only: the constructor checks the points and freezes both arrays,
    and no attribute is set after it.
    """

    def __init__(self, window: tuple[float, float], interior, singular):
        lo, hi = window
        interior = np.asarray(interior, dtype=float)
        singular = np.asarray(singular, dtype=bool)  # one flag per interior point
        if interior.size < 2:
            raise ValueError("a partition needs at least two interior points")
        if interior.size != singular.size:
            raise ValueError("one flag per interior point required")
        if not np.all(np.diff(interior) > 0):
            raise ValueError("interior points must be strictly increasing")
        if not (lo < interior[0] and interior[-1] < hi):
            raise OutOfInterval("interior points must lie strictly inside the window")
        interior.flags.writeable = False
        singular.flags.writeable = False
        vars(self).update(window=window, interior=interior, singular=singular)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a Partition")

    @property
    def points(self) -> np.ndarray:
        """x_0 = window start, interior points, x_{N+1} = window end."""
        lo, hi = self.window
        return np.concatenate([[lo], self.interior, [hi]])

    @property
    def count(self) -> int:
        return int(self.interior.size)


def make_partition(window, singular_points, extra=()) -> Partition:
    """Partition from the singular points, padded up to two interior points.

    ``extra`` positions (for example user-forced ones) are merged in and
    flagged as padded.  With one point in total, a padded point is added at
    the midpoint of the longer adjacent gap (ties resolve to the right gap);
    with none, padded points sit at the thirds of the window.
    """
    lo, hi = _window_ends(window)
    singular = sorted(float(x) for x in singular_points)
    chosen = dict.fromkeys(singular, True)
    for x in extra:
        chosen.setdefault(float(x), False)
    for x in chosen:
        if not (lo < x < hi):
            raise OutOfInterval(f"partition point {x} outside the open window")

    if len(chosen) == 0:
        width = hi - lo
        chosen = {lo + width / 3.0: False, lo + 2.0 * width / 3.0: False}
    elif len(chosen) == 1:
        (x,) = chosen
        if x - lo > hi - x:
            chosen[0.5 * (lo + x)] = False
        else:
            chosen[0.5 * (x + hi)] = False

    interior = np.array(sorted(chosen), dtype=float)
    flags = np.array([chosen[x] for x in sorted(chosen)], dtype=bool)
    return Partition((lo, hi), interior, flags)


def _partition_step(problem: Problem, window, extra, tol_sing: float
                    ) -> tuple[list[JumpReport], Partition]:
    """The window's jump reports and the partition at its singular jumps plus ``extra``."""
    reports = classify_jumps(problem, window, tol_sing)
    singular = [r.position for r in reports if r.status == "singular"]
    return reports, make_partition(window, singular, extra)
