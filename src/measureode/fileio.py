"""Problem files and reports: a strict JSON schema with [re, im] scalars.

Unknown keys are rejected everywhere so that a typo never silently changes a
run.  Reports are rendered with sorted keys and a fixed layout; two runs on
the same input produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coefficients import MeasureMatrix, Problem
from .errors import MeasureOdeError, ParseError
from .functions import L2Function

_PROBLEM_KEYS = {"n", "J", "interval", "q", "w", "f", "tolerances",
                 "window", "forced_partition_points"}
_MEASURE_KEYS = {"density", "atoms"}
_PIECE_KEYS = {"from", "to", "matrix"}
_ATOM_KEYS = {"x", "matrix"}
_F_KEYS = {"pieces", "atom_values"}
_F_PIECE_KEYS = {"from", "to", "vector"}
_F_ATOM_KEYS = {"x", "vector"}
_TOL_KEYS = {"tol_sing", "tol_rank", "tol_solve"}


def _reject_unknown(obj: dict, allowed: set, ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", ctx)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"unknown key '{unknown[0]}'", ctx)


def _fields(obj: dict, keys: set, ctx: str) -> None:
    """ParseError unless obj has exactly these keys, naming an unknown or missing one."""
    _reject_unknown(obj, keys, ctx)
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key '{key}'", ctx)


def _number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", ctx)
    return float(value)


def check_tolerance(value: float, ctx: str) -> float:
    """A tolerance strictly between 0 and 1 (so not NaN); ParseError otherwise."""
    if not 0.0 < value < 1.0:
        raise ParseError("tolerances must lie strictly between 0 and 1", ctx)
    return value


def _complex_pair(value, ctx: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2):
        raise ParseError("complex scalars are [re, im] pairs", ctx)
    return complex(_number(value[0], ctx), _number(value[1], ctx))


def _matrix(value, n: int, ctx: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ParseError(f"expected {n} matrix rows", ctx)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"expected {n} entries in row {i}", ctx)
        rows.append([_complex_pair(e, f"{ctx}[{i}]") for e in row])
    return np.asarray(rows, dtype=complex)


def _vector(value, n: int, ctx: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ParseError(f"expected a vector of {n} [re, im] pairs", ctx)
    return np.asarray([_complex_pair(e, ctx) for e in value], dtype=complex)


def _measure(value, interval, n: int, ctx: str) -> MeasureMatrix:
    _reject_unknown(value, _MEASURE_KEYS, ctx)
    a, b = interval
    density = value.get("density", [])
    if not isinstance(density, list):
        raise ParseError("density must be a list of pieces", ctx)
    breakpoints = None
    densities = None
    if density:
        edges = [a]
        mats = []
        for i, piece in enumerate(density):
            pctx = f"{ctx}.density[{i}]"
            _fields(piece, _PIECE_KEYS, pctx)
            p0 = _number(piece["from"], pctx)
            p1 = _number(piece["to"], pctx)
            if p0 != edges[-1]:
                raise ParseError(
                    f"pieces must tile the interval; got 'from'={p0} "
                    f"after {edges[-1]}", pctx)
            if not p1 > p0:
                raise ParseError("piece must have 'to' > 'from'", pctx)
            edges.append(p1)
            mats.append(_matrix(piece["matrix"], n, pctx))
        if edges[-1] != b:
            raise ParseError(f"density pieces must end at {b}", ctx)
        breakpoints, densities = edges, mats

    atoms = []
    raw_atoms = value.get("atoms", [])
    if not isinstance(raw_atoms, list):
        raise ParseError("atoms must be a list", ctx)
    for i, atom in enumerate(raw_atoms):
        actx = f"{ctx}.atoms[{i}]"
        _fields(atom, _ATOM_KEYS, actx)
        atoms.append((_number(atom["x"], actx), _matrix(atom["matrix"], n, actx)))
    atoms.sort(key=lambda p: p[0])
    try:
        return MeasureMatrix(interval, n=n, breakpoints=breakpoints,
                             densities=densities, atoms=atoms)
    except (MeasureOdeError, ValueError) as exc:
        raise ParseError(str(exc), ctx) from exc


def _rhs(value, n: int, w: MeasureMatrix, ctx: str) -> L2Function:
    _reject_unknown(value, _F_KEYS, ctx)
    raw_pieces = value.get("pieces", [])
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise ParseError("f needs a nonempty 'pieces' list", ctx)
    pieces = []
    for i, piece in enumerate(raw_pieces):
        pctx = f"{ctx}.pieces[{i}]"
        _fields(piece, _F_PIECE_KEYS, pctx)
        pieces.append((_number(piece["from"], pctx), _number(piece["to"], pctx),
                       _vector(piece["vector"], n, pctx)))
    raw_atom_values = value.get("atom_values", [])
    if not isinstance(raw_atom_values, list):
        raise ParseError("atom_values must be a list", ctx)
    atom_values = {}
    for i, item in enumerate(raw_atom_values):
        actx = f"{ctx}.atom_values[{i}]"
        _fields(item, _F_ATOM_KEYS, actx)
        atom_values[_number(item["x"], actx)] = _vector(item["vector"], n, actx)
    pieces.sort(key=lambda t: t[0])
    window = (pieces[0][0], pieces[-1][1])
    try:
        return L2Function.from_pieces(window, pieces, atom_values, w=w)
    except MeasureOdeError as exc:
        raise ParseError(str(exc), ctx) from exc


@dataclass
class ParsedProblem:
    """Everything a problem file carries, plus the raw echo for reports."""

    problem: Problem
    f: L2Function | None
    window: tuple[float, float]
    tolerances: dict[str, float]
    forced_points: tuple[float, ...]
    raw: dict


def parse_problem(data: dict) -> ParsedProblem:
    _reject_unknown(data, _PROBLEM_KEYS, "$")
    for key in ("n", "J", "interval", "q", "w"):
        if key not in data:
            raise ParseError(f"missing required key '{key}'", "$")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError("'n' must be a positive integer", "$.n")
    J = _matrix(data["J"], n, "$.J")

    interval = data["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise ParseError("'interval' must be [a, b]", "$.interval")
    a = _number(interval[0], "$.interval")
    b = _number(interval[1], "$.interval")
    if not a < b:
        raise ParseError("interval must satisfy a < b", "$.interval")

    q = _measure(data["q"], (a, b), n, "$.q")
    w = _measure(data["w"], (a, b), n, "$.w")
    try:
        problem = Problem(J, q, w)
    except MeasureOdeError as exc:
        raise ParseError(str(exc), "$") from exc

    window = (a, b)
    if "window" in data:
        win = data["window"]
        if not isinstance(win, list) or len(win) != 2:
            raise ParseError("'window' must be [lo, hi]", "$.window")
        lo = _number(win[0], "$.window")
        hi = _number(win[1], "$.window")
        if not (a <= lo < hi <= b):
            raise ParseError("window must sit inside the interval", "$.window")
        window = (lo, hi)

    f = None
    if "f" in data:
        f = _rhs(data["f"], n, w, "$.f")
        if not f.covers(*window):
            raise ParseError("f does not cover the window", "$.f")

    tolerances = {}
    if "tolerances" in data:
        _reject_unknown(data["tolerances"], _TOL_KEYS, "$.tolerances")
        for key, value in data["tolerances"].items():
            ctx = f"$.tolerances.{key}"
            tolerances[key] = check_tolerance(_number(value, ctx), ctx)

    raw_forced = data.get("forced_partition_points", [])
    if not isinstance(raw_forced, list):
        raise ParseError("forced_partition_points must be a list",
                         "$.forced_partition_points")
    forced = []
    for i, value in enumerate(raw_forced):
        x = _number(value, f"$.forced_partition_points[{i}]")
        if not (window[0] < x < window[1]):
            raise ParseError("forced partition points must lie strictly inside "
                             "the window", f"$.forced_partition_points[{i}]")
        forced.append(x)

    return ParsedProblem(problem, f, window, tolerances, tuple(sorted(forced)), data)


def load_problem(path: str) -> ParsedProblem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level of a problem file must be an object")
    return parse_problem(data)


# -- serialization ---------------------------------------------------------------


def complex_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_json(v) -> list:
    return [complex_json(z) for z in np.asarray(v).reshape(-1)]


def matrix_json(m) -> list:
    m = np.asarray(m)
    return [[complex_json(z) for z in row] for row in m]


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
