"""Print one line per command-line run: ``file mode exit sha256``.

Runs every mode (validate, analyze, solve, kernel, compact, verify) on every
``tests/data/*.json`` problem file, ``verify`` with ``--random 3 --seed 7``,
each in a fresh interpreter on the package under this checkout's ``src``.
The digest covers everything the run printed: stdout, then stderr.  Two
checkouts that give the same output give byte-identical reports and exit
codes; see "Running the tests" in the README for the comparison.

    python3 tests/report_digests.py
    python3 tests/report_digests.py --results
    python3 tests/report_digests.py --rows
    python3 tests/report_digests.py --compare BEFORE AFTER

``--results`` digests each report with its ``checks`` list removed (then
stderr; a run without a report is digested as printed), so that a change
to the rows alone leaves the results' digests as they were.

``--rows`` prints the runs row by row instead, one line
``file:mode "row" measured tolerance pass`` per check, the numbers at full
precision, so that a changed digest can be traced to the rows and
magnitudes that moved.  Each run then ends with one line
``file:mode - exit N``, also when it writes no report.

``--compare`` reads two ``--rows`` outputs and prints how many rows moved
out of the total, the rows found on one side only (counted by name),
every pass/fail flip, every exit-code change, and the largest move of a
measured value relative to its tolerance in BEFORE.  It exits 1 when a row
moved, a row is on one side only, a row flipped or an exit code changed,
and 0 when the two runs agree row for row.

The name does not match pytest's ``test_*.py``, so the suite does not
collect it.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
EXTRA = {"verify": ("--random", "3", "--seed", "7")}
USAGE = "usage: report_digests.py [--results | --rows | --compare BEFORE AFTER]"
ROW = re.compile(r'(\S+) (".*") (\S+) (\S+) (True|False)')
EXIT = re.compile(r"(\S+) - exit (-?\d+)")


def _read_rows(path: str) -> tuple[dict, dict]:
    """Rows keyed by (file, row, occurrence) -> (measured, tolerance, pass)
    as printed, and exit codes by file."""
    rows, exits, seen = {}, {}, Counter()
    for line in Path(path).read_text().splitlines():
        if match := EXIT.fullmatch(line):
            exits[match[1]] = match[2]
        elif match := ROW.fullmatch(line):
            name = (match[1], json.loads(match[2]))
            seen[name] += 1
            rows[(*name, seen[name])] = match.group(3, 4, 5)
    return rows, exits


def _relative_move(old: tuple, new: tuple) -> float:
    """|new - old| over old's tolerance; inf for a NaN or a move at tolerance 0."""
    move, tolerance = abs(float(new[0]) - float(old[0])), float(old[1])
    if move != move or (move and not tolerance):
        return float("inf")
    return move / tolerance if move else 0.0


def compare(before_path: str, after_path: str) -> bool:
    """Print the differences of two ``--rows`` outputs; True if there are any."""
    (before, before_exits), (after, after_exits) = map(_read_rows, (before_path, after_path))
    common = [key for key in before if key in after]
    moved = [key for key in common if before[key][:2] != after[key][:2]]
    print(f"rows moved: {len(moved)} of {len(common)}")
    one_sided = {"before": before.keys() - after.keys(), "after": after.keys() - before.keys()}
    for label, keys in one_sided.items():
        if keys:
            print(f"rows only in {label}: {len(keys)}")
            for name, count in sorted(Counter(key[1] for key in keys).items()):
                print(f"  {count} x {json.dumps(name)}")
    flips = [key for key in common if before[key][2] != after[key][2]]
    print(f"pass/fail flips: {len(flips)}")
    for key in flips:
        print(f"  {key[0]} {json.dumps(key[1])} {before[key][2]} -> {after[key][2]}")
    changed = sorted(file for file in before_exits.keys() & after_exits.keys()
                     if before_exits[file] != after_exits[file])
    print(f"exit-code changes: {len(changed)}")
    for file in changed:
        print(f"  {file} exit {before_exits[file]} -> {after_exits[file]}")
    if moved:
        key = max(moved, key=lambda k: _relative_move(before[k], after[k]))
        (old, tol, _), (new, _, _) = before[key], after[key]
        print(f"largest move: {_relative_move(before[key], after[key]):.3e} of its "
              f"tolerance, {key[0]} {json.dumps(key[1])} {old} -> {new} (tolerance {tol})")
    return bool(moved or any(one_sided.values()) or flips or changed)


def _without_checks(stdout: bytes) -> bytes:
    """The report with its ``checks`` list removed; stdout as printed when it
    holds no report."""
    try:
        report = json.loads(stdout)
        del report["checks"]
    except (ValueError, KeyError):
        return stdout
    return json.dumps(report).encode()


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return 1 if compare(argv[1], argv[2]) else 0
    if argv not in ([], ["--results"], ["--rows"]):
        print(USAGE, file=sys.stderr)
        return 2
    rows, results = argv == ["--rows"], argv == ["--results"]
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for data in sorted((root / "tests" / "data").glob("*.json")):
        for mode in MODES:
            proc = subprocess.run(
                [sys.executable, "-m", "measureode.cli", mode, "--input", str(data),
                 *EXTRA.get(mode, ())], capture_output=True, env=env)
            if not rows:
                stdout = _without_checks(proc.stdout) if results else proc.stdout
                digest = hashlib.sha256(stdout + proc.stderr).hexdigest()
                print(f"{data.name} {mode} {proc.returncode} {digest}", flush=True)
                continue
            try:
                checks = json.loads(proc.stdout)["checks"]
            except (ValueError, KeyError):
                checks = []
            label = f"{data.name}:{mode}"
            for check in checks:
                print(f"{label} {json.dumps(check['name'])} {check['defect']!r} "
                      f"{check['tolerance']!r} {check['pass']}", flush=True)
            print(f"{label} - exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
