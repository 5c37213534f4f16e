"""Print one line per command-line run: ``file mode exit sha256``.

Runs every mode (validate, analyze, solve, kernel, compact, verify) on every
``tests/data/*.json`` problem file, ``verify`` with ``--random 3 --seed 7``,
each in a fresh interpreter on the package under this checkout's ``src``.
The digest covers everything the run printed: stdout, then stderr.  Two
checkouts that give the same output give byte-identical reports and exit
codes; see "Running the tests" in the README for the comparison.

    python3 tests/report_digests.py
    python3 tests/report_digests.py --rows

``--rows`` prints the ``verify`` runs row by row instead, one line
``file "row" measured tolerance pass`` per check, the numbers at full
precision, so that a changed ``verify`` digest can be traced to the rows
and magnitudes that moved.  A file whose run writes no report gets one
line ``file - exit N``.

The name does not match pytest's ``test_*.py``, so the suite does not
collect it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
EXTRA = {"verify": ("--random", "3", "--seed", "7")}


def main(argv: list[str]) -> int:
    rows = argv == ["--rows"]
    if argv and not rows:
        print("usage: report_digests.py [--rows]", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for data in sorted((root / "tests" / "data").glob("*.json")):
        for mode in ("verify",) if rows else MODES:
            proc = subprocess.run(
                [sys.executable, "-m", "measureode.cli", mode, "--input", str(data),
                 *EXTRA.get(mode, ())], capture_output=True, env=env)
            if not rows:
                digest = hashlib.sha256(proc.stdout + proc.stderr).hexdigest()
                print(f"{data.name} {mode} {proc.returncode} {digest}", flush=True)
                continue
            try:
                checks = json.loads(proc.stdout)["checks"]
            except (ValueError, KeyError):
                print(f"{data.name} - exit {proc.returncode}", flush=True)
                continue
            for check in checks:
                print(f"{data.name} {json.dumps(check['name'])} {check['defect']!r} "
                      f"{check['tolerance']!r} {check['pass']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
