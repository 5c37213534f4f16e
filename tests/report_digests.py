"""Print one line per command-line run: ``file mode exit sha256``.

Runs every mode (validate, analyze, solve, kernel, compact, verify) on every
``tests/data/*.json`` problem file, ``verify`` with ``--random 3 --seed 7``,
each in a fresh interpreter on the package under this checkout's ``src``.
The digest covers everything the run printed: stdout, then stderr.  Two
checkouts that give the same output give byte-identical reports and exit
codes; see "Running the tests" in the README for the comparison.

    python3 tests/report_digests.py

The name does not match pytest's ``test_*.py``, so the suite does not
collect it.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
EXTRA = {"verify": ("--random", "3", "--seed", "7")}


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for data in sorted((root / "tests" / "data").glob("*.json")):
        for mode in MODES:
            proc = subprocess.run(
                [sys.executable, "-m", "measureode.cli", mode, "--input", str(data),
                 *EXTRA.get(mode, ())], capture_output=True, env=env)
            digest = hashlib.sha256(proc.stdout + proc.stderr).hexdigest()
            print(f"{data.name} {mode} {proc.returncode} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
