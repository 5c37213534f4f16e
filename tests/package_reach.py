"""Print every function of ``src/measureode`` that no command-line run enters.

Runs every mode (validate, analyze, solve, kernel, compact, verify) in this
process, under ``sys.settrace``, on every ``tests/data/*.json`` problem file
(or on the files given), ``verify`` with ``--random 3 --seed 7``, on the
package under this checkout's ``src``.  Prints one line ``file:line name``
for each function of the package that no run entered, in file order.

    python3 tests/package_reach.py
    python3 tests/package_reach.py --bench --lines
    python3 tests/package_reach.py tests/data/instance_a.json

``--lines`` adds one line ``file:line in name: statement`` for each simple
statement inside an entered function that no run executed (a branch never
taken shows as its statements).  ``--bench`` adds one cycle of each
perfbench workload's ``run`` and ``check`` at seed 7, once untraced and
once traced (perfbench's ``NullTracer`` and ``Tracer``); it imports
``perfbench/workloads.py`` and changes nothing under ``perfbench``.  What
a run does not enter is what only the tests reach.

The name does not match pytest's ``test_*.py``, so the suite does not
collect it.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "measureode"
MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
EXTRA = {"verify": ["--random", "3", "--seed", "7"]}
BENCH_SEED = 7
USAGE = "usage: package_reach.py [--lines] [--bench] [FILE ...]"

# Statements with a body of their own: their simple statements are listed instead.
_COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try)


def _functions(tree: ast.Module):
    """(first line, qualified name, node) of every function in a module.

    The first line is that of the code object: the first decorator's, if any.
    """
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
    visit(tree, "")
    return out


def _simple_statements(function: ast.FunctionDef):
    """The simple statements of a function's body, nested blocks included,
    nested functions and the docstring left out."""
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    stack, out = list(body), []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, _COMPOUND):
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, []):
                    stack.extend(child.body if isinstance(child, ast.ExceptHandler)
                                 else [child])
        else:
            out.append(node)
    return out


class _Reach:
    """The package functions entered and the package lines executed so far."""

    def __init__(self, lines: bool):
        self.prefix = str(PACKAGE) + os.sep
        self.lines = lines
        self.entered: set[tuple[str, int]] = set()
        self.executed: set[tuple[str, int]] = set()

    def call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno))
        return self.line if self.lines else None

    def line(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def report(self) -> list[str]:
        out = []
        for path in sorted(PACKAGE.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines, shown, found = source.splitlines(), path.relative_to(ROOT), []
            for first, name, node in _functions(ast.parse(source)):
                if (str(path), first) not in self.entered:
                    found.append((first, f"{shown}:{first} {name}"))
                elif self.lines:
                    for stmt in _simple_statements(node):
                        if not any((str(path), k) in self.executed
                                   for k in range(stmt.lineno, stmt.end_lineno + 1)):
                            found.append((stmt.lineno, f"{shown}:{stmt.lineno} in {name}: "
                                                       f"{lines[stmt.lineno - 1].strip()}"))
            out.extend(text for _, text in sorted(found))
        return out


def _cli_runs(files: list[Path]) -> None:
    from measureode import cli
    for data in files:
        for mode in MODES:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main([mode, "--input", str(data), *EXTRA.get(mode, [])])
                except SystemExit:
                    pass


def _bench_cycles() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import workloads
    with tempfile.TemporaryDirectory() as work:
        for workload_class in workloads.WORKLOADS.values():
            for tr in (tracing.NullTracer(), tracing.Tracer()):
                workload = workload_class(BENCH_SEED, Path(work), tr)
                for op in workload.cycle(0):
                    workload.check(op, workload.run(op, tr))


def main(argv: list[str]) -> int:
    flags = {arg for arg in argv if arg.startswith("--")}
    if flags - {"--lines", "--bench"}:
        print(USAGE, file=sys.stderr)
        return 2
    files = [Path(arg).resolve() for arg in argv if not arg.startswith("--")] \
        or sorted((ROOT / "tests" / "data").glob("*.json"))
    sys.path.insert(0, str(ROOT / "src"))
    # The cli-small workload's child processes import the same package.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    reach = _Reach("--lines" in flags)
    sys.settrace(reach.call)
    try:
        _cli_runs(files)
        if "--bench" in flags:
            _bench_cycles()
    finally:
        sys.settrace(None)
    for line in reach.report():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
