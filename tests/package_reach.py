"""Print every function of ``src/measureode`` that no command-line run enters.

Runs every mode (validate, analyze, solve, kernel, compact, verify) in this
process, under ``sys.settrace``, on every ``tests/data/*.json`` problem file
(or on the files given), ``verify`` with ``--random 3 --seed 7``, on the
package under this checkout's ``src``.  Prints one line ``file:line name``
for each function of the package that no run entered, in file order.

    python3 tests/package_reach.py
    python3 tests/package_reach.py --bench --lines
    python3 tests/package_reach.py --bench --arms
    python3 tests/package_reach.py tests/data/instance_a.json

``--lines`` adds one line ``file:line in name: statement`` for each simple
statement inside an entered function that no run executed (a branch never
taken shows as its statements).  ``--arms`` adds one line ``file:line in
name: kind: source`` for each arm of a conditional expression (``if arm``,
``else arm``) and each operand after the first of an ``and`` or ``or``
(``and operand``, ``or operand``) that never ran although its condition
did: the expression's test, or the operand before it.  An arm of a
statement that never ran, or inside an arm that never ran, is not listed
again.  It traces opcodes (``frame.f_trace_opcodes``) and maps each
executed instruction to its source span through ``co_positions()``, so it
is several times slower than the other listings.  ``--bench`` adds one
cycle of each perfbench workload's ``run`` and ``check`` at seed 7, once
untraced and once traced (perfbench's ``NullTracer`` and ``Tracer``); it
imports ``perfbench/workloads.py`` and changes nothing under
``perfbench``.  What a run does not enter is what only the tests reach.

The name does not match pytest's ``test_*.py``, so the suite does not
collect it.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from itertools import pairwise
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "measureode"
MODES = ("validate", "analyze", "solve", "kernel", "compact", "verify")
EXTRA = {"verify": ["--random", "3", "--seed", "7"]}
BENCH_SEED = 7
USAGE = "usage: package_reach.py [--lines] [--arms] [--bench] [FILE ...]"

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


def _arms(tree: ast.Module):
    """(name, condition, arm, kind) of every conditional-expression arm and of
    every ``and``/``or`` operand after the first, in the function ``name``
    (``<module>`` outside any): the arm runs only after its condition, the
    test or the operand before it."""
    out = []

    def visit(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, f"{prefix}{child.name}.<locals>.", prefix + child.name)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", name)
                continue
            if isinstance(child, ast.IfExp):
                out.extend([(name, child.test, child.body, "if arm"),
                            (name, child.test, child.orelse, "else arm")])
            elif isinstance(child, ast.BoolOp):
                kind = "and operand" if isinstance(child.op, ast.And) else "or operand"
                out.extend((name, a, b, kind) for a, b in pairwise(child.values))
            visit(child, prefix, name)
    visit(tree, "", "<module>")
    return out


def _ran(spans: dict, node: ast.expr) -> bool:
    """Whether an executed instruction's span, from ``spans`` (first line ->
    (line, col, end line, end col)), lies inside the node's source span."""
    start, end = (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)
    return any(start <= span[:2] and span[2:] <= end
               for k in range(node.lineno, node.end_lineno + 1) for span in spans.get(k, ()))


class _Reach:
    """The package functions entered, and the package lines and instructions
    executed so far."""

    def __init__(self, lines: bool, arms: bool):
        self.prefix = str(PACKAGE) + os.sep
        self.lines, self.arms = lines, arms
        self.entered: set[tuple[str, int]] = set()
        self.executed: set[tuple[str, int]] = set()
        self.offsets: defaultdict = defaultdict(set)  # code object -> f_lasti values

    def call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno))
        frame.f_trace_opcodes = self.arms
        return self.local if self.lines or self.arms else None

    def local(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "opcode":
            self.offsets[frame.f_code].add(frame.f_lasti)
        return self.local

    def _spans(self, path: Path) -> dict:
        """First line -> source spans of the executed instructions of one file."""
        spans = defaultdict(list)
        for code, offsets in self.offsets.items():
            if code.co_filename == str(path):
                positions = list(code.co_positions())  # one per 2-byte code unit
                for offset in offsets:
                    line, end, col, end_col = positions[offset // 2]
                    if None not in (line, end, col, end_col):
                        spans[line].append((line, col, end, end_col))
        return spans

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
            if self.arms:
                spans = self._spans(path)
                for name, condition, arm, kind in _arms(ast.parse(source)):
                    if _ran(spans, condition) and not _ran(spans, arm):
                        text = " ".join(ast.get_source_segment(source, arm).split())
                        found.append((arm.lineno, f"{shown}:{arm.lineno} in {name}: "
                                                  f"{kind}: {text}"))
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
    if flags - {"--lines", "--arms", "--bench"}:
        print(USAGE, file=sys.stderr)
        return 2
    files = [Path(arg).resolve() for arg in argv if not arg.startswith("--")] \
        or sorted((ROOT / "tests" / "data").glob("*.json"))
    sys.path.insert(0, str(ROOT / "src"))
    # The cli-small workload's child processes import the same package.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    reach = _Reach("--lines" in flags, "--arms" in flags)
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
