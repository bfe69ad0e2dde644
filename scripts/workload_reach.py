#!/usr/bin/env python3
"""List the statements of src/nagata that no timed benchmark operation runs.

Builds the timed operations of the chosen workloads of bench/workloads.py
(the seeded corpora the benchmark runs, imported without changing them),
runs each operation once under a sys.settrace line tracer limited to
src/nagata, checks every result, and prints each statement that none of
them executed, grouped by file, with its line number and first line.
A statement counts as executed when one of its own lines (not those of
the statements nested in it) raised a line event.  Only statements inside
function bodies are listed: module and class level code runs at import,
not in an operation.  A statement that the list shows is code no
workload needs, or code whose speed no workload measures.

Run:  python scripts/workload_reach.py --seed 41 --workload analyze_mix
"""

import argparse
import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nagata"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no cache files beside bench/

import nagata  # noqa: E402
import nagata.cli  # noqa: E402,F401 - workloads call nagata.cli.run
import workloads  # noqa: E402


def _executable_lines(source: str, path: Path) -> set[int]:
    """Lines that hold at least one bytecode instruction."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def statements(path: Path) -> list[tuple[int, str, set[int]]]:
    """(first line number, its text, own executable lines) of each
    statement inside a function body, in source order; a statement's own
    lines exclude those of the statements nested in it, and one with no
    instruction of its own (a docstring, a bare try) is left out."""
    source = path.read_text()
    lines = source.splitlines()
    executable = _executable_lines(source, path)
    found: dict[int, ast.stmt] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                found.update((id(n), n) for n in ast.walk(stmt) if isinstance(n, ast.stmt))
    result = []
    for stmt in sorted(found.values(), key=lambda s: (s.lineno, s.col_offset)):
        own = set(range(stmt.lineno, stmt.end_lineno + 1))
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        own = (own | {stmt.lineno}) & executable
        if own:
            result.append((stmt.lineno, lines[stmt.lineno - 1].strip(), own))
    return result


def trace_ops(ops, name: str) -> set[tuple[str, int]]:
    """(file name, line) of every line event in src/nagata while the ops
    run, one run each; every result is checked."""
    prefix = str(PACKAGE)
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    for op in ops:
        sys.settrace(call)
        try:
            result = op.run()
        finally:
            sys.settrace(None)
        cause = op.check(result)
        if cause:
            raise SystemExit(f"error: a {name} operation failed: {cause}")
    return reached


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append",
                        help="a workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=41)
    args = parser.parse_args()
    names = list(dict.fromkeys(args.workload or workloads.WORKLOADS))

    reached: set[tuple[str, int]] = set()
    for name in names:
        ops, _ = workloads.build(nagata, name, args.seed)
        reached |= trace_ops(ops, name)

    listed, total, report = 0, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        found = statements(path)
        missed = [(first, text) for first, text, own in found
                  if not any((str(path), line) in reached for line in own)]
        total += len(found)
        listed += len(missed)
        if missed:
            report.append(str(path.relative_to(ROOT)))
            report.extend(f"{first:6d}  {text}" for first, text in missed)
    print(f"statements no timed op runs: {', '.join(names)}, seed {args.seed}: "
          f"{listed} of {total} in function bodies")
    print("\n".join(report))


if __name__ == "__main__":
    main()
