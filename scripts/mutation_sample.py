#!/usr/bin/env python3
"""Sample one-change mutants of src/nagata and report which the tests kill.

A mutant changes one operator or literal of one module:

  + <-> -     < <-> <=     == <-> !=     and <-> or
  an int literal n -> n + 1                 a dropped `not`

The sites are found with the standard library's ast and tokenize, and a
mutant replaces only the text of its one token, so the rest of the file
(comments, line numbers) is unchanged.  --count sites are drawn with
--seed from the named modules (all of src/nagata by default).  The
repository is copied once into a temporary directory; each mutant is
written there, never under src/, and the copy's tests/ run against it
with `pytest -x`, all but tests/test_scripts.py, which reads the modules'
text and so fails on any mutant.  A mutant is killed when the run fails, times out or
runs out of memory, and survives when every test passes.  Each result is
printed as it completes, with its file, line, column and operator and the
mutated line's text, so that two sites of one token on one line print
apart; then the kill rate.  A surviving mutant is either equivalent or a
gap in the tests.

Run:  python scripts/mutation_sample.py --seed 1 --count 20 maps pde
"""

import argparse
import ast
import io
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "nagata")

SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Lt: ("<", "<="),
         ast.LtE: ("<=", "<"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.And: ("and", "or"), ast.Or: ("or", "and")}

# a full run of tests/ takes under a minute; a mutant that loops or
# allocates without bound is stopped and counted as killed
TIMEOUT_S = 180
MEMORY_BYTES = 2 << 30


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the repository root
    line: int
    operator: str  # e.g. "+ -> -"
    start: int  # character offsets of the replaced text in the module source
    end: int
    text: str

    def apply(self, source: str) -> str:
        return source[:self.start] + self.text + source[self.end:]

    def describe(self, source: str) -> str:
        """file:line:column (1-based), the operator and the mutated line."""
        first = source.rfind("\n", 0, self.start) + 1
        line = self.apply(source)[first:].partition("\n")[0].strip()
        return f"{self.path}:{self.line}:{self.start - first + 1} {self.operator}  | {line}"


def _offsets(source: str) -> list[int]:
    """Offset of the first character of each line, 1-based like ast."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def sites(path: Path, source: str) -> list[Mutant]:
    """Every mutant of the module at path, whose text is source, in source
    order."""
    lines = source.splitlines()
    line_start = _offsets(source)

    def offset(row: int, byte_col: int) -> int:
        # ast counts columns in UTF-8 bytes, tokenize in characters
        return line_start[row] + len(lines[row - 1].encode()[:byte_col].decode())

    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)]
    by_end = {line_start[t.end[0]] + t.end[1]: i for i, t in enumerate(tokens)}

    out: list[Mutant] = []

    def swap(before: ast.AST, op: ast.AST) -> None:
        """Swap the token of op, the first after the operand before it
        that is not a closing bracket."""
        old, new = SWAPS[type(op)]
        i = by_end[offset(before.end_lineno, before.end_col_offset)] + 1
        while tokens[i].string == ")":
            i += 1
        row, col = tokens[i].start
        assert tokens[i].string == old, (path, row, col)
        out.append(Mutant(path, row, f"{old} -> {new}", line_start[row] + col,
                          line_start[row] + col + len(old), new))

    tree = ast.parse(source)
    # positions inside f-strings are not reliable before Python 3.12
    skipped = {id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr)
               for n in ast.walk(s)}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            swap(node.left, node.op)
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                if type(op) in SWAPS:
                    swap(left, op)
        elif isinstance(node, ast.BoolOp):
            for value in node.values[:-1]:
                swap(value, node.op)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            out.append(Mutant(path, node.lineno, f"{source[start:end]} -> {node.value + 1}",
                              start, end, str(node.value + 1)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = offset(node.lineno, node.col_offset)
            out.append(Mutant(path, node.lineno, "not -> (dropped)", start, start + 3, ""))
    return sorted(out, key=lambda m: m.start)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(mutants: list[Mutant], tests: list[str]):
    """Yield (mutant, killed) for each mutant, run in one temporary copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        # no bytecode cache: a same-size mutant written within the same
        # second as the original would otherwise load the stale .pyc
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        for mutant in mutants:
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(mutant.apply(original))
            try:
                result = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     *tests], cwd=copy, env=env, capture_output=True,
                    timeout=TIMEOUT_S, preexec_fn=_limit_memory)
                # 1: a test failed; 2: -x stopped the run, e.g. on a failed import
                if result.returncode not in (0, 1, 2):
                    raise RuntimeError(f"pytest exited {result.returncode}:\n"
                                       + result.stdout.decode())
                killed = result.returncode != 0
            except subprocess.TimeoutExpired:
                killed = True
            finally:
                target.write_text(original)
            yield mutant, killed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("modules", nargs="*",
                        help="module names under src/nagata, e.g. maps pde (default: all)")
    args = parser.parse_args(argv)
    names = args.modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    # each module is read once: a mutant is printed from the source its
    # site was found in, even if the module is edited while the sample runs
    sources = {PACKAGE / f"{name}.py": (ROOT / PACKAGE / f"{name}.py").read_text()
               for name in names}
    pool = [m for path, source in sources.items() for m in sites(path, source)]
    sample = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    killed = 0
    # test_scripts.py reads src/nagata's text, so a mutant fails it by
    # changing that text, whatever the mutant does
    for mutant, dead in run(sample, ["tests", "--ignore=tests/test_scripts.py"]):
        killed += dead
        print(f"{'killed  ' if dead else 'SURVIVED'} {mutant.describe(sources[mutant.path])}",
              flush=True)
    print(f"killed {killed} of {len(sample)} sampled from {len(pool)} sites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
