#!/usr/bin/env python3
"""Measure what one cold command-line call costs the package, per command.

Runs one fixed argv per command of the nagata CLI, each as a fresh
interpreter that imports nagata.cli from this checkout's src/ and calls
run(), and reads each child's CPU time (user plus system) through
resource.RUSAGE_CHILDREN.  The same interpreter with the same flags
running `pass` is timed in every round too.  A command's package CPU is
the minimum over --runs rounds of its child's CPU, minus the minimum of
the `pass` child's: the import, reading argv and the call, but not
the interpreter's own start.  Every child runs under -I; --no-site adds
-S, so that modules a site imports (one that loads certifi also loads
typing, re, enum and random) count against the package.  One untimed round first
writes the byte code, as a first call would.

Run:  python scripts/cold_cli.py --runs 31 [--no-site]
"""

import argparse
import resource
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from nagata.cli import run; sys.exit(run())"

# one call per command, with the exit code it must give
CALLS = [
    (["analyze", "x*z + y^2", "--json"], 0),
    (["invert", "t1^2 + t2"], 0),
    (["compose", "x + y^2, y, z", "x, y + z^2, z"], 0),
    (["classify", "x*z + y^2"], 0),
    (["basis", "6"], 0),
    (["oracle", "5", "--json"], 0),
    (["loj", "t1^2 + t2"], 0),
    (["decompose", "x*z + y^2"], 0),
    (["random", "--dvmax", "6", "--seed", "0", "--json"], 0),
]


def child_cpu(cmd: list[str], expected: int) -> float:
    """CPU seconds of one child running cmd, which must exit expected."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != expected:
        raise SystemExit(f"error: {cmd[3:]} exited {done.returncode}, "
                         f"not {expected}: {done.stderr.strip()}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=31)
    parser.add_argument("--no-site", action="store_true",
                        help="run the children under -S as well as -I")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    flags = ["-I", "-S"] if args.no_site else ["-I"]
    base = [sys.executable, *flags, "-c"]
    # the `pass` child first, then one child per call, in every round
    children = [(base + ["pass"], 0)] + [(base + [CHILD, str(SRC), *argv], code)
                                         for argv, code in CALLS]
    for cmd, code in children:
        child_cpu(cmd, code)
    best = [float("inf")] * len(children)
    for _ in range(args.runs):
        for i, (cmd, code) in enumerate(children):
            best[i] = min(best[i], child_cpu(cmd, code))

    print(f"package CPU of one cold call, ms: minimum of {args.runs} runs under "
          f"python {' '.join(flags)}, minus {best[0] * 1e3:.1f} ms for `pass`")
    for (argv, _), cpu in zip(CALLS, best[1:]):
        print(f"{(cpu - best[0]) * 1e3:7.1f}  {shlex.join(argv)}")


if __name__ == "__main__":
    main()
