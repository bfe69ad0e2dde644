#!/usr/bin/env python3
"""Profile one benchmark workload with cProfile and print self time by file.

Builds the timed operations of one workload of bench/workloads.py (the
seeded corpus the benchmark runs, imported without changing it), runs
them for --passes whole passes under cProfile, checks every result, and
prints each source file's share of the profiled self time, largest first.
It then lists the 15 functions with the most self time, with their
call counts.  cProfile adds a cost to every Python
call, so it overstates call-heavy code (generators, small helpers); the
shares locate work, and speed claims come from bench/run.py.

Run:  python scripts/profile_by_file.py --workload analyze_mix --seed 41 --passes 10
"""

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no cache files beside bench/

import nagata  # noqa: E402
import nagata.cli  # noqa: E402,F401 - workloads call nagata.cli.run
import workloads  # noqa: E402

TOP_FUNCTIONS = 15


def _label(filename: str) -> str:
    if filename == "~":
        return "(built-in)"
    path = Path(filename)
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else path.name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="analyze_mix")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--passes", type=int, default=10)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    ops, _ = workloads.build(nagata, args.workload, args.seed)
    profile = cProfile.Profile()
    for _ in range(args.passes):
        for op in ops:
            profile.enable()
            result = op.run()
            profile.disable()
            cause = op.check(result)
            if cause:
                raise SystemExit(f"error: a {args.workload} operation failed: {cause}")

    stats = pstats.Stats(profile).stats
    by_file = Counter()
    for (filename, _, _), (_, _, self_s, _, _) in stats.items():
        by_file[_label(filename)] += self_s
    total = sum(by_file.values())
    print(f"self time by file: {args.workload}, seed {args.seed}, {args.passes} passes "
          f"of {len(ops)} ops, {total:.3f} s under cProfile")
    print(f"{'share':>7} {'self_s':>8}  file")
    for label, self_s in by_file.most_common():
        print(f"{100 * self_s / total:6.1f}% {self_s:8.3f}  {label}")
    print(f"\ntop {TOP_FUNCTIONS} functions by self time")
    print(f"{'share':>7} {'self_s':>8} {'calls':>9}  function")
    top = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    for (filename, line, name), (_, calls, self_s, _, _) in top[:TOP_FUNCTIONS]:
        where = name if filename == "~" else f"{_label(filename)}:{line}({name})"
        print(f"{100 * self_s / total:6.1f}% {self_s:8.3f} {calls:9d}  {where}")


if __name__ == "__main__":
    main()
