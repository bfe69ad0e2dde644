#!/usr/bin/env python3
"""Classify a seeded batch of random maps and tabulate the verdicts.

Samples random bivariate representatives p, builds phi = p(x*z + y^2, z),
classifies the resulting map, and reports verdict counts, the
distribution of Lojasiewicz exponents, and the CPU time of each map's
analysis (expansion, classification and exponent) by verdict.  Every map
in this family is an automorphism, so NotAutomorphism never appears; the
interesting split is wild versus tame versus undecided.

Run:  python scripts/random_survey.py --count 200 --dvmax 8 --seed 1
"""

import argparse
import random
import statistics
import time
from collections import Counter, defaultdict

from nagata import classify, expand_bivariate, loj_exponent, random_poly2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--dvmax", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    verdicts = Counter()
    exponents = Counter()
    seconds = defaultdict(list)
    for _ in range(args.count):
        p = random_poly2(rng, args.dvmax)
        start = time.process_time()
        verdict = classify(expand_bivariate(p)).verdict
        exponent = loj_exponent(p).exponent
        seconds[verdict].append(time.process_time() - start)
        verdicts[verdict] += 1
        exponents[exponent] += 1

    print(f"{args.count} random maps, d_v(p) <= {args.dvmax}, seed {args.seed}")
    print()
    print("verdicts:")
    for verdict, n in verdicts.most_common():
        print(f"  {verdict:<28} {n:>5}  ({100 * n / args.count:.1f}%)")
    print()
    print("lojasiewicz exponents:")
    for exponent in sorted(exponents, reverse=True):
        print(f"  {str(exponent):>5}  {exponents[exponent]:>5}")
    print()
    print("cpu time per map, ms (process_time):")
    print(f"  {'verdict':<28} {'p50':>8} {'max':>8}")
    for verdict, _ in verdicts.most_common():
        times = seconds[verdict]
        print(f"  {verdict:<28} {1000 * statistics.median(times):>8.2f}"
              f" {1000 * max(times):>8.2f}")


if __name__ == "__main__":
    main()
