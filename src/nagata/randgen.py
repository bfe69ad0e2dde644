"""The seeded generator of p, for ``nagata random`` and the tests.

The distribution is deliberately simple and fully documented so that
seeded runs are bit-reproducible: ``random_poly2(rng, dvmax)`` keeps every
monomial t1^k1 * t2^k2 with 2*k1 + k2 <= dvmax independently with
probability 1/2 and gives it a uniform nonzero integer coefficient in
[-9, 9]; if everything is dropped, one monomial from the grid is chosen
uniformly, so the result is never zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .poly import Poly, RING2

if TYPE_CHECKING:
    import random

_COEFFS = tuple(c for c in range(-9, 10) if c)


def random_poly2(rng: random.Random, dvmax: int) -> Poly:
    if dvmax < 0:
        raise ValueError("dvmax must be nonnegative")
    grid = [
        (k1, k2)
        for k1 in range(dvmax // 2 + 1)
        for k2 in range(dvmax - 2 * k1 + 1)
    ]
    # per monomial: the keep draw, then the coefficient draw if kept; the
    # fallback draws its coefficient before its monomial
    terms = {mono: rng.choice(_COEFFS) for mono in grid if rng.random() < 0.5}
    if not terms:
        terms[grid[rng.randrange(len(grid))]] = rng.choice(_COEFFS)
    return Poly(RING2, terms)
