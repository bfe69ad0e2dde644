"""Seeded random polynomial generators shared by the CLI and the tests.

The distributions are deliberately simple and fully documented so that
seeded runs are bit-reproducible:

* ``random_poly2(rng, dvmax)`` — every monomial t1^k1 * t2^k2 with
  2*k1 + k2 <= dvmax is kept independently with probability 1/2 and given
  a uniform nonzero integer coefficient in [-9, 9]; if everything is
  dropped, one monomial from the grid is chosen uniformly, so the result
  is never zero.
* ``random_poly3(rng, max_degree)`` — same scheme over the trivariate
  monomials of total degree <= max_degree, with keep probability 1/4
  (the grid is larger).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .poly import Exponent, Poly, RING2, RING3

if TYPE_CHECKING:
    import random

_COEFFS = tuple(c for c in range(-9, 10) if c)


def _sample(rng: random.Random, ring: tuple[str, ...], grid: list[Exponent],
            keep: float) -> Poly:
    """Keep each grid monomial with probability keep, with a nonzero
    coefficient; one uniform grid monomial if none is kept."""
    terms = {
        mono: rng.choice(_COEFFS)
        for mono in grid
        if rng.random() < keep
    }
    if not terms:
        terms[grid[rng.randrange(len(grid))]] = rng.choice(_COEFFS)
    return Poly(ring, terms)


def random_poly2(rng: random.Random, dvmax: int) -> Poly:
    if dvmax < 0:
        raise ValueError("dvmax must be nonnegative")
    grid = [
        (k1, k2)
        for k1 in range(dvmax // 2 + 1)
        for k2 in range(dvmax - 2 * k1 + 1)
    ]
    return _sample(rng, RING2, grid, 0.5)


def random_poly3(rng: random.Random, max_degree: int) -> Poly:
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    grid = [
        (a, b, c)
        for a in range(max_degree + 1)
        for b in range(max_degree - a + 1)
        for c in range(max_degree - a - b + 1)
    ]
    return _sample(rng, RING3, grid, 0.25)
