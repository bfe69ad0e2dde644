"""Shared hypothesis strategies for small exact polynomials, the check
that a value is stored in its reduced form, the seeded trivariate
generator the tests draw phi from, and constant points for substitution."""

import math

import hypothesis.strategies as st

from nagata import Poly, RING2, RING3
from nagata.randgen import _COEFFS

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_rationals = rationals.filter(bool)


def term_lists(ring, max_exp=3, max_terms=4):
    """(exponent, coefficient) pairs; exponents may repeat."""
    exponents = st.tuples(*([st.integers(0, max_exp)] * len(ring)))
    return st.lists(st.tuples(exponents, nonzero_rationals), max_size=max_terms)


def polys(ring, max_exp=3, max_terms=4):
    return term_lists(ring, max_exp, max_terms).map(lambda terms: Poly(ring, terms))


poly3s = polys(RING3)
poly2s = polys(RING2)
nonzero_poly2s = poly2s.filter(lambda p: not p.is_zero())
nonzero_poly3s = poly3s.filter(lambda p: not p.is_zero())
points3 = st.tuples(rationals, rationals, rationals)


def is_stored_reduced(p):
    """Integer numerators, none zero, over a denominator >= 1 that shares
    no factor with all of them."""
    numerators = p._coeffs.values()
    return (type(p._den) is int and p._den >= 1
            and all(type(c) is int and c for c in numerators)
            and math.gcd(p._den, *numerators) == 1)


def random_poly3(rng, max_degree):
    """Every monomial of x, y, z of total degree <= max_degree is kept
    independently with probability 1/4 and given a uniform nonzero integer
    coefficient in [-9, 9]; if everything is dropped, one grid monomial is
    chosen uniformly.  It draws from rng in the order of random_poly2, as
    when the package exported it, so the tests' seeded phi are unchanged."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    grid = [
        (a, b, c)
        for a in range(max_degree + 1)
        for b in range(max_degree - a + 1)
        for c in range(max_degree - a - b + 1)
    ]
    terms = {mono: rng.choice(_COEFFS) for mono in grid if rng.random() < 0.25}
    if not terms:
        terms[grid[rng.randrange(len(grid))]] = rng.choice(_COEFFS)
    return Poly(RING3, terms)


def constants(*point):
    """One constant polynomial of x, y, z per coordinate: substituted into
    a polynomial they give its value at the point as a constant."""
    return tuple(Poly.constant(RING3, c) for c in point)
