"""Shared hypothesis strategies for small exact polynomials, and the
check that a value is stored in its reduced form."""

import math

import hypothesis.strategies as st

from nagata import Poly, RING2, RING3

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
