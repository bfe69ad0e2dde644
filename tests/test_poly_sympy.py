"""Differential test of the ``Poly`` core against sympy's sparse rings.

sympy is a test dependency only (the ``test`` extra), not a runtime one;
the test is skipped when it is not installed.  Seeded small random
polynomials in RING3 and RING2 go through ``+``, ``-``, ``*``, ``**``,
``substitute`` and ``expand_bivariate`` here and through
``sympy.ring(..., QQ)`` arithmetic and ``compose`` there, and the
results are compared coefficient by coefficient.  The Jacobian
determinant of a general endomorphism is compared with sympy's
``Matrix.jacobian(...).det()``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nagata import Poly, PolyEndo, RING2, RING3, X, Y, Z, expand_bivariate, jacobian
from nagata.maps import _determinant
from _strategies import poly3s

sympy = pytest.importorskip("sympy")

CASES = 60


def random_poly(rng: random.Random, ring, max_exp=3, max_terms=4) -> Poly:
    terms = [
        (tuple(rng.randint(0, max_exp) for _ in ring),
         Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        for _ in range(rng.randint(0, max_terms))
    ]
    return Poly(ring, terms)


class Embedding:
    """A sympy ring over the generators ``source + target`` (source names
    prefixed, so that a ring can be substituted into itself), with maps
    from ``Poly`` and back to coefficient dicts over one of the parts."""

    def __init__(self, source, target):
        self.source, self.target = source, target
        names = [f"s_{v}" for v in source] + list(target)
        self.ring, *self.gens = sympy.ring(",".join(names), sympy.QQ)

    def lift(self, p: Poly, part: str):
        """p, whose ring is ``source`` or ``target``, as a ring element."""
        width = len(self.source)
        pad = (0,) * (len(self.target) if part == "source" else width)
        terms = {}
        for exp, c in p.terms():
            exp = exp + pad if part == "source" else pad + exp
            c = Fraction(c)
            terms[exp] = sympy.QQ(c.numerator, c.denominator)
        return self.ring.from_dict(terms)

    def coefficients(self, element, part: str) -> dict:
        """Coefficients of an element that lives in one part only."""
        width = len(self.source)
        out = {}
        for exp, c in element.items():
            head, tail = exp[:width], exp[width:]
            assert not any(tail if part == "source" else head)
            key = head if part == "source" else tail
            out[key] = Fraction(int(c.numerator), int(c.denominator))
        return out


def coefficients(p: Poly) -> dict:
    return {exp: Fraction(c) for exp, c in p.terms()}


@pytest.mark.parametrize("ring", [RING3, RING2], ids=["RING3", "RING2"])
def test_ring_operations_match_sympy(ring):
    rng = random.Random(20261018)
    emb = Embedding(ring, ())
    for _ in range(CASES):
        p, q = random_poly(rng, ring), random_poly(rng, ring)
        n = rng.randint(0, 4)
        sp, sq = emb.lift(p, "source"), emb.lift(q, "source")
        # sympy refuses 0**0; the package makes it 1, like any p**0
        power = sp ** n if n or sp else emb.ring.one
        for ours, theirs in ((p + q, sp + sq), (p - q, sp - sq),
                             (p * q, sp * sq), (p ** n, power)):
            assert coefficients(ours) == emb.coefficients(theirs, "source"), (p, q, n)


@pytest.mark.parametrize("source, target", [
    (RING3, RING3), (RING2, RING3), (RING3, RING2), (RING2, RING2),
], ids=["RING3-into-RING3", "RING2-into-RING3", "RING3-into-RING2", "RING2-into-RING2"])
def test_substitute_matches_sympy_compose(source, target):
    rng = random.Random(41)
    emb = Embedding(source, target)
    for _ in range(CASES // 2):
        p = random_poly(rng, source, max_exp=2)
        values = [random_poly(rng, target, max_exp=2, max_terms=3) for _ in source]
        expected = emb.lift(p, "source").compose(
            [(gen, emb.lift(v, "target")) for gen, v in zip(emb.gens, values)])
        assert coefficients(p.substitute(*values)) == emb.coefficients(expected, "target"), (
            p, values)


def test_expand_bivariate_matches_sympy_compose():
    rng = random.Random(7)
    emb = Embedding(RING2, RING3)
    _, _, x, y, z = emb.gens
    for _ in range(CASES):
        p = random_poly(rng, RING2)
        expected = emb.lift(p, "source").compose(
            [(emb.gens[0], x * z + y ** 2), (emb.gens[1], z)])
        assert coefficients(expand_bivariate(p)) == emb.coefficients(expected, "target"), p


def _expr(p: Poly):
    """p as a sympy expression in the symbols x, y, z."""
    gens = sympy.symbols(RING3)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(g ** e for g, e in zip(gens, exp)))
                       for exp, c in p.terms()))


def _sympy_determinant(e: PolyEndo) -> dict:
    gens = sympy.symbols(RING3)
    det = sympy.Matrix([_expr(c) for c in e]).jacobian(gens).det()
    return {exp: Fraction(int(c.p), int(c.q))
            for exp, c in sympy.Poly(det, *gens, domain=sympy.QQ).as_dict().items()
            if c}


# For a map of the family h = z, so the minor that multiplies m[0][2] in
# the cofactor expansion vanishes; here h != z, and that term is -2*y*z.
@example((X + Z ** 2, Y, Z + X * Y))
@given(st.tuples(poly3s, poly3s, poly3s))
def test_jacobian_determinant_matches_sympy(components):
    e = PolyEndo(*components)
    assert coefficients(_determinant(jacobian(e))) == _sympy_determinant(e), e
