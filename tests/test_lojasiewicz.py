import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import nagata.lojasiewicz
from nagata import (
    Poly,
    PolyEndo,
    RING2,
    T1,
    T2,
    X,
    Y,
    Z,
    deformation_compare,
    loj_exponent,
    random_poly2,
)
from nagata.lojasiewicz import LojReport, _loj_report
from _strategies import nonzero_poly2s

EXWW = T1 ** 2 - T2 ** 3 + T1 * T2 ** 2


class TestExponent:
    def test_classical_map(self):
        report = loj_exponent(T1)
        assert report.phi_degree == 2
        assert report.inverse_degree == 5
        assert report.exponent == Fraction(1, 5)

    def test_constant_gives_affine_inverse(self):
        assert loj_exponent(Poly.constant(RING2, 7)).exponent == 1
        assert loj_exponent(Poly.zero(RING2)).exponent == 1

    def test_mixed_example(self):
        assert loj_exponent(EXWW).exponent == Fraction(1, 9)

    def test_wrong_ring_rejected(self):
        from nagata import X

        with pytest.raises(ValueError):
            loj_exponent(X)

    @given(nonzero_poly2s.filter(lambda p: not p.is_constant()))
    @settings(max_examples=50)
    def test_exponent_from_weighted_degree(self, p):
        report = loj_exponent(p)
        assert report.exponent == Fraction(1, 2 * p.weighted_degree((2, 1)) + 1)
        assert report.inverse_degree % 2 == 1
        assert 0 < report.exponent <= 1


class TestDeformation:
    def test_perturbation_drops_exponent(self):
        report = deformation_compare(T1, T1 + T2 ** 5)
        assert report.base.exponent == Fraction(1, 5)
        assert report.deformed.exponent == Fraction(1, 11)
        assert report.monotone
        assert report.ordering == "<"

    def test_equal_polynomials(self):
        report = deformation_compare(EXWW, EXWW)
        assert report.ordering == "="
        assert report.monotone

    def test_constant_base(self):
        report = deformation_compare(Poly.constant(RING2, 1), 1 + T1)
        assert report.base.exponent == 1
        assert report.deformed.exponent == Fraction(1, 5)

    def test_support_violation_names_monomial(self):
        with pytest.raises(ValueError, match="t1"):
            deformation_compare(T1, T2)

    def test_random_monotonicity(self):
        rng = random.Random(23)
        for _ in range(40):
            p = random_poly2(rng, 5)
            extra = {}
            for _ in range(rng.randint(1, 3)):
                mono = (rng.randint(0, 3), rng.randint(0, 3))
                if mono not in p.support():
                    extra[mono] = rng.choice([c for c in range(-9, 10) if c])
            p_s = p + Poly(RING2, extra)
            report = deformation_compare(p, p_s)
            assert report.monotone


class TestSelfChecks:
    """Each self-check raises on one injected wrong value."""

    def test_wrong_inverse_degree_raises(self):
        # the identity has degree 1; the inverse for phi of degree 2 has 5
        with pytest.raises(RuntimeError, match="inverse degree.*arithmetic bug"):
            _loj_report(X * Z + Y ** 2, PolyEndo.identity())

    def test_non_monotone_exponents_raise(self, monkeypatch):
        # the deformation gets the larger exponent
        reports = {T1: LojReport(2, 5, Fraction(1, 5)), T1 + T2: LojReport(0, 1, Fraction(1))}
        monkeypatch.setattr(nagata.lojasiewicz, "loj_exponent", reports.__getitem__)
        with pytest.raises(RuntimeError, match="monotonicity violated; arithmetic bug"):
            deformation_compare(T1, T1 + T2)
