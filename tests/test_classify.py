import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from nagata import (
    Poly,
    PolyEndo,
    RING3,
    T1,
    T2,
    Verdict,
    X,
    Y,
    Z,
    build_nagata,
    classify,
    compose,
    expand_bivariate,
    wild_by_leading_form,
)
from _leading_minors import leading_minor_closed_forms, leading_minors
from _strategies import nonzero_poly2s, poly2s, random_poly3

PHI = X * Z + Y ** 2
EXWW = T1 ** 2 - T2 ** 3 + T1 * T2 ** 2
# the module; the package attribute nagata.classify is the function
CLASSIFY = importlib.import_module("nagata.classify")


class TestClassify:
    def test_classical_map_is_wild(self):
        result = classify(PHI)
        assert result.verdict is Verdict.WILD_AUTOMORPHISM
        assert result.representative == T1
        assert result.leading_form_t1_derivative == 1

    def test_phi_x_is_not_automorphism(self):
        result = classify(X)
        assert result.verdict is Verdict.NOT_AUTOMORPHISM
        assert result.residual == -2 * Y

    def test_pure_z_cube_is_tame(self):
        result = classify(Z ** 3)
        assert result.verdict is Verdict.TAME_AUTOMORPHISM
        assert result.representative == T2 ** 3
        first, second = result.tame_factors
        assert compose(second, first) == build_nagata(Z ** 3).endo
        # each factor is elementary: it moves exactly one coordinate
        assert (first.g, first.h) == (Y, Z)
        assert (second.f, second.h) == (X, Z)

    def test_undetermined_case(self):
        result = classify(expand_bivariate(T1 + T2 ** 3))
        assert result.verdict is Verdict.AUTOMORPHISM_TAMENESS_UNKNOWN
        assert result.leading_form == T2 ** 3
        assert result.leading_form_t1_derivative == 0

    def test_zero_phi_is_tame_identity(self):
        result = classify(Poly.zero(RING3))
        assert result.verdict is Verdict.TAME_AUTOMORPHISM
        assert result.representative == 0

    @given(poly2s)
    @settings(max_examples=50)
    def test_expansions_are_never_non_automorphisms(self, p):
        assert classify(expand_bivariate(p)).verdict is not Verdict.NOT_AUTOMORPHISM

    def test_scaling_invariance_of_decided_verdicts(self):
        for phi in (X, Y, PHI, expand_bivariate(EXWW)):
            verdict = classify(phi).verdict
            for scale in (2, -3, Fraction(1, 2)):
                assert classify(scale * phi).verdict is verdict


class TestWildCriterion:
    def test_powers_of_t1(self):
        for n in range(1, 5):
            assert wild_by_leading_form(T1 ** n)

    def test_example_with_leading_form_correction(self):
        # leading form t1^2 + t1*t2^2, derivative 2*t1 + t2^2, nonzero
        assert EXWW.weighted_leading_form((2, 1)).partial("t1") == 2 * T1 + T2 ** 2
        assert wild_by_leading_form(EXWW)

    def test_pure_t2_powers_are_not_detected(self):
        for k in range(4):
            assert not wild_by_leading_form(T2 ** k)

    def test_zero_is_not_detected(self):
        assert not wild_by_leading_form(Poly.zero(("t1", "t2")))


class TestLeadingMinors:
    """The paper's leading-form lemma, checked by tests/_leading_minors.py."""

    def test_named_minors_for_classical_map(self):
        minors = leading_minors(PHI)
        lf = PHI  # already homogeneous
        assert minors["fg_xy"] == 0
        assert minors["gh_xy"] == 0
        assert minors["fh_xy"] == 0
        assert minors["gh_yz"] == Z * lf.partial("y")
        assert minors["gh_xz"] == Z * lf.partial("x")
        assert minors["fh_yz"] == -2 * Z * lf * lf.partial("y")

    @given(nonzero_poly2s.filter(lambda p: not p.is_constant()))
    @settings(max_examples=40)
    def test_minors_match_closed_forms(self, p):
        phi = expand_bivariate(p)
        assert leading_minors(phi) == leading_minor_closed_forms(phi)

    def test_minors_match_closed_forms_for_general_phi(self):
        rng = random.Random(5)
        checked = 0
        while checked < 10:
            phi = random_poly3(rng, 3)
            if phi.is_constant():
                continue
            assert leading_minors(phi) == leading_minor_closed_forms(phi)
            checked += 1


class TestSelfChecks:
    """Each self-check of classify raises on one injected wrong value."""

    def test_wrong_tame_factors_raise(self, monkeypatch):
        monkeypatch.setattr(CLASSIFY, "compose", lambda outer, inner: PolyEndo(X, Y, Z))
        with pytest.raises(RuntimeError, match="tame factorization.*arithmetic bug"):
            classify(Z)

    def test_zero_residual_without_representative_raises(self, monkeypatch):
        monkeypatch.setattr(CLASSIFY, "decompose", lambda phi: None)
        with pytest.raises(RuntimeError, match="no bivariate representative.*arithmetic bug"):
            classify(PHI)
