import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

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
    build_nagata,
    compose,
    deformation_compare,
    expand_bivariate,
    inverse_nagata,
    loj_exponent,
    parse_poly2,
    random_poly2,
)
from nagata.cli import run
from nagata.lojasiewicz import LojReport, _loj_report
from _strategies import constants, nonzero_poly2s

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
        identity = PolyEndo(X, Y, Z)
        object.__setattr__(identity, "phi", -(X * Z + Y ** 2))
        with pytest.raises(RuntimeError, match="inverse degree.*arithmetic bug"):
            _loj_report(identity)

    def test_non_monotone_exponents_raise(self, monkeypatch):
        # the deformation gets the larger exponent
        reports = {T1: LojReport(2, 5, Fraction(1, 5)), T1 + T2: LojReport(0, 1, Fraction(1))}
        monkeypatch.setattr(nagata.lojasiewicz, "loj_exponent", reports.__getitem__)
        with pytest.raises(RuntimeError, match="monotonicity violated; arithmetic bug"):
            deformation_compare(T1, T1 + T2)


T = Poly.variable(("t",), "t")


def _top_form_non_root(inverse, degree):
    """A point v of {0..degree}^3, smallest max coordinate first, at which
    the degree-``degree`` form of some component of ``inverse`` is nonzero.
    A nonzero form of that degree has one there (Alon, Combinatorial
    Nullstellensatz, 1999), so the search is bounded."""
    forms = [c.leading_form() for c in inverse if c.total_degree() == degree]
    for m in range(degree + 1):
        for v in itertools.product(range(m + 1), repeat=3):
            if max(v) == m and any(form.substitute(*constants(*v)) for form in forms):
                return v
    raise AssertionError(f"no point of {{0..{degree}}}^3 off the top forms")


def _certified_exponent(p):
    """1/D for the map of phi = p(x*z + y^2, z), from the definition.

    Both compositions are expanded on plain copies, which carry no phi, so
    no group law stands in for substitution.  F^-1(F(x)) = x gives
    |F(x)| >= c*|x|^(1/D) for large |x|.  On the curve gamma(t) =
    F^-1(t*v), F(gamma(t)) = t*v while gamma has degree D in t, since the
    degree-D form of some component of F^-1 is nonzero at v; so no larger
    exponent holds.  None of this uses D = 2*deg(phi) + 1."""
    phi = expand_bivariate(p)
    forward = PolyEndo(*build_nagata(phi).endo)
    inverse = PolyEndo(*inverse_nagata(p))
    assert forward.phi is None and inverse.phi is None
    assert compose(forward, inverse) == PolyEndo(X, Y, Z)
    assert compose(inverse, forward) == PolyEndo(X, Y, Z)
    degree = max(c.total_degree() for c in inverse)
    v = _top_form_non_root(inverse, degree)
    line = [a * T for a in v]
    gamma = [c.substitute(*line) for c in inverse]
    assert max(g.total_degree() for g in gamma if g) == degree
    assert [c.substitute(*gamma) for c in forward] == line
    return Fraction(1, degree)


def _golden_loj_rows():
    golden = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
    return [e for e in golden
            if e["argv"][0] == "loj" and "--json" in e["argv"] and e["code"] == 0]


class TestCertificate:
    """The exponent 1/deg F^-1 checked against a certificate built from its
    definition, not from the inverse-degree formula."""

    @pytest.mark.parametrize("p", [T1, Poly.zero(RING2), Poly.constant(RING2, 7), EXWW,
                                   T1 ** 3 - Fraction(2, 3) * T2, T1 * T2 ** 4])
    def test_fixed_cases(self, p):
        assert _certified_exponent(p) == loj_exponent(p).exponent

    @pytest.mark.parametrize("entry", _golden_loj_rows(), ids=lambda e: " ".join(e["argv"]))
    def test_golden_loj_rows(self, capsys, entry):
        # the row is the pinned one, and each exponent it prints is certified
        assert run(list(entry["argv"])) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout"]
        doc = json.loads(out)
        texts = entry["argv"][1:-1]
        reports = [doc] if len(texts) == 1 else [doc["base"], doc["deformed"]]
        for text, report in zip(texts, reports):
            assert Fraction(report["exponent"]) == _certified_exponent(parse_poly2(text))

    def test_seeded_random_maps(self):
        # dvmax <= 4 keeps both expanded compositions small: one of degree 9
        # in x, y, z takes milliseconds, where dvmax 6 took seconds
        rng = random.Random(12)
        for _ in range(40):
            p = random_poly2(rng, rng.randint(0, 4))
            assert _certified_exponent(p) == loj_exponent(p).exponent
