import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import nagata.maps
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
    decompose,
    expand_bivariate,
    inverse_nagata,
    jacobian,
    jacobian_report,
    milnor_certificate,
    pde_residual,
    random_poly2,
)
from _strategies import constants, is_stored_reduced, poly2s, poly3s, polys, random_poly3
from nagata import RING2

PHI = X * Z + Y ** 2
EXWW = T1 ** 2 - T2 ** 3 + T1 * T2 ** 2
IDENTITY = PolyEndo(X, Y, Z)


class TestBuild:
    def test_classical_map(self):
        nag = build_nagata(PHI)
        assert nag.endo.f == X - 2 * Y * (Z * X + Y ** 2) - Z * (Z * X + Y ** 2) ** 2
        assert nag.endo.g == Y + Z * (Z * X + Y ** 2)
        assert nag.endo.h == Z
        assert decompose(nag.phi) == T1

    def test_zero_gives_identity(self):
        assert build_nagata(Poly.zero(RING3)).endo == IDENTITY

    def test_phi_x(self):
        nag = build_nagata(X)
        assert nag.endo == PolyEndo(X - 2 * X * Y - X ** 2 * Z, Y + X * Z, Z)
        assert decompose(nag.phi) is None

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            build_nagata(T1)


def _assert_built_as_formula(phi):
    """Each component of build_nagata(phi) equals the formula evaluated
    with Poly arithmetic, in value and in stored form."""
    endo = build_nagata(phi).endo
    formula = (X - 2 * Y * phi - Z * phi ** 2, Y + Z * phi, Z)
    for built, expected in zip(endo, formula):
        assert built == expected
        assert built._coeffs == expected._coeffs
        assert built._den == expected._den
    return endo


class TestBuildOnNumerators:
    @pytest.mark.parametrize("phi", [
        Poly.zero(RING3),
        Poly.constant(RING3, Fraction(1, 2)),
        Y - Fraction(1, 2) * Y * Z,
        2 * Y - 2 * Y * Z,
        X * Z + Y ** 2,
    ], ids=["zero", "half", "y-1/2yz", "2y-2yz", "classical"])
    def test_fixed_cases_match_the_formula(self, phi):
        _assert_built_as_formula(phi)

    def test_f_and_g_keep_their_own_denominators(self):
        f, g, _ = _assert_built_as_formula(Poly.constant(RING3, Fraction(1, 2)))
        assert str(f) == "x - y - 1/4*z" and f._den == 4
        assert str(g) == "y + 1/2*z" and g._den == 2

    @pytest.mark.parametrize("phi", [Y - Fraction(1, 2) * Y * Z, 2 * Y - 2 * Y * Z])
    def test_y_and_z_phi_squared_terms_cancel(self, phi):
        f, _, _ = _assert_built_as_formula(phi)
        assert (0, 2, 1) not in f.support()

    @given(poly3s)
    def test_random_phi_match_the_formula(self, phi):
        _assert_built_as_formula(phi)
        _assert_built_as_formula(-phi)


class TestJacobian:
    def test_identity_matrix(self):
        m = jacobian(IDENTITY)
        for i in range(3):
            for j in range(3):
                assert m[i][j] == (1 if i == j else 0)

    def test_bottom_row(self):
        m = jacobian(build_nagata(PHI).endo)
        assert m[2][0] == 0 and m[2][1] == 0 and m[2][2] == 1

    @given(poly3s)
    def test_g_x_entry(self, phi):
        m = jacobian(build_nagata(phi).endo)
        assert m[1][0] == Z * phi.partial("x")

    def test_determinant_examples(self):
        assert jacobian_report(PHI).determinant == 1
        assert jacobian_report(X).determinant == 1 - 2 * Y
        # the identity is the map of phi = 0
        assert jacobian_report(Poly.zero(RING3)).determinant == 1

    @given(poly3s)
    def test_determinant_is_one_plus_residual(self, phi):
        det = jacobian_report(phi).determinant
        assert det == 1 + pde_residual(phi)

    def test_report_fields(self):
        report = jacobian_report(PHI)
        assert report.determinant == 1
        assert report.is_constant_nonzero
        bad = jacobian_report(X)
        assert bad.determinant == 1 - 2 * Y
        assert not bad.is_constant_nonzero


class TestResidual:
    def test_examples(self):
        assert pde_residual(PHI) == 0
        assert pde_residual(Y) == Z
        assert pde_residual(X) == -2 * Y
        assert pde_residual(Poly.constant(RING3, 7)) == 0

    @given(poly2s)
    def test_expansions_solve_the_equation(self, p):
        assert pde_residual(expand_bivariate(p)) == 0

    @staticmethod
    def _reference(phi):
        return -2 * Y * phi.partial("x") + Z * phi.partial("y")

    @given(polys(RING3, max_exp=12, max_terms=8))
    def test_one_pass_matches_the_partials(self, phi):
        r = pde_residual(phi)
        assert r == self._reference(phi)
        assert is_stored_reduced(r)

    @pytest.mark.parametrize("phi", [
        PHI,
        Fraction(1, 2) * PHI,
        PHI ** 3 - Fraction(5, 7) * Z ** 4 * PHI,
    ])
    def test_all_terms_cancel(self, phi):
        # -2*y*z from x*z meets +2*y*z from y^2, and the sum is stored as 0/1
        r = pde_residual(phi)
        assert r.is_zero() and r._coeffs == {} and r._den == 1

    @pytest.mark.parametrize("phi, expected", [
        # y^2 over 2: the one numerator 2 shares 2 with the denominator
        (Fraction(1, 2) * Y ** 2, Y * Z),
        # x over 2: -2 over 2
        (Fraction(1, 2) * X, -Y),
        # x*z and y^2 cancel, and the 9*y^2*z left reduces from 9/6 to 3/2
        (Fraction(1, 6) * PHI + Fraction(1, 2) * Y ** 3, Fraction(3, 2) * Y ** 2 * Z),
        # -2*y^3 + 2*x*y*z over 4
        (Fraction(1, 4) * X * Y ** 2, Fraction(-1, 2) * Y ** 3 + Fraction(1, 2) * X * Y * Z),
    ])
    def test_denominator_is_reduced(self, phi, expected):
        r = pde_residual(phi)
        assert r == expected == self._reference(phi)
        assert r._den == expected._den and is_stored_reduced(r)


class TestAutomorphy:
    def test_classical_is_automorphism(self):
        result = classify(PHI)
        assert result.verdict is not Verdict.NOT_AUTOMORPHISM
        assert result.representative == T1
        inverse = inverse_nagata(result.representative)
        assert compose(build_nagata(PHI).endo, inverse) == IDENTITY

    def test_non_automorphisms_with_witnesses(self):
        for phi, witness in ((X, -2 * Y), (Y, Z)):
            result = classify(phi)
            assert result.verdict is Verdict.NOT_AUTOMORPHISM
            assert result.residual == witness
            assert result.representative is None  # so no inverse is built

    def test_collision_witness(self):
        endo = build_nagata(X).endo
        image = compose(endo, PolyEndo(*constants(0, 0, 1)))
        assert image == (0, 0, 1)
        assert compose(endo, PolyEndo(*constants(-1, 1, 1))) == image


class TestDecompose:
    def test_recovers_mixed_polynomial(self):
        phi = PHI ** 2 + PHI * Z ** 2 - Z ** 3
        assert decompose(phi) == T1 ** 2 + T1 * T2 ** 2 - T2 ** 3

    def test_pure_powers_of_z(self):
        for k in range(5):
            assert decompose(Z ** k) == T2 ** k

    def test_absent_for_phi_x(self):
        assert decompose(X) is None

    def test_zero_decomposes_to_zero(self):
        assert decompose(Poly.zero(RING3)) == 0

    @given(poly2s)
    def test_round_trip(self, p):
        assert decompose(expand_bivariate(p)) == p


class TestInverseAndCompose:
    def test_inverse_of_zero_is_identity(self):
        assert inverse_nagata(Poly.zero(("t1", "t2"))) == IDENTITY

    def test_inverse_of_t1(self):
        inv = inverse_nagata(T1)
        assert inv.f == X + 2 * Y * PHI - Z * PHI ** 2
        assert inv.g == Y - Z * PHI
        assert inv.h == Z

    def test_compose_identity_laws(self):
        endo = build_nagata(PHI).endo
        assert compose(endo, IDENTITY) == endo
        assert compose(IDENTITY, endo) == endo

    @given(polys(RING2, max_exp=2, max_terms=3))
    @settings(max_examples=25)
    def test_two_sided_inverse(self, p):
        endo = build_nagata(expand_bivariate(p)).endo
        inverse = inverse_nagata(p)
        assert compose(endo, inverse) == IDENTITY
        assert compose(inverse, endo) == IDENTITY
        # the group law above never reads the components; substitution does
        assert compose(_plain(endo), _plain(inverse)) == IDENTITY
        assert compose(_plain(inverse), _plain(endo)) == IDENTITY


class TestInverseClosedForm:
    """inverse_nagata(p) writes the map of -phi from p; it equals
    build_nagata(-phi), component by component and in its phi."""

    @staticmethod
    def _assert_matches_build(p):
        inverse = inverse_nagata(p)
        expected = build_nagata(-expand_bivariate(p)).endo
        for built, want in zip(inverse, expected):
            assert built == want
            assert is_stored_reduced(built)
            assert built._coeffs == want._coeffs and built._den == want._den
        assert inverse.phi == expected.phi
        return inverse

    @pytest.mark.parametrize("p", [
        Poly.zero(RING2),
        Fraction(1, 2) * T2 ** 3 - T2,
        Fraction(1, 3) * T1 ** 3 * T2 - Fraction(3, 4) * T1 + Fraction(2, 5),
    ], ids=["zero", "t2-only", "rational"])
    def test_fixed_cases(self, p):
        self._assert_matches_build(p)

    def test_a_cancelled_coefficient_of_the_square_leaves_no_term(self):
        # (t1^2 + 2*t1*t2 - 2*t2^2)^2 has no t1^2*t2^2: 2*1*(-2) + 2^2 = 0
        p = T1 ** 2 + 2 * T1 * T2 - 2 * T2 ** 2
        assert (2, 2) not in (p * p).support()
        f = self._assert_matches_build(p).f
        # z*phi^2 would put t1^2*t2^2 at x^i*y^(4-2i)*z^(i+3)
        assert not {(0, 4, 3), (1, 2, 4), (2, 0, 5)} & f.support()

    @given(poly2s)
    def test_random_p(self, p):
        self._assert_matches_build(p)

    @given(polys(RING2, max_exp=6, max_terms=8))
    @settings(max_examples=25)
    def test_random_larger_p(self, p):
        self._assert_matches_build(p)

    @pytest.mark.parametrize("p", [X, Poly.zero(RING3)], ids=["x", "zero-in-xyz"])
    def test_p_outside_t1_t2_is_refused(self, p):
        with pytest.raises(ValueError, match="expects a polynomial in t1, t2"):
            inverse_nagata(p)


def _plain(endo):
    """The same three components without phi, so compose takes the
    generic substitution."""
    return PolyEndo(*endo)


def _differential_cases(seed):
    """(phi, G) pairs: phi arbitrary (most are not automorphisms), zero,
    constant, an expansion p(x*z + y^2, z), or a fractional expansion
    spoiled by + x; G an arbitrary triple, a Nagata map, or the
    identity."""
    rng = random.Random(seed)
    phis = [Poly.zero(RING3), Poly.constant(RING3, Fraction(-3, 2))]
    for _ in range(3):
        phis.append(random_poly3(rng, 2))
        phis.append(expand_bivariate(random_poly2(rng, 2)))
    phis.append(expand_bivariate(T1 * T2 - Fraction(1, 2) * T2) + X)
    assert any(not pde_residual(phi).is_zero() for phi in phis)
    for phi in phis:
        others = [
            PolyEndo(*(random_poly3(rng, 2) for _ in range(3))),
            build_nagata(random_poly3(rng, 1)).endo,
            build_nagata(expand_bivariate(random_poly2(rng, 2))).endo,
            IDENTITY,
        ]
        for other in others:
            yield phi, other


class TestStructuredCompose:
    """compose through an outer map's phi equals the generic substitution."""

    def test_phi_is_kept_only_by_build_nagata(self):
        assert build_nagata(PHI).endo.phi == PHI
        assert inverse_nagata(T1).phi == -PHI
        assert IDENTITY.phi is None
        assert compose(build_nagata(PHI).endo, IDENTITY).phi is None

    def test_phi_is_no_constructor_argument(self):
        with pytest.raises(TypeError):
            PolyEndo(X, Y, Z, X)

    @pytest.mark.parametrize(
        "phi", [Poly.zero(RING3), PHI, X, random_poly3(random.Random(5), 3)]
    )
    def test_phi_is_invisible_to_equality_hash_and_repr(self, phi):
        endo = build_nagata(phi).endo
        plain = _plain(endo)
        assert plain.phi is None
        assert endo == plain
        assert hash(endo) == hash(plain)
        assert repr(endo) == repr(plain)
        assert len({endo, plain}) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_structured_equals_generic(self, seed):
        for phi, other in _differential_cases(seed):
            nagata = build_nagata(phi).endo
            for outer, inner in ((nagata, other), (other, nagata)):
                structured = compose(outer, inner)
                generic = compose(_plain(outer), _plain(inner))
                assert structured.f == generic.f
                assert structured.g == generic.g
                assert structured.h == generic.h


class TestGroupLaw:
    """compose(N(a), N(b)) = N(a + b) when a = p(x*z + y^2, z), for any b."""

    @pytest.mark.parametrize("p", [
        T1 ** 2,
        T1 ** 3 * T2 - Fraction(2, 3) * T1 ** 2 + T2 ** 2,
        Fraction(1, 4) * T1 ** 4 + 5 * T1 * T2 ** 3 - 1,
    ])
    def test_roundtrip_substitutes_nothing(self, monkeypatch, p):
        endo = build_nagata(expand_bivariate(p)).endo
        inverse = inverse_nagata(p)
        calls = []
        substitute = Poly.substitute

        def recording(self, *values):
            calls.append(self.vars)
            return substitute(self, *values)

        monkeypatch.setattr(Poly, "substitute", recording)
        for outer, inner in ((endo, inverse), (inverse, endo)):
            result = compose(outer, inner)
            assert result == IDENTITY
            assert result.phi == 0
        assert calls == []
        spoiled = build_nagata(X * Y - Z).endo
        assert compose(endo, spoiled).phi == endo.phi + X * Y - Z

    def test_group_law_never_decomposes(self, monkeypatch):
        # the outer phi is tested by its residual, not by decompose
        def refuse(phi):
            raise AssertionError("decompose called by compose")

        monkeypatch.setattr(nagata.maps, "decompose", refuse)
        p = T1 ** 3 * T2 - Fraction(2, 3) * T1 ** 2 + T2 ** 2
        endo = build_nagata(expand_bivariate(p)).endo
        inverse = inverse_nagata(p)
        spoiled = build_nagata(X * Y - Z).endo
        assert compose(endo, inverse) == compose(inverse, endo) == IDENTITY
        assert compose(endo, spoiled).phi == endo.phi + X * Y - Z
        assert compose(spoiled, endo).phi is None

    @given(poly2s, poly3s)
    @settings(max_examples=25)
    def test_any_inner_phi(self, p, b):
        a = expand_bivariate(p)
        outer, inner = build_nagata(a).endo, build_nagata(b).endo
        result = compose(outer, inner)
        assert result.phi == a + b
        assert result == build_nagata(a + b).endo
        assert result == compose(_plain(outer), _plain(inner))

    @given(poly2s, poly2s, poly3s)
    @settings(max_examples=25)
    def test_chain_of_three(self, p, q, c):
        a, b = expand_bivariate(p), expand_bivariate(q)
        na, nb, nc = (build_nagata(phi).endo for phi in (a, b, c))
        for chain in (compose(na, compose(nb, nc)), compose(compose(na, nb), nc)):
            assert chain.phi == a + b + c
            assert chain == build_nagata(a + b + c).endo

    @given(poly3s, poly2s)
    @settings(max_examples=25)
    def test_outer_without_representative_composes_componentwise(self, b, p):
        a = expand_bivariate(p) + X
        outer, inner = build_nagata(a).endo, build_nagata(b).endo
        result = compose(outer, inner)
        assert result.phi is None
        assert result == compose(_plain(outer), _plain(inner))


class TestMilnorCertificate:
    def test_trivial_for_zero(self):
        cert = milnor_certificate(Poly.zero(RING3))
        assert cert.x_combination == (Poly.constant(RING3, 1), Poly.zero(RING3), Poly.zero(RING3))
        assert cert.y_combination == (Poly.zero(RING3), Poly.constant(RING3, 1), Poly.zero(RING3))

    def test_classical_coefficients(self):
        cert = milnor_certificate(PHI)
        assert cert.x_combination == (Poly.constant(RING3, 1), 2 * PHI, -PHI ** 2)
        assert cert.y_combination == (Poly.zero(RING3), Poly.constant(RING3, 1), -PHI)

    @given(poly3s)
    def test_identities_reconstruct_x_and_y(self, phi):
        cert = milnor_certificate(phi)
        f, g, h = build_nagata(phi).endo
        a, b, c = cert.x_combination
        assert a * f + b * g + c * h == X
        a, b, c = cert.y_combination
        assert a * f + b * g + c * h == Y


def test_random_phi_certificates_batch():
    rng = random.Random(11)
    for _ in range(20):
        milnor_certificate(random_poly3(rng, 3))  # verifies internally


class TestMilnorSelfCheck:
    """Each identity of the certificate is checked: a map that breaks one
    raises, naming the coordinate whose identity failed."""

    @pytest.mark.parametrize("name, spoil", [
        # f + 1 breaks the x identity
        ("x", lambda phi, f, g: (f + 1, g)),
        # g + d with f - 2*phi*d keeps the x identity and breaks the y one
        ("y", lambda phi, f, g: (f - 2 * phi * Z, g + Z)),
    ])
    def test_wrong_map_raises(self, monkeypatch, name, spoil):
        build = nagata.maps.build_nagata

        def wrong(phi):
            nagata_map = build(phi)
            f, g = spoil(phi, nagata_map.endo.f, nagata_map.endo.g)
            return nagata_map._replace(endo=PolyEndo(f, g, Z))

        monkeypatch.setattr(nagata.maps, "build_nagata", wrong)
        with pytest.raises(RuntimeError,
                           match=f"certificate for {name} failed verification; arithmetic bug"):
            milnor_certificate(PHI)


@pytest.mark.parametrize("components", [
    (T1, Y, Z), (X, T1, Z), (X, Y, T1), (T1, T2, T1 * T2),
], ids=["f", "g", "h", "all-in-RING2"])
def test_components_outside_the_ring_are_refused(components):
    with pytest.raises(ValueError, match="components must live in Q\\[x,y,z\\]"):
        PolyEndo(*components)


@pytest.mark.parametrize("build", [
    lambda: PolyEndo._make((T1, Y, Z)),
    lambda: build_nagata(PHI).endo._replace(f=T1),
], ids=["_make", "_replace"])
def test_tuple_constructors_refuse_components_outside_the_ring(build):
    with pytest.raises(ValueError, match="components must live in Q\\[x,y,z\\]"):
        build()


class TestTupleForm:
    """PolyEndo is the named triple (f, g, h); it cannot be changed, and a
    changed copy carries no phi that compose could trust."""

    def test_the_triple(self):
        endo = build_nagata(PHI).endo
        assert tuple(endo) == (endo.f, endo.g, endo.h)
        assert len(endo) == 3
        assert endo == (endo.f, endo.g, endo.h)

    @pytest.mark.parametrize("name", ["phi", "f"])
    def test_attributes_cannot_be_set(self, name):
        endo = build_nagata(PHI).endo
        with pytest.raises(AttributeError):
            setattr(endo, name, X)
        assert endo.phi == PHI
        assert endo.f == X - 2 * Y * PHI - Z * PHI ** 2

    def test_replace_drops_phi(self):
        endo = build_nagata(PHI).endo
        changed = endo._replace(f=endo.f + Z)
        assert changed.phi is None
        assert changed == (endo.f + Z, endo.g, endo.h)
        # a kept phi would take the group law and give N(PHI + X)
        inner = build_nagata(X).endo
        generic = tuple(component.substitute(*inner) for component in changed)
        assert compose(changed, inner) == generic
        assert compose(changed, inner) != build_nagata(PHI + X).endo
