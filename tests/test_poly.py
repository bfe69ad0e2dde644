import copy
import itertools
import pickle
import random
import site
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nagata import (
    Poly,
    RING2,
    RING3,
    T1,
    T2,
    X,
    Y,
    Z,
    build_nagata,
    compose,
    expand_bivariate,
)
from nagata.poly import _monomial_text
from _strategies import (
    constants, is_stored_reduced, nonzero_poly2s, points3, poly2s, poly3s, rationals,
    term_lists)

PHI = X * Z + Y ** 2
EXWW = T1 ** 2 - T2 ** 3 + T1 * T2 ** 2
MONOMIAL = Fraction(-3, 2) * X * Y ** 2
# a three-variable ring with other names, printed by the unrolled path
UVW = ("u", "v", "w")
WIDE_EXPONENTS = st.sampled_from([0, 1, 2, 9, 10, 99, 10 ** 12])
UNIT_OR_RATIONAL = st.one_of(
    st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]), rationals.filter(bool))


def _value_at(p, point):
    """p at a rational point, summed over its terms; substitute is not used."""
    total = Fraction(0)
    for exp, coeff in p.terms():
        for v, e in zip(point, exp):
            coeff *= Fraction(v) ** e
        total += coeff
    return total


class TestArithmetic:
    def test_additive_inverse(self):
        assert X + (-X) == 0

    def test_square_of_invariant_generator(self):
        # hand expansion, cross-checked by evaluation at 5 random points
        expected = X ** 2 * Z ** 2 + 2 * X * Y ** 2 * Z + Y ** 4
        product = PHI * PHI
        assert product == expected
        rng = random.Random(7)
        for _ in range(5):
            pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            assert _value_at(product, pt) == _value_at(PHI, pt) ** 2

    def test_pow_zero_is_one(self):
        for p in (PHI, Poly.zero(RING3), -3 * X * Y, MONOMIAL):
            assert p ** 0 == 1

    def test_pow_matches_repeated_multiplication(self):
        assert PHI ** 3 == PHI * PHI * PHI
        # a one-term power with a denominator
        assert MONOMIAL ** 5 == MONOMIAL * MONOMIAL * MONOMIAL * MONOMIAL * MONOMIAL
        assert str(MONOMIAL ** 5) == "-243/32*x^5*y^10"

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PHI ** -1

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            Poly.variable(RING3, "w")

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError, match="mixed polynomial rings"):
            X + T1

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError, match="bad exponent"):
            Poly(RING3, {(1, 0): 1})

    @pytest.mark.parametrize("operation", [
        lambda: X + "a",
        lambda: X - "a",
        lambda: X * "a",
    ])
    def test_non_numeric_operand_rejected(self, operation):
        with pytest.raises(TypeError):
            operation()

    def test_non_numeric_value_is_unequal(self):
        assert (X == "a") is False

    def test_non_integer_power_rejected(self):
        with pytest.raises(TypeError, match="polynomial exponent must be an integer"):
            X ** 1.5

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly(RING3, {(1, 0, 0): 0.5})
        with pytest.raises(TypeError):
            Poly.constant(RING3, 0.5)
        with pytest.raises(TypeError):
            X * 0.5
        with pytest.raises(TypeError):
            0.5 * X

    @given(poly3s, poly3s, poly3s)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


class TestCalculus:
    def test_partial_examples(self):
        assert PHI.partial("y") == 2 * Y
        assert Poly.constant(RING3, 5).partial("x") == 0
        assert (X ** 2 * Z).partial("x") == 2 * X * Z

    def test_partial_unknown_variable(self):
        with pytest.raises(ValueError):
            PHI.partial("t1")

    @given(poly3s)
    def test_partials_commute(self, p):
        assert p.partial("x").partial("y") == p.partial("y").partial("x")

    @given(poly3s, poly3s)
    def test_leibniz_rule(self, p, q):
        lhs = (p * q).partial("x")
        rhs = p.partial("x") * q + p * q.partial("x")
        assert lhs == rhs


class TestSubstituteEvaluate:
    def test_swap_symmetry(self):
        assert (X + Y).substitute(Y, X, Z) == X + Y

    def test_substitute_to_zero(self):
        zero = Poly.zero(RING3)
        assert X.substitute(zero, zero, zero) == 0

    def test_inverse_substitution_fixes_invariant(self):
        # (x + 2y*phi - z*phi^2)z + (y - z*phi)^2 = xz + y^2 for any phi
        for phi in (PHI, X, Y ** 3 - Z, expand_bivariate(EXWW)):
            image = PHI.substitute(
                X + 2 * Y * phi - Z * phi ** 2, Y - Z * phi, Z
            )
            assert image == PHI

    @pytest.mark.parametrize("call, message", [
        (lambda: X.substitute(X, Y), "substitute needs 3 values, got 2"),
        (lambda: X.substitute(X, Y, T1), "must share one polynomial ring"),
        (lambda: X.substitute(1, Y, Z), "must share one polynomial ring"),
    ])
    def test_wrong_arguments_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_evaluate_examples(self):
        # a value at a point is a substitution of constants
        assert PHI.substitute(*constants(0, 0, 1)) == 0
        assert Z.substitute(*constants(Fraction(1, 2), 7, Fraction(-3, 4))) == Fraction(-3, 4)

    @given(poly3s, poly3s)
    def test_substitute_is_ring_homomorphism(self, p, q):
        values = (Y + Z, X * Z, X - Y)
        assert (p * q).substitute(*values) == p.substitute(*values) * q.substitute(*values)
        assert (p + q).substitute(*values) == p.substitute(*values) + q.substitute(*values)

    @given(poly3s, points3)
    def test_evaluate_commutes_with_substitute(self, p, pt):
        values = (X + 2 * Y, Y * Z, Z ** 2 - X)
        direct = _value_at(p.substitute(*values), pt)
        via_images = _value_at(p, [_value_at(v, pt) for v in values])
        assert direct == via_images


class TestDegreesAndForms:
    def test_weighted_degree_examples(self):
        assert EXWW.weighted_degree((2, 1)) == 4
        assert PHI.weighted_degree((1, 1, 1)) == 2

    def test_zero_has_no_degree(self):
        # the same rule as weighted_leading_form: 0 is refused, not given a sentinel
        with pytest.raises(ValueError, match="zero polynomial has no degree"):
            Poly.zero(RING2).total_degree()
        with pytest.raises(ValueError, match="zero polynomial has no degree"):
            Poly.zero(RING2).weighted_degree((2, 1))

    def test_bad_weight_vectors_rejected(self):
        with pytest.raises(ValueError):
            PHI.weighted_degree((2, 1))
        with pytest.raises(ValueError):
            EXWW.weighted_degree((0, 1))

    def test_weighted_leading_form_examples(self):
        assert EXWW.weighted_leading_form((2, 1)) == T1 ** 2 + T1 * T2 ** 2
        assert EXWW.weighted_leading_form((1, 1)) == -T2 ** 3 + T1 * T2 ** 2
        homogeneous = X * Z + Y ** 2
        assert homogeneous.weighted_leading_form((1, 1, 1)) == homogeneous

    def test_leading_form_of_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial has no leading form"):
            Poly.zero(RING2).weighted_leading_form((2, 1))


class TestExpandBivariate:
    def test_generator_and_powers(self):
        assert expand_bivariate(T1) == PHI
        for k in range(4):
            assert expand_bivariate(T2 ** k) == Z ** k

    def test_expansion_of_mixed_polynomial(self):
        expected = PHI ** 2 + PHI * Z ** 2 - Z ** 3
        assert expand_bivariate(EXWW) == expected

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            expand_bivariate(X)

    @staticmethod
    def _reference(p):
        """The expansion by general substitution, which the closed form
        replaces."""
        return p.substitute(X * Z + Y ** 2, Z)

    @given(st.one_of(poly2s, rationals.map(lambda c: Poly.constant(RING2, c))))
    def test_closed_form_matches_substitution(self, p):
        phi = expand_bivariate(p)
        assert phi == self._reference(p)
        assert is_stored_reduced(phi)

    @pytest.mark.parametrize("p", [
        T1 ** 40 * T2 ** 3 + Fraction(1, 3) * T1 ** 39,
        Fraction(7, 2) * T2 ** 5,
        Poly.zero(RING2),
        Poly.constant(RING2, Fraction(-5, 6)),
        Poly.constant(RING2, 4),
        -3 * T1 ** 3 + Fraction(2, 9) * T1 * T2 ** 2 - Fraction(1, 6),
        Fraction(6, 35) * T1 ** 7 + Fraction(10, 21) * T2,
    ])
    def test_closed_form_fixed_cases(self, p):
        phi = expand_bivariate(p)
        assert phi == self._reference(p)
        assert is_stored_reduced(phi)

    @given(nonzero_poly2s)
    def test_degree_equals_weighted_degree(self, p):
        # total degree of the expansion equals the (2,1)-weighted degree of p
        phi = expand_bivariate(p)
        assert phi.total_degree() == p.weighted_degree((2, 1))

    @given(nonzero_poly2s)
    def test_leading_form_commutes_with_expansion(self, p):
        phi = expand_bivariate(p)
        lhs = phi.leading_form()
        rhs = expand_bivariate(p.weighted_leading_form((2, 1)))
        assert lhs == rhs


def _is_canonical(p):
    """Graded reverse-lexicographic, highest first: total degree strictly
    descending, and within a degree the term whose rightmost differing
    exponent is smaller comes first."""
    exps = [e for e, _ in p.terms()]
    for a, b in zip(exps, exps[1:]):
        if sum(a) == sum(b):
            differ = [k for k in range(len(a)) if a[k] != b[k]]
            if not differ or a[differ[-1]] > b[differ[-1]]:
                return False
        elif sum(a) < sum(b):
            return False
    return True


def _results(p, q):
    """One result of every operation that builds a Poly from p and q."""
    out = [p + q, p - q, p * q, -p, p ** 0, p ** 1, p ** 2, p ** 3,
           3 * p, p * Fraction(1, 2), p - 1, 1 - p, p + Fraction(2, 3),
           p.partial("x"), p.partial("z"),
           p.substitute(q, p + Y, Z), p.substitute(X, X, X)]
    if p:
        out += [p.leading_form(), p.weighted_leading_form((1, 2, 3))]
    return out


def _bivariate_results(p, q):
    return [p + q, p - q, p * q, p ** 2, p.partial("t1"), expand_bivariate(p),
            p.substitute(q, T2 + 1)]


def _value(p):
    # a dict, so the snapshot does not depend on the canonical order
    return dict(p.terms())


def _reference_str(p):
    """The printed form built from terms(), one Fraction-valued coefficient
    per term: the reference for printing from the stored numerators."""
    chunks = []
    for exp, coeff in p.terms():
        mag = -coeff if coeff < 0 else coeff
        if not any(exp):
            body = str(mag)
        elif mag == 1:
            body = _monomial_text(p.vars, exp)
        else:
            body = str(mag) + "*" + _monomial_text(p.vars, exp)
        if not chunks:
            chunks.append(f"-{body}" if coeff < 0 else body)
        else:
            chunks.append(f"{'-' if coeff < 0 else '+'} {body}")
    return " ".join(chunks) or "0"


class TestRepresentation:
    """Terms are kept unordered; order is applied where it is observed."""

    @given(poly3s, poly3s)
    def test_results_list_terms_in_canonical_order(self, p, q):
        for r in _results(p, q):
            assert _is_canonical(r)

    @given(poly2s, poly2s)
    def test_bivariate_results_list_terms_in_canonical_order(self, p, q):
        for r in _bivariate_results(p, q):
            assert _is_canonical(r)

    @given(poly3s, poly3s)
    def test_results_print_like_the_reference(self, p, q):
        for r in [p, q, *_results(p, q)]:
            assert str(r) == _reference_str(r)

    @given(poly2s, poly2s)
    def test_bivariate_results_print_like_the_reference(self, p, q):
        for r in [p, q, *_bivariate_results(p, q)]:
            assert str(r) == _reference_str(r)

    @pytest.mark.parametrize("p, text", [
        (Poly.zero(RING3), "0"),
        (Poly.constant(RING3, 1), "1"),
        (Poly.constant(RING3, -1), "-1"),
        (Poly.constant(RING3, Fraction(4, 2)), "2"),
        (Poly.constant(RING3, Fraction(-1, 3)), "-1/3"),
        (-X, "-x"),
        (X - 1, "x - 1"),
        # stored as 3*x + 2*y over 6: each term reduces by a different gcd
        (Fraction(1, 2) * X + Fraction(1, 3) * Y, "1/2*x + 1/3*y"),
        (-Fraction(3, 2) * X * Z ** 2 + 1, "-3/2*x*z^2 + 1"),
        # a coefficient +-1 and a constant over a denominator > 1
        (Fraction(-1, 2) * X, "-1/2*x"),
        (Poly.constant(RING3, Fraction(1, 3)), "1/3"),
        (X + Fraction(1, 2), "x + 1/2"),
        (-Y * Z + Fraction(1, 3) * X, "-y*z + 1/3*x"),
        (Poly(RING3, {(10 ** 12, 0, 0): -1}), "-x^1000000000000"),
        (Poly(RING3, {(0, 99, 10): Fraction(1, 2), (9, 1, 0): 1}),
         "1/2*y^99*z^10 + x^9*y"),
        (Poly(UVW, {(1, 0, 2): -1, (0, 2, 0): Fraction(1, 2), (0, 0, 0): 3}),
         "-u*w^2 + 1/2*v^2 + 3"),
        (Poly(UVW, {(0, 1, 0): 1, (1, 0, 0): -1, (0, 0, 1): 1}), "-u + v + w"),
        (Poly(RING2, {(10, 99): Fraction(-1, 7), (0, 0): 1}), "-1/7*t1^10*t2^99 + 1"),
    ])
    def test_edge_cases_print_like_the_reference(self, p, text):
        assert str(p) == _reference_str(p) == text

    @given(st.sampled_from([RING3, UVW, RING2]), st.data())
    def test_wide_exponents_print_like_the_reference(self, ring, data):
        exponents = st.tuples(*[WIDE_EXPONENTS] * len(ring))
        terms = data.draw(st.lists(st.tuples(exponents, UNIT_OR_RATIONAL), max_size=6))
        p = Poly(ring, terms)
        assert str(p) == _reference_str(p)
        assert str(-p) == _reference_str(-p)

    @given(poly3s, poly3s)
    def test_values_are_stored_reduced(self, p, q):
        constants = [Poly.constant(RING3, c) for c in (0, -3, Fraction(6, 4), Fraction(-1, 3))]
        for r in [p, q, *constants, *_results(p, q)]:
            assert is_stored_reduced(r)

    @given(term_lists(RING3, max_terms=8), st.randoms(use_true_random=False))
    def test_constructor_orders_shuffled_terms(self, terms, rng):
        shuffled = list(terms)
        rng.shuffle(shuffled)
        p, q = Poly(RING3, terms), Poly(RING3, shuffled)
        assert _is_canonical(p) and _is_canonical(q)
        assert tuple(p.terms()) == tuple(q.terms())

    @given(poly3s, poly3s, poly3s)
    def test_equal_values_print_hash_and_list_alike(self, p, q, r):
        pairs = [
            ((p + q) * r, r * q + p * r),
            (p * q - q, (p - 1) * q),
            (p, Poly(RING3, list(p.terms())[::-1])),
            (p ** 2, p * p),
            # each pair cancels a common factor of numerators and denominator
            (Fraction(1, 6) * X + Fraction(1, 3) * X, Fraction(1, 2) * X),
            ((Fraction(1, 2) * X + Fraction(1, 2)) * 2, X + 1),
            ((Fraction(1, 2) * X ** 2).partial("x"), X),
            ((Fraction(1, 2) * X).substitute(2 * X, Y, Z), X),
        ]
        for a, b in pairs:
            assert a == b
            assert str(a) == str(b)
            assert hash(a) == hash(b)
            assert tuple(a.terms()) == tuple(b.terms())

    @given(poly3s, poly3s)
    def test_operands_are_unchanged(self, p, q):
        before_p, before_q = _value(p), _value(q)
        _results(p, q)
        assert (_value(p), _value(q)) == (before_p, before_q)
        assert dict(p.terms()) == before_p and dict(q.terms()) == before_q

    @given(poly3s, poly3s)
    def test_integral_coefficients_are_int(self, p, q):
        for r in [p, q, *_results(p, q)]:
            for _, c in r.terms():
                assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)

    def test_integral_sums_in_the_constructor_are_int(self):
        half = Fraction(1, 2)
        p = Poly(RING3, [((1, 0, 0), half), ((1, 0, 0), half), ((0, 0, 0), Fraction(4, 2))])
        assert [type(c) for _, c in p.terms()] == [int, int]

    def test_constants_store_normal_coefficients(self):
        assert [(e, c, type(c)) for e, c in Poly.constant(RING3, Fraction(4, 2)).terms()] \
            == [((0, 0, 0), 2, int)]
        assert Poly.constant(RING3, 0).is_zero()
        assert list(Poly.constant(RING3, 0).terms()) == []
        # a bool is stored as the int it equals, so it prints as a numeral
        assert [type(c) for _, c in Poly.constant(RING3, True).terms()] == [int]
        assert str(X * 0 + True) == "1"

    def test_constants_hash_like_their_value(self):
        assert hash(Poly.constant(RING3, Fraction(6, 3))) == hash(2)
        assert hash(Poly.constant(RING3, Fraction(1, 3))) == hash(Fraction(1, 3))
        assert hash(Poly.zero(RING3)) == hash(0)
        assert hash(X - X + 5) == hash(5)


def _reference_product(a, b):
    """Product of two {exponent: coefficient} dicts, one Fraction multiply
    and add per term pair: the reference for the integer product kernel."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def _reference_power(p, n):
    acc = {(0,) * len(p.vars): Fraction(1)}
    for _ in range(n):
        acc = _reference_product(acc, _value(p))
    return acc


# denominators up to 12 share factors, so the least common denominator of
# a polynomial is often smaller than the product of its denominators
_wide_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool)


def _kernel_polys(ring):
    exponents = st.tuples(*([st.integers(0, 3)] * len(ring)))
    coeffs = st.one_of(_wide_rationals, st.integers(-9, 9).filter(bool))
    return st.one_of(
        st.lists(st.tuples(exponents, coeffs), max_size=5),
        st.lists(st.tuples(exponents, st.integers(-9, 9).filter(bool)), max_size=4),
        st.lists(st.tuples(exponents, _wide_rationals), max_size=1),
    ).map(lambda terms: Poly(ring, terms))


class TestIntegerProductKernel:
    """Products and powers over integer numerators match the per-pair
    Fraction loop, which stays here as the reference."""

    def _check(self, p, q):
        before = (_value(p), _value(q))
        results = [(p * q, _reference_product(_value(p), _value(q)))]
        results += [(p ** n, _reference_power(p, n)) for n in range(5)]
        for r, expected in results:
            assert _value(r) == expected
            for _, c in r.terms():
                assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        assert (_value(p), _value(q)) == before

    @given(_kernel_polys(RING3), _kernel_polys(RING3))
    def test_trivariate_products_match_the_fraction_loop(self, p, q):
        self._check(p, q)

    @given(_kernel_polys(RING2), _kernel_polys(RING2))
    def test_bivariate_products_match_the_fraction_loop(self, p, q):
        self._check(p, q)

    @pytest.mark.parametrize("p, q", [
        (Fraction(1, 6) * X + Fraction(1, 4) * Y, Fraction(2, 3) * X - Fraction(3, 4) * Y),
        (Fraction(1, 2) * T1 + Fraction(1, 3), 6 * T1 - 6),
        (PHI + 1, Fraction(5, 12) * X * Z - Fraction(7, 8)),
        (MONOMIAL, Fraction(1, 2) * X + Fraction(1, 3)),
        (Fraction(1, 2) * X + Fraction(1, 3), Poly.constant(RING3, Fraction(6, 5))),
        (PHI, X + Y - 2),
        (Poly.zero(RING3), Fraction(1, 2) * X + Fraction(1, 3)),
    ])
    def test_edge_operands(self, p, q):
        # rescaled and integral operands, integral results, a one-term
        # operand on either side, integer-only operands and zero
        self._check(p, q)
        self._check(q, p)


def test_constructor_keeps_no_reference_to_its_input():
    d = {(1, 0, 0): 2, (0, 1, 1): Fraction(-3, 4), (0, 0, 0): Fraction(1, 6)}
    p = Poly(RING3, d)
    expected = 2 * X - Fraction(3, 4) * Y * Z + Fraction(1, 6)
    assert p == expected
    d[(1, 0, 0)] = 5
    d[(0, 0, 2)] = 1
    assert p == expected
    d.clear()
    assert p == expected and str(p) == "-3/4*y*z + 2*x + 1/6"


def test_copy_and_pickle_give_an_equal_value():
    # the constructor is __new__, which copy and pickle cannot call bare
    p = Fraction(1, 6) * X ** 2 - 3 * Y * Z
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is Poly and q == p and q._den == 6 and str(q) == str(p)


def test_raw_stores_a_zero_free_dict_as_given():
    """Poly._raw stores a dict with no zero numerator and nothing to divide
    out, and leaves a dict it must change as it was."""
    kept = {(1, 0, 0): 2, (0, 1, 1): -3}
    assert Poly._raw(RING3, kept, 4)._coeffs is kept
    with_zero = {(1, 0, 0): 2, (0, 1, 1): 0}
    p = Poly._raw(RING3, with_zero, 3)
    assert p._coeffs is not with_zero and p._coeffs == {(1, 0, 0): 2}
    assert with_zero == {(1, 0, 0): 2, (0, 1, 1): 0}
    common = {(1, 0, 0): 2, (0, 1, 1): -4}
    p = Poly._raw(RING3, common, 6)
    assert (p._coeffs, p._den) == ({(1, 0, 0): 1, (0, 1, 1): -2}, 3)
    assert common == {(1, 0, 0): 2, (0, 1, 1): -4}


@pytest.mark.parametrize("result, expected", [
    (lambda: X - X, 0),
    (lambda: Y * Z - Y * Z, 0),
    # phi = y - 1/2*y*z: the y^2*z terms of 2*y*phi and z*phi^2 cancel in f
    (lambda: build_nagata(Y - Fraction(1, 2) * Y * Z).endo.f,
     X - 2 * Y ** 2 + Y ** 2 * Z ** 2 - Fraction(1, 4) * Y ** 2 * Z ** 3),
], ids=["x-x", "yz-yz", "nagata-f"])
def test_cancelled_terms_store_no_zero(result, expected):
    p = result()
    assert all(p._coeffs.values())
    assert p == expected


def test_arithmetic_with_denominators_builds_no_fraction(monkeypatch):
    """Arithmetic, printing and hashing run on integer numerators: of the
    operations below, only terms() constructs a Fraction."""
    p = Fraction(1, 2) * X * Y - Fraction(2, 3) * Z ** 2 + Fraction(5, 4)
    q = Fraction(3, 5) * X ** 2 + Fraction(1, 6) * Y * Z - 1
    b = Fraction(1, 3) * T1 ** 2 - Fraction(3, 2) * T2 + Fraction(1, 4) * T1 * T2
    two_thirds = Fraction(2, 3)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    results = [p + q, p - q, p * q, -p, 3 * p, p * two_thirds, p ** 3,
               p.partial("x"), p.partial("z"), p.substitute(q, p, Z), expand_bivariate(b),
               *compose(build_nagata(p).endo, build_nagata(q).endo)]
    for r in results:
        if not r.is_constant():
            str(r)
            hash(r)
    assert made == []
    list(results[3].terms())
    assert made, "the counter sees the Fractions that terms() builds"


@pytest.mark.parametrize("ring", [RING2, RING3])
def test_monomial_text_is_the_printed_monomial(ring):
    for exp in itertools.product(range(13), repeat=len(ring)):
        if sum(exp) <= 12:
            assert _monomial_text(ring, exp) == str(Poly(ring, {exp: 1}))
    assert _monomial_text(ring, (0,) * len(ring)) == "1"


# A Poly takes an int, a bool or a Fraction as a scalar operand, and it
# recognizes a Fraction without importing fractions.  So this child imports
# fractions only after nagata, under -S, and reaches sympy through the site
# directories passed to it.
SCALAR_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
from nagata import Poly, RING3, X

def fails(operation):
    try:
        operation()
    except TypeError as exc:
        return str(exc)
    raise AssertionError("no TypeError")

assert "fractions" not in sys.modules, "importing nagata loaded fractions"
# refused with no Fraction in existence, and still none made
assert fails(lambda: X * 0.5) == "unsupported operand type(s) for *: 'Poly' and 'float'"
assert (X == "a") is False and X * 2 == X + X and 3 * X != 3
assert "fractions" not in sys.modules, "a refused operand loaded fractions"
from fractions import Fraction
sys.path.extend(sys.argv[2:])
from decimal import Decimal
import sympy

for s, text in [(3, "3"), (True, "1"), (Fraction(1, 2), "1/2"), (Fraction(-4, 2), "-2")]:
    c = Poly.constant(RING3, s)
    assert str(X + s) == str(s + X) == f"x + {text}".replace("+ -", "- ")
    assert X - s == X - c and s - X == c - X and s - X == -(X - s)
    assert X * s == s * X == X * c and str(X * s) == str(c * X)
    assert c == s and s == c and c + 0 == s
    assert (X == s) is False and (s == X) is False and X != s
half = Poly.constant(RING3, Fraction(1, 2))
assert hash(half) == hash(Fraction(1, 2)) and hash(X * 0 + Fraction(6, 3)) == hash(2)
assert Poly(RING3, {(0, 0, 0): Fraction(1, 2)}) == half == Fraction(1, 2)
assert fails(lambda: X + 0.5) == "unsupported operand type(s) for +: 'Poly' and 'float'"
assert fails(lambda: 0.5 * X) == "unsupported operand type(s) for *: 'float' and 'Poly'"
assert fails(lambda: Poly(RING3, {(0, 0, 0): 0.5})) \
    == "floating point coefficients are not allowed; use Fraction"
for v in (Decimal("0.5"), sympy.Rational(1, 2)):
    for operation in (lambda: X + v, lambda: v + X, lambda: X - v, lambda: v - X,
                      lambda: X * v, lambda: v * X):
        assert fails(operation).startswith("unsupported operand type(s)")
    assert (X == v) is False and (v == X) is False
print("ok")
"""


def test_scalar_operands_in_a_process_that_loads_fractions_late():
    pytest.importorskip("sympy")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCALAR_CHILD, src, *site.getsitepackages()],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
