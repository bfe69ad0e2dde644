from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagata import (
    ParseError,
    Poly,
    RING3,
    T1,
    T2,
    UnknownIdentifierError,
    X,
    Y,
    Z,
    parse_poly2,
    parse_poly3,
)
from _strategies import poly2s, poly3s

PHI = X * Z + Y ** 2


def test_simple_trivariate():
    assert parse_poly3("x*z + y^2") == PHI


def test_classical_map_first_component():
    expected = X - 2 * Y * (Z * X + Y ** 2) - Z * (Z * X + Y ** 2) ** 2
    assert parse_poly3("x - 2*y*(z*x+y^2) - z*(z*x+y^2)^2") == expected


def test_bivariate_examples():
    assert parse_poly2("t1^2 - t2^3 + t1*t2^2") == T1 ** 2 - T2 ** 3 + T1 * T2 ** 2
    assert parse_poly2("0") == 0
    assert parse_poly2("3/2*t1") == Fraction(3, 2) * T1


def test_precedence():
    assert parse_poly3("-x^2") == -(X ** 2)
    assert parse_poly3("2*x+3*y^2") == 2 * X + 3 * Y ** 2
    assert parse_poly3("2^3") == 8
    assert parse_poly3("3/2^2") == Fraction(9, 4)
    assert parse_poly3("x - y - z") == X - Y - Z
    assert parse_poly3("3 - -x") == 3 + X


class TestErrors:
    def test_truncated_input_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly3("x + (")
        assert info.value.position == 5

    def test_implicit_multiplication_rejected(self):
        parse_poly3("2*y + 1")  # sanity: the explicit form parses
        with pytest.raises(ParseError):
            parse_poly3("2y")

    def test_unknown_identifier_trivariate(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse_poly3("x + t1")
        assert info.value.identifier == "t1"
        assert info.value.position == 5

    def test_unknown_identifier_bivariate(self):
        with pytest.raises(UnknownIdentifierError) as info:
            parse_poly2("x")
        assert info.value.identifier == "x"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_poly3("x^-1")
        assert info.value.position == 3
        assert "number" in info.value.expected

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse_poly3("x$y")
        assert info.value.position == 2

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly3("1/0")

    def test_unbalanced_close(self):
        with pytest.raises(ParseError):
            parse_poly3("x)")

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse_poly3("")
        assert info.value.position == 1

    def test_nesting_at_the_cap_parses(self):
        assert parse_poly3("(" * 100 + "x" + ")" * 100) == X

    def test_nesting_beyond_the_cap_rejected(self):
        with pytest.raises(ParseError, match="nested deeper than 100") as info:
            parse_poly3("(" * 101 + "x" + ")" * 101)
        assert info.value.position == 101

    def test_numeral_at_the_digit_cap_parses(self):
        assert parse_poly3("1" * 1000 + "*x") == int("1" * 1000) * X
        assert parse_poly2("t1 + 1/" + "9" * 1000) == T1 + Fraction(1, int("9" * 1000))

    @pytest.mark.parametrize("text, position", [
        ("1" * 1001, 1),
        ("1" * 5000, 1),
        ("x + 2/" + "3" * 1001, 7),
        ("x^" + "7" * 1001, 3),
    ], ids=["1001-digits", "5000-digits", "denominator", "exponent"])
    def test_numeral_beyond_the_digit_cap_rejected(self, text, position):
        # before the cap, int() raised a plain ValueError past 4300 digits
        with pytest.raises(ParseError, match="numeral longer than 1000 digits") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", [("x^\u00b2", 3), ("\u0663*x", 1)])
    def test_non_ascii_digits_rejected(self, text, position):
        # "²" passes str.isdigit but not int(); "٣" passes both
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_poly3(text)
        assert info.value.position == position

    @given(st.text(st.characters(codec="utf-8").filter(str.isprintable), max_size=60))
    @settings(max_examples=300)
    def test_printable_text_parses_or_raises_parse_error(self, text):
        for parse in (parse_poly3, parse_poly2):
            try:
                result = parse(text)
            except ParseError:
                continue
            assert isinstance(result, Poly)


class TestSizeLimits:
    """Each "^" and "*" estimates its result and refuses, at the operator,
    one that may have more than 1000 terms, a coefficient above 2^4096,
    more than 2^18 coefficient bits in all or a degree of more than 1000
    digits."""

    @pytest.mark.parametrize("text, position", [
        ("9^9999999", 2),
        ("9^5000", 2),
        ("2^4097", 2),
        ("3^2049", 2),
        ("(1/3)^2049", 6),
        ("(x+1)^99999", 6),
        ("x*(x+1)^4097", 8),
        ("2^4096*2", 7),
        ("(2^4096*x)*(y+2)", 11),
        ("9" * 1000 + "*" + "9" * 1000, 1001),
    ])
    def test_coefficient_over_the_bit_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match=r"coefficient above 2\^4096") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("(x+y+z+1)^17", 10),
        ("(x+1)^1000", 6),
        ("((x+1)^10 + (y+1)^10 + (z+1)^10)^3", 33),
        ("(x+1)^40*(y+1)^40", 9),
        ("(x+y+z)^9*(x+y+z)^9", 10),
    ])
    def test_term_count_over_the_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match="more than 1000 terms") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("(x+1)^512", 6),
        ("(1/2*x + 1/3)^296", 14),
        ("(x+y+z+2^200)^16", 14),
    ])
    def test_total_size_over_the_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match="more than 262144 coefficient bits in all") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("(x^" + "9" * 999 + ")^" + "9" * 999, 1004),
        ("x^" + "9" * 1000 + "*x", 1003),
        ("(y*z)^" + "5" * 1000, 6),
    ], ids=["power-of-power", "product", "two-variables"])
    def test_degree_over_the_limit_rejected(self, text, position):
        # a degree prints as a numeral; more than 4300 digits would not print
        with pytest.raises(ParseError, match="degree of more than 1000 digits") as info:
            parse_poly3(text)
        assert info.value.position == position

    def test_bivariate_term_count_over_the_limit_rejected(self):
        assert len(list(parse_poly2("(t1+t2+1)^43").terms())) == 990
        with pytest.raises(ParseError, match="more than 1000 terms") as info:
            parse_poly2("(t1+t2+1)^44")
        assert info.value.position == 10

    def test_powers_at_the_limits_parse(self):
        assert parse_poly3("2^4096") == 2 ** 4096
        assert parse_poly3("(1/3)^2048") == Fraction(1, 3 ** 2048)
        assert parse_poly3("2^4096*x") == 2 ** 4096 * X
        assert len(list(parse_poly3("(x+y+z+1)^16").terms())) == 969
        assert len(list(parse_poly3("(x+1)^511").terms())) == 512
        assert len(list(parse_poly3("(x+1)^40*(x+1)^40").terms())) == 81
        assert parse_poly3("(x+y+z)^8*(x+y+z)^0") == (X + Y + Z) ** 8

    def test_monomials_and_zero_are_not_limited(self):
        # a monomial power or factor cannot add terms, and 0^n is 0
        huge = "9" * 1000
        assert parse_poly3(f"x^{huge}") == Poly(RING3, {(int(huge), 0, 0): 1})
        assert parse_poly3(f"(-y)^{huge}") == -Poly(RING3, {(0, int(huge), 0): 1})
        assert parse_poly3(f"(z^{huge[1:]})^10") == Poly(RING3, {(0, 0, int(huge) - 9): 1})
        assert parse_poly3(f"(x - x)^{huge}") == 0
        assert parse_poly3(f"0^{huge}*(x+1)") == 0
        long_sum = " + ".join(f"x^{i}" for i in range(1001))
        assert len(list(parse_poly3(f"({long_sum})*y").terms())) == 1001
        assert len(list(parse_poly3(f"({long_sum})^1").terms())) == 1001

    @given(
        st.sampled_from(["{b}^{n}", "({b}^{n})^2", "({b}^{n})^{n}", "{b}^{n}*x",
                         "{b}^{n}*(y+1)^{n}", "{b}^{n}*(x+y+z+1)^9"]),
        st.sampled_from(["x", "9", "1/2", "-3", "(x+1)", "(x - 2*y)", "(x+y+z+1)",
                         "(2*x*z - 3)", "(1/2*y + 1/3)"]),
        st.one_of(st.integers(0, 3000), st.integers(0, 10 ** 30)),
    )
    @settings(max_examples=150, deadline=timedelta(seconds=3))
    def test_large_powers_parse_or_raise_parse_error(self, template, base, n):
        # small bases, large exponents: each text parses or is refused
        # within the deadline (before the limits, 9^N with a 30-digit N
        # never returned)
        try:
            result = parse_poly3(template.format(b=base, n=n))
        except ParseError:
            return
        assert isinstance(result, Poly)


class TestPrinting:
    def test_canonical_examples(self):
        assert str(PHI) == "y^2 + x*z"
        assert str(X.zero(("x", "y", "z"))) == "0"
        assert str(-X) == "-x"
        assert str(Fraction(3, 2) * T1) == "3/2*t1"
        assert str(X - Y) == "x - y"

    @given(poly3s)
    def test_round_trip_trivariate(self, p):
        assert parse_poly3(str(p)) == p

    @given(poly2s)
    def test_round_trip_bivariate(self, p):
        assert parse_poly2(str(p)) == p

    @given(poly3s)
    def test_whitespace_insensitive(self, p):
        text = str(p)
        assert parse_poly3(text.replace(" ", "")) == p
        assert parse_poly3(f"  {text}  ") == p
