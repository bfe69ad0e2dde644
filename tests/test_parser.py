from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagata import (
    ParseError,
    Poly,
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
        # Literal exponents are not capped yet: "9^9999999" runs without
        # bound.  Random text this short practically never contains one.
        for parse in (parse_poly3, parse_poly2):
            try:
                result = parse(text)
            except ParseError:
                continue
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
