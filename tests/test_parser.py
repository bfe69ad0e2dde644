import time
from datetime import timedelta
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_parser
from nagata import (
    ParseError,
    Poly,
    RING2,
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
from nagata import parse
from nagata.parse import _Parser, _power_bounds, _product_bounds
from _strategies import nonzero_poly2s, nonzero_poly3s, poly2s, poly3s

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

    def test_denominator_must_be_a_number(self):
        with pytest.raises(ParseError) as info:
            parse_poly3("1/x")
        assert str(info.value) == "syntax error: unexpected 'x' at position 3 (expected number)"

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

    def test_closed_group_gives_back_only_its_own_level(self):
        # the cap counts the groups still open, whatever closed before them
        with pytest.raises(ParseError, match="nested deeper than 100") as info:
            parse_poly3("(x) + " + "(" * 101 + "x" + ")" * 101)
        assert info.value.position == 107

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


# texts refused by a size limit, with the position of the operator; a
# text over two limits is refused on the first of degree, bits, terms and
# terms times bits
OVER_THE_BIT_LIMIT = [
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
    # 1681 terms of up to 4133 bits: over the term and size limits too
    ("(x+1)^40*(2^4090*y + (y+1)^40)", 9),
]
OVER_THE_TERM_LIMIT = [
    ("(x+y+z+1)^17", 10),
    ("(x+1)^1000", 6),
    ("((x+1)^10 + (y+1)^10 + (z+1)^10)^3", 33),
    ("(x+1)^40*(y+1)^40", 9),
    ("(x+y+z)^9*(x+y+z)^9", 10),
    ("(x^5 + y^7 + z^3 + 1)^17", 22),
    # 1681 terms of up to 293 bits: over the size limit too
    ("(x+1)^40*(2^250*y + (y+1)^40)", 9),
]
OVER_THE_SIZE_LIMIT = [
    ("(x+1)^512", 6),
    ("(1/2*x + 1/3)^296", 14),
    ("(x+y+z+2^200)^16", 14),
    ("(1+x+x^2)^256", 10),
]
OVER_THE_DEGREE_LIMIT = [
    ("(x^" + "9" * 999 + ")^" + "9" * 999, 1004),
    ("x^" + "9" * 1000 + "*x", 1003),
    ("(y*z)^" + "5" * 1000, 6),
    ("(2*x^2)^" + "9" * 1000, 8),
]
HUGE = "9" * 1000
# texts at the size limits, or unlimited because a factor is a monomial or 0
WITHIN_THE_LIMITS = [
    "2^4096", "(1/3)^2048", "2^4096*x", "(x+y+z+1)^16", "(x+1)^511",
    "(x+1)^40*(x+1)^40", "(x+y+z)^8*(x+y+z)^0", "(t1+t2+1)^43", "(t1+t2+1)^44",
    "(x^5 + y^7 + z^3 + 1)^16",
    f"x^{HUGE}", f"(-y)^{HUGE}", f"(z^{HUGE[1:]})^10", f"(x - x)^{HUGE}",
    f"0^{HUGE}*(x+1)", "1" * 1000 + "*x", "t1 + 1/" + "9" * 1000,
]
# texts over the degree and the bit limit at once: the message tells
# which check ran first
OVER_TWO_LIMITS = [f"(2*x^2)^{HUGE}", f"2^4096*x^{HUGE}*(2*x)", f"(2*x^2 + 1)^{HUGE}",
                   f"(t1^2*t2)^{HUGE}"]
# sums whose terms cancel, to 0 or to one term
CANCELLING = ["(x - x)*(y + 1)", "(y + 1)*(x - x)", f"(x + 1 - 1)^{HUGE}",
              "(x + y - y)*(z + 1)^2", "(1/2*x - 1/2*x + 3)^2", "(t1 - t1)^0"]


class TestSizeLimits:
    """Each "^" and "*" estimates its result and refuses, at the operator,
    one that may have more than 1000 terms, a coefficient above 2^4096,
    more than 2^18 coefficient bits in all or a degree of more than 1000
    digits."""

    @pytest.mark.parametrize("text, position", OVER_THE_BIT_LIMIT)
    def test_coefficient_over_the_bit_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match=r"coefficient above 2\^4096") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", OVER_THE_TERM_LIMIT)
    def test_term_count_over_the_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match="more than 1000 terms") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", OVER_THE_SIZE_LIMIT)
    def test_total_size_over_the_limit_rejected(self, text, position):
        with pytest.raises(ParseError, match="more than 262144 coefficient bits in all") as info:
            parse_poly3(text)
        assert info.value.position == position

    @pytest.mark.parametrize("text, position", OVER_THE_DEGREE_LIMIT,
                             ids=["power-of-power", "product", "two-variables",
                                  "over-the-bit-limit-too"])
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
        # the box of per-variable degrees is the smallest of the three term
        # estimates here, and exact: 2*255 + 1 terms
        assert len(list(parse_poly3("(1+x+x^2)^255").terms())) == 511
        # and here the multisets of 16 base terms, C(19, 3) of them, each a
        # distinct monomial
        assert len(list(parse_poly3("(x^5 + y^7 + z^3 + 1)^16").terms())) == 969
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


def _assert_within(value, bounds, operand_terms):
    """The actual value against (degree, bits, terms) bounds; 0 terms
    bounds the count by the larger operand's."""
    degree, bits, terms = bounds
    numerators = value._coeffs
    assert value.total_degree() <= degree
    assert (max(max(map(abs, numerators.values())), value._den) - 1).bit_length() <= bits
    assert len(numerators) <= (terms or operand_terms)


nonzero_pairs = st.one_of(st.tuples(nonzero_poly2s, nonzero_poly2s),
                          st.tuples(nonzero_poly3s, nonzero_poly3s))


@given(nonzero_pairs, st.integers(0, 6))
@settings(deadline=None)
def test_size_bounds_hold_for_products_and_powers(pair, n):
    # the reference parser calls the same bound functions, so an
    # under-estimate would pass TestAgainstReference; this checks them
    # against Poly arithmetic
    a, b = pair
    _assert_within(a * b, _product_bounds(a, b), max(len(a._coeffs), len(b._coeffs)))
    _assert_within(a ** n, _power_bounds(a, n), len(a._coeffs))


def test_power_is_refused_on_bits_before_its_terms_are_counted():
    # 1000 distinct monomials of degree at most 17, to the power 10^980:
    # the degree is within its limit and the bits are not, and counting
    # the multisets of 10^980 of the 1000 base terms, C(10^980 + 999, 999),
    # alone took 0.70 s of CPU on a 2-core VM
    monomials = [f"x^{a}*y^{b}*z^{c}" for a in range(18) for b in range(18 - a)
                 for c in range(18 - a - b)][:1000]
    text = "(" + " + ".join(monomials) + ")^1" + "0" * 980
    start = time.process_time()
    with pytest.raises(ParseError, match=r"'\^' may give a coefficient above 2\^4096") as info:
        parse_poly3(text)
    assert time.process_time() - start < 0.3
    assert info.value.position == len(text) - 981


def test_long_sum_parses_in_one_pass():
    # signed terms of distinct degrees, and a last term that cancels the first
    terms = [((i, 0, 0), (i % 5 + 1) * (-1 if i % 3 == 0 else 1)) for i in range(3000)]
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x^{e[0]}" for e, c in terms) + " + 1"
    start = time.process_time()
    value = parse_poly3(text)
    elapsed = time.process_time() - start
    assert value == Poly(RING3, terms + [((0, 0, 0), 1)])
    assert len(list(value.terms())) == 2999
    # adding the terms one "+" at a time copied the sum so far each time,
    # which took over 6 s of CPU for this input on a 2-core VM
    assert elapsed < 1.0


def test_rational_power_parses_quickly():
    # a two-term base with denominators, at the largest exponent admitted
    start = time.process_time()
    value = parse_poly3("(1/2*x + 1/3)^295")
    elapsed = time.process_time() - start
    assert len(list(value.terms())) == 296
    assert dict(value.terms())[(295, 0, 0)] == Fraction(1, 2 ** 295)
    # multiplying one Fraction per term pair took 0.32 s of CPU for this
    # input on a 2-core VM; integer numerators take about a tenth of that
    assert elapsed < 0.1


# a coefficient of a sum is bounded as one of a "*" or "^" is: its common
# denominator and every numerator over it are at most 2^4096
SUM_OF_100_DENOMINATORS = " + ".join(f"1/{10 ** 999 + 2 * k + 1}*z^{k}" for k in range(100))
SUM_OF_3_DENOMINATORS = f"1/{10 ** 999 + 7}*z + 1/{10 ** 999 + 9}*z + 1/{10 ** 999 + 13}*z"


def test_sum_over_the_bit_limit_stops_at_the_crossing_term():
    # each term's 1000-digit denominator is coprime to the others', so the
    # common denominator passes 2^4096 at the first "+"; summing all 100
    # took 2.47 s of CPU on a 2-core VM
    assert len(SUM_OF_100_DENOMINATORS) == 100987
    start = time.process_time()
    with pytest.raises(ParseError, match=r"'\+' may give a coefficient above 2\^4096") as info:
        parse_poly3(SUM_OF_100_DENOMINATORS)
    assert time.process_time() - start < 0.1
    assert info.value.position == 1008


@pytest.mark.parametrize("text, position", [
    (SUM_OF_3_DENOMINATORS, 1006),
    ("2^4096 + 1", 8),
    ("x - 2^4096 - 1", 12),
    (f"{HUGE}*x + 1/{HUGE}*y", 1004),
], ids=["denominators", "numerator", "last-operator", "numerator-over-denominator"])
def test_sum_over_the_bit_limit_rejected(text, position):
    with pytest.raises(ParseError, match="coefficient above 2\\^4096") as info:
        parse_poly3(text)
    assert info.value.position == position


def test_sums_at_the_bit_limit_parse():
    assert parse_poly3("2^4096 - 1 + 1") == 2 ** 4096
    assert parse_poly3("(1/2)^4096*x + 1/2*y") == Fraction(1, 2 ** 4096) * X + Fraction(1, 2) * Y
    # the one-pass reader takes these: a repeated denominator does not grow
    # the common one, and the coprime 2^2048 + 1 and 2^2048 - 1 give
    # 2^4096 - 1, over which z has that numerator too
    a, b = 2 ** 2048 + 1, 2 ** 2048 - 1
    texts = {f"1/{3 ** 2000}*x + 1/{3 ** 2000}*y": Fraction(1, 3 ** 2000) * (X + Y),
             f"1/{a}*x + 1/{b}*y + z": Fraction(1, a) * X + Fraction(1, b) * Y + Z}
    with mock.patch.object(parse, "_tokenize", side_effect=AssertionError("tokenized")):
        for text, value in texts.items():
            assert parse_poly3(text) == value


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


def outcome(parser, text, names, offset):
    """The printed value, or the error's type, message, position and
    expected set."""
    try:
        return str(parser(text, names, offset).parse())
    except ParseError as exc:
        return type(exc), str(exc), exc.position, exc.expected


# characters that test the tokenizer's edges: "\x1c" and U+3000 are
# whitespace, "²", "½" and "٣" are alphanumeric but no letter, "é" is a
# letter, "_" is neither
EDGE_CHARACTERS = ["\x1c", "\u3000", "\u00b2", "\u00bd", "\u0663", "\u00e9", "_"]
GRAMMAR_PIECES = ["x", "y", "z", "t1", "t2", "0", "1", "2", "12", "3/2", "/0",
                  "+", "-", "*", "^", "(", ")", " ", "xy", "2x"]
texts = st.one_of(
    st.text(st.one_of(st.characters(codec="utf-8").filter(str.isprintable),
                      st.sampled_from(EDGE_CHARACTERS)), max_size=40),
    st.lists(st.sampled_from(GRAMMAR_PIECES + EDGE_CHARACTERS), max_size=30).map("".join),
)
rings = st.sampled_from([RING2, RING3])
offsets = st.sampled_from([0, 1, 17])


class TestAgainstReference:
    """The package's parser gives the value or the ParseError of the
    reference parser (tests/_reference_parser.py)."""

    @given(texts, rings, offsets)
    @settings(max_examples=500, deadline=None)
    def test_text(self, text, names, offset):
        assert (outcome(_Parser, text, names, offset)
                == outcome(_reference_parser._Parser, text, names, offset))

    @given(st.one_of(poly3s.map(lambda p: (p, RING3)), poly2s.map(lambda p: (p, RING2))),
           offsets)
    def test_printed_polynomial(self, poly_and_ring, offset):
        p, names = poly_and_ring
        text = str(p)
        assert outcome(_Parser, text, names, offset) == text
        assert outcome(_reference_parser._Parser, text, names, offset) == text

    @pytest.mark.parametrize("offset", [0, 17])
    def test_size_limit_and_cancelling_texts(self, offset):
        cases = (OVER_THE_BIT_LIMIT + OVER_THE_TERM_LIMIT + OVER_THE_SIZE_LIMIT
                 + OVER_THE_DEGREE_LIMIT)
        for text in [text for text, _ in cases] + WITHIN_THE_LIMITS + OVER_TWO_LIMITS + CANCELLING:
            for names in (RING2, RING3):
                assert (outcome(_Parser, text, names, offset)
                        == outcome(_reference_parser._Parser, text, names, offset)), text


def test_canonical_text_parses_without_poly_arithmetic(monkeypatch):
    # 200 distinct monomials with signed rational coefficients
    p = Poly(RING3, {(i % 7, i // 7 % 6, i // 42): Fraction((-1) ** i * (i + 1), i % 5 + 1)
                     for i in range(200)})
    text = str(p)
    assert len(p.support()) == 200 and "(" not in text
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__"):
        def counted(*args, _original=getattr(Poly, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Poly, name, counted)
    assert parse_poly3(text) == p
    # each monomial is built on its exponents, not by Poly products
    assert calls == []


def test_parsing_builds_no_fraction(monkeypatch):
    # rationals enter a Poly as integer numerators over a denominator, on
    # the one-pass reader and on the recursive descent alike
    cases = [(parse_poly3, "3/2*x*y^2 - 5/6*z + 7/4 - 1/4*x"),
             (parse_poly3, "-(1/2*x + 2/3)^3*(y - 3/4*z) + 5/8*x^2"),
             (parse_poly2, "(1/3*t1 - 3/2)^2*t2 - 1/4*t1*t2")]
    values = [parse_poly(text) for parse_poly, text in cases]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    assert [parse_poly(text) for parse_poly, text in cases] == values
    assert made == []


def test_zero_base_powers_skip_poly_pow(monkeypatch):
    calls = []

    def counted(self, n, _original=Poly.__pow__):
        calls.append(n)
        return _original(self, n)

    monkeypatch.setattr(Poly, "__pow__", counted)
    # Poly.__pow__ squares once per bit of n, so a zero base with a
    # 1000-digit exponent would run its loop 3322 times for a known 0
    assert parse_poly3(f"(x - x)^{HUGE}") == 0
    assert parse_poly3(f"0^{HUGE}*(x+1)") == 0
    assert calls == []
    assert parse_poly3("0^0") == 1
    assert parse_poly2("(t1 - t1)^0") == 1
    assert parse_poly3("x^0") == parse_poly3("(x)^0") == 1


same_ring_pairs = st.one_of(st.tuples(poly3s, poly3s, st.just(RING3)),
                            st.tuples(poly2s, poly2s, st.just(RING2)))


@given(same_ring_pairs)
def test_token_path_arithmetic_on_printed_values(pair):
    # the recursive descent against Poly arithmetic, an oracle apart from
    # the reference parser; the parentheses keep the one-pass reader out
    p, q, names = pair

    def value(text):
        return _Parser(text, names).parse()

    assert value(f"({p})") == p
    assert value(f"-({p})") == -p
    assert value(f"({p})*({q})") == p * q
    assert value(f"({p})^3") == p ** 3
    assert value(f"({p}) - ({p})") == 0


# (id, text, the rings in which the one-pass reader takes it): texts at the
# edges of its admission pattern.  Each must give the outcome of the
# reference parser; a widened or a narrowed cap changes which texts the
# reader takes, and a removed cap lets it take a text that must be refused.
READER_EDGES = [
    ("numeral-at-cap", HUGE + "*x", [RING3]),
    ("numeral-past-cap", HUGE + "9*x", []),
    ("denominator-at-cap", "t1 - 1/" + HUGE, [RING2]),
    ("zero-denominator", "1/0*x", []),
    ("zero-denominator-00", "y - 3/00*t2", []),
    ("unit-denominator", "3/1*x", [RING3]),
    ("exponent-at-cap", "x^999999999*y", [RING3]),
    ("exponent-past-cap", "x^1234567890*y", []),
    ("degree-limit", f"x^{HUGE}*x", []),
    ("numeral-power", "2^4096*x", []),
    ("space-between-factors", "x y", []),
    ("juxtaposed-names", "xy", []),
    ("leading-plus", "+x", []),
    ("spaced-leading-minus", "- x", []),
    ("double-minus", "x - -y", []),
    ("ideographic-space", "x\u3000+\u3000y", [RING3]),
    ("outer-whitespace", " \t-z + x^2  ", [RING3]),
    ("superscript-two", "x\u00b2", []),
    ("arabic-indic-exponent", "x^\u0663", []),
    ("arabic-indic-numeral", "\u0663*x", []),
    ("bivariate-in-trivariate", "t1", [RING2]),
    ("mixed-rings", "t1 + x", []),
    ("cancelling-and-zero", "x - x + 0*y + y^0*z - 0", [RING3]),
    ("repeated-name", "3*z*x^2*z + 1/2", [RING3]),
]


class TestCanonicalReader:
    """Text in canonical form is read in one pass; any other text goes to
    the tokens, and the outcome is the reference parser's either way."""

    @pytest.mark.parametrize("offset", [0, 17])
    @pytest.mark.parametrize("names", [RING2, RING3], ids=["t1-t2", "x-y-z"])
    @pytest.mark.parametrize("text, admitted", [case[1:] for case in READER_EDGES],
                             ids=[case[0] for case in READER_EDGES])
    def test_edge(self, text, admitted, names, offset):
        with mock.patch.object(parse, "_tokenize", wraps=parse._tokenize) as tokenize:
            assert (outcome(_Parser, text, names, offset)
                    == outcome(_reference_parser._Parser, text, names, offset))
        assert tokenize.called == (names not in admitted)

    def test_terms_in_the_order_of_the_tokens(self):
        # the same text in parentheses goes to the tokens; zero terms are
        # skipped and cancelled ones dropped in the same order
        text = "0*x + y - 3/2*z + x - y + 0/5*x^2 + x^2 - 2/4*z"
        read, tokenized = parse_poly3(text), parse_poly3(f"({text})")
        assert list(read._coeffs.items()) == list(tokenized._coeffs.items())
        assert read._den == tokenized._den == 1

    @given(poly3s)
    def test_printed_trivariate_never_tokenizes(self, p):
        with mock.patch.object(parse, "_tokenize", side_effect=AssertionError("tokenized")):
            assert parse_poly3(str(p)) == p

    @given(poly2s)
    def test_printed_bivariate_never_tokenizes(self, p):
        with mock.patch.object(parse, "_tokenize", side_effect=AssertionError("tokenized")):
            assert parse_poly2(str(p)) == p
