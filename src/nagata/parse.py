"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace-insensitive):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := ["-"] base ["^" natural]
    base     := variable | rational | "(" expr ")"
    variable := "x" | "y" | "z"          (trivariate)
              | "t1" | "t2"              (bivariate)
    rational := natural ["/" natural]
    natural  := digit+                   (digits are ASCII 0-9)

Implicit multiplication ("2y") is rejected; "*" is required.  Exponents
are nonnegative integer literals and coefficients are exact rationals
written with "/" (no decimal notation).  Parentheses nest at most 100
deep; deeper input is a ParseError rather than a stack overflow.  A
numeral has at most 1000 digits.  Each "^" and "*" estimates the size of
its result before expanding it; one that may have more than 1000 terms,
a coefficient above 2^4096, more than 2^18 coefficient bits in all or a
degree of more than 1000 digits is a ParseError at the operator.
Positions in error messages are 1-based character offsets; end-of-input
is reported at the last character of the text.  The canonical printed
form of a polynomial is ``str(poly)``, which always re-parses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import Exponent, Poly, RING2, RING3


class ParseError(ValueError):
    """Syntax error carrying a 1-based position and the expected token set."""

    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset()):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class UnknownIdentifierError(ParseError):
    def __init__(self, identifier: str, position: int, known: tuple[str, ...]):
        super().__init__(f"unknown identifier {identifier!r}", position,
                         frozenset(known))
        self.identifier = identifier


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", one of "+-*^()/", or "end"
    text: str
    position: int


# Only ASCII digits: str.isdigit also accepts characters such as "²" that
# int() cannot read.
_DIGITS = frozenset("0123456789")


# int() refuses more than 4300 digits (sys.get_int_max_str_digits), and
# printing refuses them too; longer numerals are a ParseError instead.
_MAX_DIGITS = 1000


def _tokenize(text: str, offset: int) -> list[_Token]:
    """Tokens of text, whose positions are 1-based and shifted by offset."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        pos = offset + i + 1
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j - i > _MAX_DIGITS:
                raise ParseError(f"numeral longer than {_MAX_DIGITS} digits", pos)
            tokens.append(_Token("number", text[i:j], pos))
            i = j
        elif c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("ident", text[i:j], pos))
            i = j
        elif c in "+-*^()/":
            tokens.append(_Token(c, c, pos))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", pos)
    # clamp end-of-input to the last character so truncated input points there
    tokens.append(_Token("end", "", offset + max(1, n)))
    return tokens


# Limits on the estimated result of one "^" or "*", with coefficient sizes
# in bits (ceil(log2) of the numerator or denominator).  The largest
# operations in the tests, the golden corpus and re-parsed `random --dvmax
# 20` output have at most 4 terms and 3319 bits (a numeral at the digit cap
# times x).  2^4096 prints in 1234 digits, so the inverse's phi^2 stays
# within Python's 4300-digit limit for printing an integer.  The size limit
# (terms times bits) keeps the slowest power within the limits,
# (1/2*x+1/3)^295, under half a second; Fraction arithmetic is ten times
# slower than int.
_MAX_TERMS = 1000
_MAX_BITS = 4096
_MAX_SIZE = 2 ** 18
# a degree prints like a numeral, so it has at most _MAX_DIGITS digits too
_MAX_DEGREE = 10 ** _MAX_DIGITS - 1


def _shape(p: Poly) -> tuple[int, int, int, Exponent]:
    """(k, top, den, degrees) of a nonzero p: its k terms, its degree in
    each variable, and den*p has integer coefficients of absolute value at
    most top."""
    terms = list(p.terms())
    if len(terms) == 1:
        (exp, c), = terms
        return 1, abs(c.numerator), c.denominator, exp
    den = math.lcm(*(c.denominator for _, c in terms))
    top = max(abs(c.numerator) * (den // c.denominator) for _, c in terms)
    return len(terms), top, den, tuple(map(max, zip(*(e for e, _ in terms))))


def _check_degree(tok: _Token, degree: int) -> None:
    if degree > _MAX_DEGREE:
        raise ParseError(f"'{tok.kind}' may give a degree of more than {_MAX_DIGITS} "
                         "digits", tok.position)


def _check_bits(tok: _Token, bits: int) -> None:
    if bits > _MAX_BITS:
        raise ParseError(f"'{tok.kind}' may give a coefficient above 2^{_MAX_BITS}",
                         tok.position)


def _check_size(tok: _Token, terms: int, bits: int) -> None:
    if terms > _MAX_TERMS:
        raise ParseError(f"'{tok.kind}' may give more than {_MAX_TERMS} terms",
                         tok.position)
    if terms * bits > _MAX_SIZE:
        raise ParseError(f"'{tok.kind}' may give more than {_MAX_SIZE} coefficient "
                         "bits in all", tok.position)


def _check_power(tok: _Token, base: Poly, n: int) -> None:
    """Refuse a nonzero base**n whose estimated size is over a limit.

    Its coefficients have numerators at most (k*top)^n and denominators at
    most den^n.  Its terms are at most the multisets of n base terms, the
    monomials up to degree n*deg(base), and the box of per-variable degrees.
    A monomial base, or n <= 1, gives at most k terms, which is no growth.
    """
    k, top, den, degrees = _shape(base)
    degree = n * base.total_degree()
    _check_degree(tok, degree)
    bits = n * (max(k * top, den) - 1).bit_length()
    # bits first: the multiset count is costly for a huge n
    _check_bits(tok, bits)
    if k > 1 and n > 1:
        nv = len(base.vars)
        _check_size(tok, min(math.comb(n + k - 1, k - 1),
                             math.comb(degree + nv, nv),
                             math.prod(n * d + 1 for d in degrees)), bits)


def _check_product(tok: _Token, a: Poly, b: Poly) -> None:
    """Refuse a nonzero a*b whose estimated size is over a limit.

    Its coefficients have numerators at most min(ka, kb)*top_a*top_b and
    denominators at most den_a*den_b.  Its terms are at most the ka*kb
    pairs, the monomials up to degree deg(a) + deg(b), and the box of
    per-variable degree sums.  A monomial factor gives as many terms as the
    other factor, which is no growth.
    """
    ka, top_a, den_a, degrees_a = _shape(a)
    kb, top_b, den_b, degrees_b = _shape(b)
    degree = a.total_degree() + b.total_degree()
    _check_degree(tok, degree)
    bits = (max(min(ka, kb) * top_a * top_b, den_a * den_b) - 1).bit_length()
    _check_bits(tok, bits)
    if ka > 1 and kb > 1:
        nv = len(a.vars)
        _check_size(tok, min(ka * kb,
                             math.comb(degree + nv, nv),
                             math.prod(da + db + 1 for da, db in zip(degrees_a, degrees_b))),
                    bits)


_BASE_STARTS = frozenset({"number", "variable", "'('"})

# Each level of parentheses costs four stack frames (base, expr, term,
# factor); 100 levels stay far below Python's default recursion limit.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, names: tuple[str, ...], offset: int = 0):
        self.tokens = _tokenize(text, offset)
        self.pos = 0
        self.names = names
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: frozenset[str]) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"syntax error: unexpected {found}", tok.position, expected)

    def parse(self) -> Poly:
        value = self.expr()
        if self.peek().kind != "end":
            raise self.fail(frozenset({"'+'", "'-'", "'*'", "end of input"}))
        return value

    def expr(self) -> Poly:
        value = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self.factor()
            if value and rhs:
                _check_product(tok, value, rhs)
            value = value * rhs
        return value

    def factor(self) -> Poly:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        elif self.peek().kind not in ("number", "ident", "("):
            raise self.fail(_BASE_STARTS | {"'-'"})
        value = self.base()
        if self.peek().kind == "^":
            tok = self.advance()
            if self.peek().kind != "number":
                raise self.fail(frozenset({"number"}))
            n = int(self.advance().text)
            if value:
                _check_power(tok, value, n)
            value = value ** n
        return -value if negate else value

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            numerator = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "number":
                    raise self.fail(frozenset({"number"}))
                self.advance()
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", den_tok.position)
                return Poly.constant(self.names, Fraction(numerator, int(den_tok.text)))
            return Poly.constant(self.names, numerator)
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.names:
                raise UnknownIdentifierError(tok.text, tok.position, self.names)
            return Poly.variable(self.names, tok.text)
        if tok.kind == "(":
            if self.nesting == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING}", tok.position
                )
            self.advance()
            self.nesting += 1
            value = self.expr()
            self.nesting -= 1
            if self.peek().kind != ")":
                raise self.fail(frozenset({"')'"}))
            self.advance()
            return value
        raise self.fail(_BASE_STARTS)


def parse_poly3(text: str) -> Poly:
    """Parse an expression in x, y, z into an exact polynomial."""
    return _Parser(text, RING3).parse()


def parse_poly2(text: str) -> Poly:
    """Parse an expression in t1, t2 into an exact polynomial."""
    return _Parser(text, RING2).parse()
