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
degree of more than 1000 digits is a ParseError at the operator.  A sum
of terms joined by "+" and "-" is held to the same 2^4096: its common
denominator is checked as each term joins and its numerators once it is
summed, so the ParseError is at the "+" or "-" of the term whose
denominator crosses the bound, or else at the sum's last one.  The
estimates are _power_bounds and _product_bounds, which return (degree,
bits, terms) bounds and raise nothing; one check, _check, turns any
estimate over a limit, the sums' included, into the ParseError.
Positions in error messages are 1-based character offsets; end-of-input
is reported at the last character of the text.  The canonical printed
form of a polynomial is ``str(poly)``, which always re-parses.

Text in the canonical printed form, signed terms such as
``3/2*x*y^2 - z`` joined by " + " and " - ", is read in one pass: one
regular expression admits the whole text, a second picks out its terms,
and they are summed as integer numerators over their least common
denominator, as the descent sums.  This changes which code reads a text,
not the grammar.  Only text on which no check of the parser can fire is
admitted: numerals of at most 1000 digits, so that a coefficient times a
monomial has at most 3322 bits, below the 2^4096 limit; exponents of at
most 9 digits, so that no text that fits in memory reaches the degree
limit; and no parenthesis, power of a numeral or second coefficient.  A
zero denominator, a name outside the ring or a sum over the 2^4096
bound, checked as the descent checks it, declines the text as well.
Every other text is split into tokens by one regular expression and
parsed by recursive descent.  As no admitted text fails a check, every
ParseError, with its position and expected set, comes from the recursive
descent.  The descent computes on ``Poly`` values, and each "*" and "^"
estimates its result before it multiplies them; a sum adds its terms'
numerators once, in linear time.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .poly import Exponent, Poly, RING2, RING3, _sum


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


class _Token(NamedTuple):
    kind: str  # "number", "ident", one of "+-*^()/", or "end"
    text: str
    position: int


# int() refuses more than 4300 digits (sys.get_int_max_str_digits), and
# printing refuses them too; longer numerals are a ParseError instead.
_MAX_DIGITS = 1000

# Whitespace, then at most one token: an ASCII numeral (str.isdigit also
# accepts characters such as "²" that int() cannot read), an alphanumeric
# run, or an operator.  \s is str.isspace and [^\W_] is str.isalnum, so
# a match that takes no token stops at the end or at a character that
# starts none.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([^\W_]+)|([-+*^()/]))?")

# Canonical text in the names of either ring (read_canonical checks the
# ring), with numerals capped at _MAX_DIGITS digits and exponents at 9 so
# that no check of the parser can fire on it; see the module docstring.
# These two patterns are compiled by re's cache on the first parse, so a
# command that parses nothing does not pay the 0.5-0.7 ms.
_NUMERAL = rf"[0-9]{{1,{_MAX_DIGITS}}}"
_FACTOR = r"(?:[xyz]|t[12])(?:\^[0-9]{1,9})?"
_TERM = rf"(?:{_NUMERAL}(?:/{_NUMERAL})?|{_FACTOR})(?:\*{_FACTOR})*"
_CANONICAL = rf"\s*-?{_TERM}(?:\s*[-+]\s*{_TERM})*\s*"
# sign, numerator, denominator and monomial ("x^2*y") of each term of a
# canonical text; the lookahead keeps trailing whitespace from matching
_SIGNED_TERM = r"\s*([-+]?)\s*(?=[0-9xyzt])([0-9]*)(?:/([0-9]+))?\*?([^\s+-]*)"


def _tokenize(text: str, offset: int) -> list[_Token]:
    """Tokens of text, whose positions are 1-based and shifted by offset."""
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group is None:
            end = match.end()
            if end == len(text):
                break
            raise ParseError(f"unexpected character {text[end]!r}", offset + end + 1)
        word = match[group]
        pos = offset + match.start(group) + 1
        if group == 1:
            if len(word) > _MAX_DIGITS:
                raise ParseError(f"numeral longer than {_MAX_DIGITS} digits", pos)
            tokens.append(_Token("number", word, pos))
        elif group == 2:
            # an identifier starts with a letter; "²x" and "٣" start with none
            if not word[0].isalpha():
                raise ParseError(f"unexpected character {word[0]!r}", pos)
            tokens.append(_Token("ident", word, pos))
        else:
            tokens.append(_Token(word, word, pos))
    # clamp end-of-input to the last character so truncated input points there
    tokens.append(_Token("end", "", offset + max(1, len(text))))
    return tokens


# Limits on the estimated result of one "^" or "*", as _power_bounds and
# _product_bounds estimate it and _check refuses it, with coefficient sizes
# in bits (ceil(log2) of the numerator or denominator).  The largest
# operations in the tests, the golden corpus and re-parsed `random --dvmax
# 20` output have at most 4 terms and 3319 bits (a numeral at the digit cap
# times x).  2^4096 prints in 1234 digits, so the inverse's phi^2 stays
# within Python's 4300-digit limit for printing an integer.  The size limit
# (terms times bits) keeps the slowest power within the limits, (x+1)^511,
# under a tenth of a second; a base with denominators, such as
# (1/2*x+1/3)^295, is multiplied over integer numerators and is no slower.
_MAX_TERMS = 1000
_MAX_BITS = 4096
_MAX_SIZE = 2 ** 18
# a degree prints like a numeral, so it has at most _MAX_DIGITS digits too
_MAX_DEGREE = 10 ** _MAX_DIGITS - 1


def _shape(p: Poly) -> tuple[int, int, int, Exponent]:
    """(k, top, den, degrees) of a nonzero p: its k terms, its degree in
    each variable, and den*p has integer coefficients of absolute value at
    most top."""
    numerators = p._coeffs
    top = max(map(abs, numerators.values()))
    return len(numerators), top, p._den, tuple(map(max, zip(*numerators)))


def _sum_bits(p: Poly) -> int:
    """The bits of p's largest numerator, as _check counts them."""
    return (max(map(abs, p._coeffs.values()), default=1) - 1).bit_length()


def _power_bounds(base: Poly, n: int) -> tuple[int, int, int]:
    """(degree, bits, terms) bounds of a nonzero base**n.

    Its coefficients have numerators at most (k*top)^n and denominators at
    most den^n.  Its terms are at most the multisets of n base terms, the
    monomials up to degree n*deg(base), and the box of per-variable degrees.
    terms is 0, no estimate, for a monomial base or n <= 1, which give at
    most k terms, and for bits over the limit, which _check refuses first:
    the multiset count is costly for a huge n.
    """
    k, top, den, degrees = _shape(base)
    degree = n * base.total_degree()
    bits = n * (max(k * top, den) - 1).bit_length()
    if k == 1 or n <= 1 or bits > _MAX_BITS:
        return degree, bits, 0
    nv = len(base.vars)
    return degree, bits, min(math.comb(n + k - 1, k - 1), math.comb(degree + nv, nv),
                             math.prod(n * d + 1 for d in degrees))


def _product_bounds(a: Poly, b: Poly) -> tuple[int, int, int]:
    """(degree, bits, terms) bounds of a*b for nonzero a and b.

    Its coefficients have numerators at most min(ka, kb)*top_a*top_b and
    denominators at most den_a*den_b.  Its terms are at most the ka*kb
    pairs, the monomials up to degree deg(a) + deg(b), and the box of
    per-variable degree sums.  terms is 0 when a factor is a monomial,
    which gives as many terms as the other factor.
    """
    ka, top_a, den_a, degrees_a = _shape(a)
    kb, top_b, den_b, degrees_b = _shape(b)
    degree = a.total_degree() + b.total_degree()
    bits = (max(min(ka, kb) * top_a * top_b, den_a * den_b) - 1).bit_length()
    if ka == 1 or kb == 1:
        return degree, bits, 0
    nv = len(a.vars)
    return degree, bits, min(ka * kb, math.comb(degree + nv, nv),
                             math.prod(da + db + 1 for da, db in zip(degrees_a, degrees_b)))


def _check(tok: _Token, degree: int, bits: int, terms: int = 0) -> None:
    """Refuse at tok a result whose bounds are over a limit, checked in the
    order degree, bits, terms, terms times bits; 0 terms checks none."""
    if degree > _MAX_DEGREE:
        limit = f"a degree of more than {_MAX_DIGITS} digits"
    elif bits > _MAX_BITS:
        limit = f"a coefficient above 2^{_MAX_BITS}"
    elif terms > _MAX_TERMS:
        limit = f"more than {_MAX_TERMS} terms"
    elif terms * bits > _MAX_SIZE:
        limit = f"more than {_MAX_SIZE} coefficient bits in all"
    else:
        return
    raise ParseError(f"'{tok.kind}' may give {limit}", tok.position)


_BASE_STARTS = frozenset({"number", "variable", "'('"})

# Each level of parentheses costs four stack frames (base, expr, term,
# factor); 100 levels stay far below Python's default recursion limit.
_MAX_NESTING = 100


class _Parser:
    """The one-pass reader, then recursive descent over the tokens; every
    value of the descent is a Poly."""

    def __init__(self, text: str, names: tuple[str, ...], offset: int = 0):
        self.text = text
        self.offset = offset
        self.pos = 0
        self.names = names
        self.nesting = 0
        self.zero = (0,) * len(names)
        self.index = {v: i for i, v in enumerate(names)}

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
        value = self.read_canonical()
        if value is None:
            self.tokens = _tokenize(self.text, self.offset)
            value = self.expr()
            if self.peek().kind != "end":
                raise self.fail(frozenset({"'+'", "'-'", "'*'", "end of input"}))
        return value

    def read_canonical(self) -> Poly | None:
        """The value of text in canonical form, or None for any other text
        and for one with a zero denominator, a name outside the ring or a
        sum over the 2^4096 bound, which the tokens then refuse.  Terms are
        summed in text order as integer numerators over their common
        denominator, zero ones skipped and cancelled ones dropped, as in
        expr."""
        if not re.fullmatch(_CANONICAL, self.text):
            return None
        terms = []
        lcm = 1
        for sign, num, den, monomial in re.findall(_SIGNED_TERM, self.text):
            c = int(num) if num else 1
            d = int(den) if den else 1
            if not d:
                return None
            if not c:
                continue
            lcm = math.lcm(lcm, d)
            if (lcm - 1).bit_length() > _MAX_BITS:
                return None
            e = self.zero
            if monomial:
                exponent = [0] * len(e)
                for factor in monomial.split("*"):
                    name, _, k = factor.partition("^")
                    i = self.index.get(name)
                    if i is None:
                        return None
                    exponent[i] += int(k) if k else 1
                e = tuple(exponent)
            terms.append((e, -c if sign == "-" else c, d))
        value = _sum(self.names, terms)
        return value if _sum_bits(value) <= _MAX_BITS else None

    def expr(self) -> Poly:
        value = self.term()
        # the signed terms are summed once, so a sum costs time linear in
        # its length rather than a copy of the sum so far per "+"
        terms = [(e, c, value._den) for e, c in value._coeffs.items()]
        den, tok = value._den, None
        while self.peek().kind in ("+", "-"):
            tok = self.advance()
            sign = 1 if tok.kind == "+" else -1
            value = self.term()
            # checked per term, so a refused sum stops at the crossing term
            den = math.lcm(den, value._den)
            _check(tok, 0, (den - 1).bit_length())
            terms += [(e, sign * c, value._den) for e, c in value._coeffs.items()]
        # cancelled terms go, so that (x - x)^n is 0 and (x + 1 - 1) a monomial
        value = _sum(self.names, terms)
        if tok:
            _check(tok, 0, _sum_bits(value))
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self.factor()
            # a zero factor needs no estimate, and has no term to estimate from
            if value and rhs:
                _check(tok, *_product_bounds(value, rhs))
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
            # a zero base skips Poly.__pow__'s loop, one pass per bit of n
            if value:
                _check(tok, *_power_bounds(value, n))
                value = value ** n
            elif not n:
                value = Poly.constant(self.names, 1)  # 0^0 is 1 too
        return -value if negate else value

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "number":
                    raise self.fail(frozenset({"number"}))
                self.advance()
                den = int(den_tok.text)
                if not den:
                    raise ParseError("zero denominator", den_tok.position)
            return Poly._raw(self.names, {self.zero: int(tok.text)}, den)
        if tok.kind == "ident":
            self.advance()
            if tok.text not in self.index:
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
