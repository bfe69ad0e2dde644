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
numeral has at most 1000 digits.
Positions in error messages are 1-based character offsets; end-of-input
is reported at the last character of the text.  The canonical printed
form of a polynomial is ``str(poly)``, which always re-parses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly, RING2, RING3


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
            self.advance()
            value = value * self.factor()
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
            self.advance()
            if self.peek().kind != "number":
                raise self.fail(frozenset({"number"}))
            value = value ** int(self.advance().text)
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
