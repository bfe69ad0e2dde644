"""Reference tokenizer and parser: the character loop and the
``Poly``-valued recursive descent that ``nagata.parse`` used before its
regular-expression tokenizer, kept as test_pde.py keeps the dense kernel
oracle.  It reads a ``Poly`` only through ``terms()`` and builds one only
through its public constructors, so it does not depend on how ``Poly``
stores its coefficients.

Every value here is a ``Poly``, and every "*" and "^" runs the size
estimate of ``nagata.parse`` (``_check`` of ``_product_bounds`` or
``_power_bounds``) and then ``Poly`` arithmetic.  The package's
parser splits text into tokens with one regular expression, collects
the terms of each sum in one dict and reads canonical text in one pass
without tokens; both must give the same polynomial or the same
``ParseError``.
"""

from dataclasses import dataclass
from fractions import Fraction

from nagata.parse import (
    _BASE_STARTS,
    _MAX_DIGITS,
    _MAX_NESTING,
    ParseError,
    UnknownIdentifierError,
    _check,
    _power_bounds,
    _product_bounds,
)
from nagata.poly import Poly


@dataclass(frozen=True)
class _Token:
    kind: str  # "number", "ident", one of "+-*^()/", or "end"
    text: str
    position: int


# Only ASCII digits: str.isdigit also accepts characters such as "²" that
# int() cannot read.
_DIGITS = frozenset("0123456789")


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
        if self.peek().kind not in ("+", "-"):
            return value
        # the signed terms go into one dict, so a sum costs time linear
        # in its length rather than a copy of the sum so far per "+"
        acc = dict(value.terms())
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            for e, c in self.term().terms():
                acc[e] = acc.get(e, 0) + sign * c
        return Poly(self.names, acc)

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self.factor()
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
            if value:
                _check(tok, *_power_bounds(value, n))
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
