"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent tuples to nonzero exact
rational coefficients.  Two fixed rings are used throughout the package:

  RING3 = ("x", "y", "z")    ambient polynomials phi, f, g, h
  RING2 = ("t1", "t2")       bivariate representatives p with
                             phi = p(x*z + y^2, z)

All values are immutable after construction and safe to share between
tasks; every operation is a pure function of its inputs.  Coefficients
are exact rationals (floats are rejected), because every verdict in this
package is an equality-of-polynomials decision.  Integer-valued
coefficients are stored as plain ints and promoted to Fraction only when
a denominator appears; the two types agree under ==, hash and
arithmetic, so this is purely a speed matter.

Canonical term order: graded reverse-lexicographic, printed highest
first (total degree descending; within a degree x before y before z and
t1 before t2, e.g. "y^2 + x*z" and "x + y + z").  The maximal-degree
terms form a prefix, so leading-form extraction is a prefix scan.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from typing import Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

RING3 = ("x", "y", "z")
RING2 = ("t1", "t2")


class _NegInfinity:
    """Degree of the zero polynomial.

    Deliberately not orderable: code that forgets the zero case raises a
    TypeError instead of silently comparing against -1.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "NEG_INFINITY"


NEG_INFINITY = _NegInfinity()


def _as_coeff(value) -> Scalar:
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _check_weights(weights: Sequence[int], nvars: int) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) != nvars:
        raise ValueError(f"weight vector has {len(w)} entries, expected {nvars}")
    if not all(isinstance(v, int) and v >= 1 for v in w):
        raise ValueError(f"weights must be integers >= 1, got {w!r}")
    return w


def _term_key(term: tuple[Exponent, Scalar]) -> tuple[int, Exponent]:
    # degree descending, then reverse-lexicographic: a precedes b when the
    # rightmost differing exponent is smaller in a, so x*y precedes x*z
    exp = term[0]
    return (-sum(exp), exp[::-1])


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Construct from a mapping (or iterable of pairs) of exponent tuples to
    coefficients; duplicate exponents are summed, zero coefficients are
    dropped, so equal values always have equal term tuples.
    """

    __slots__ = ("vars", "_terms")

    def __init__(self, vars: Sequence[str], terms=()):  # noqa: A002 - domain term
        names = tuple(vars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponent, Scalar] = {}
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != len(names) or not all(isinstance(e, int) and e >= 0 for e in exp):
                raise ValueError(f"bad exponent {exp!r} for variables {names!r}")
            c = _as_coeff(coeff)
            if c:
                acc[exp] = acc.get(exp, 0) + c
        self.vars = names
        self._terms = tuple(
            sorted(((e, c) for e, c in acc.items() if c), key=_term_key)
        )

    @classmethod
    def _raw(cls, names: tuple[str, ...], acc: dict[Exponent, Scalar]) -> "Poly":
        """Internal constructor for arithmetic results: the exponents are
        known to be valid and the coefficients exact, so only zero
        filtering, int normalization and sorting remain."""
        poly = cls.__new__(cls)
        poly.vars = names
        poly._terms = tuple(sorted(
            (
                (e, c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c)
                for e, c in acc.items()
                if c
            ),
            key=_term_key,
        ))
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], value: Scalar) -> "Poly":
        names = tuple(vars)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        names = tuple(vars)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}; ring has {names!r}")
        exp = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exp: 1})

    # -- basic structure ------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponent, Scalar]]:
        """Yield (exponent, coefficient) pairs in canonical order."""
        return iter(self._terms)

    def support(self) -> frozenset[Exponent]:
        return frozenset(e for e, _ in self._terms)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        exp = tuple(exp)
        for e, c in self._terms:
            if e == exp:
                return Fraction(c)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant")
        return Fraction(self._terms[0][1])

    # -- ring arithmetic --------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(
                    f"mixed polynomial rings: {self.vars!r} vs {other.vars!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.vars, other)
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, Scalar] = dict(self._terms)
        for e, c in q._terms:
            out[e] = out.get(e, 0) + c
        return Poly._raw(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, Scalar] = dict(self._terms)
        for e, c in q._terms:
            out[e] = out.get(e, 0) - c
        return Poly._raw(self.vars, out)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {e: -c for e, c in self._terms})

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, Scalar] = {}
        get = out.get
        # the exponent addition is the hottest loop in the package, so the
        # two fixed arities are unrolled
        if len(self.vars) == 3:
            for (a0, a1, a2), ca in self._terms:
                for (b0, b1, b2), cb in q._terms:
                    e = (a0 + b0, a1 + b1, a2 + b2)
                    out[e] = get(e, 0) + ca * cb
        elif len(self.vars) == 2:
            for (a0, a1), ca in self._terms:
                for (b0, b1), cb in q._terms:
                    e = (a0 + b0, a1 + b1)
                    out[e] = get(e, 0) + ca * cb
        else:
            for ea, ca in self._terms:
                for eb, cb in q._terms:
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = get(e, 0) + ca * cb
        return Poly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial exponent must be an integer")
        if n < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        result = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.vars == other.vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            if not self._terms:
                return other == 0
            return self.is_constant() and self._terms[0][1] == other
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like their value, so p == 5 implies equal hashes
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.vars, self._terms))

    # -- calculus and evaluation ------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative with respect to the named variable."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}; ring has {self.vars!r}")
        i = self.vars.index(var)
        out: dict[Exponent, Scalar] = {}
        for exp, coeff in self._terms:
            if exp[i]:
                e = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
                out[e] = out.get(e, 0) + coeff * exp[i]
        return Poly._raw(self.vars, out)

    def substitute(self, *values: "Poly") -> "Poly":
        """Substitute one polynomial per variable, expand, canonicalize.

        The values may live in a different ring than ``self``; they must
        all share one ring, which becomes the ring of the result.

        Evaluation is a sparse multivariate Horner scheme: terms are
        grouped by the exponent of one variable at a time and the partial
        sums are multiplied by gap powers, which keeps intermediate
        products far smaller than expanding term by term.
        """
        if len(values) != len(self.vars):
            raise ValueError(
                f"substitute needs {len(self.vars)} values, got {len(values)}"
            )
        target = values[0].vars
        for v in values:
            if not isinstance(v, Poly) or v.vars != target:
                raise ValueError("substituted values must share one polynomial ring")
        if not self._terms:
            return Poly.zero(target)
        nvars = len(self.vars)
        power_cache: list[dict[int, Poly]] = [{} for _ in values]

        def power(i: int, n: int) -> Poly:
            got = power_cache[i].get(n)
            if got is None:
                got = values[i] ** n
                power_cache[i][n] = got
            return got

        def emit(terms: list[tuple[Exponent, Scalar]], i: int) -> Poly:
            if i == nvars:
                return Poly.constant(target, sum(c for _, c in terms))
            buckets: dict[int, list[tuple[Exponent, Scalar]]] = {}
            for term in terms:
                buckets.setdefault(term[0][i], []).append(term)
            exps = sorted(buckets, reverse=True)
            acc = emit(buckets[exps[0]], i + 1)
            prev = exps[0]
            for e in exps[1:]:
                acc = acc * power(i, prev - e) + emit(buckets[e], i + 1)
                prev = e
            if prev:
                acc = acc * power(i, prev)
            return acc

        return emit(list(self._terms), 0)

    def evaluate(self, *point: Scalar) -> Fraction:
        """Exact value at a rational point, one coordinate per variable."""
        if len(point) != len(self.vars):
            raise ValueError(f"evaluate needs {len(self.vars)} coordinates")
        coords = [_as_coeff(v) for v in point]
        total = 0
        for exp, coeff in self._terms:
            term = coeff
            for v, e in zip(coords, exp):
                if e:
                    term *= v ** e
            total += term
        return Fraction(total)

    # -- degrees and leading forms -----------------------------------------

    def total_degree(self) -> "int | _NegInfinity":
        if not self._terms:
            return NEG_INFINITY
        # canonical order is degree-descending, so the first term is maximal
        return sum(self._terms[0][0])

    def weighted_degree(self, weights: Sequence[int]) -> "int | _NegInfinity":
        """Max of <weights, exponent> over the support; NEG_INFINITY for 0."""
        w = _check_weights(weights, len(self.vars))
        if not self._terms:
            return NEG_INFINITY
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e, _ in self._terms)

    def weighted_leading_form(self, weights: Sequence[int]) -> "Poly":
        """Sum of the terms attaining the weighted degree."""
        w = _check_weights(weights, len(self.vars))
        if not self._terms:
            raise ValueError("zero polynomial has no leading form")
        graded = [(sum(wi * ei for wi, ei in zip(w, e)), e, c) for e, c in self._terms]
        top = max(d for d, _, _ in graded)
        return Poly._raw(self.vars, {e: c for d, e, c in graded if d == top})

    def leading_form(self) -> "Poly":
        """Highest total-degree homogeneous component."""
        return self.weighted_leading_form((1,) * len(self.vars))

    def homogeneous_components(self) -> list[tuple[int, "Poly"]]:
        """Nonzero homogeneous parts as (degree, component), degree ascending."""
        buckets: dict[int, dict[Exponent, Scalar]] = {}
        for exp, coeff in self._terms:
            buckets.setdefault(sum(exp), {})[exp] = coeff
        return [(d, Poly._raw(self.vars, buckets[d])) for d in sorted(buckets)]

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for exp, coeff in self._terms:
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            ]
            mag = -coeff if coeff < 0 else coeff
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag), *factors])
            if not chunks:
                chunks.append(f"-{body}" if coeff < 0 else body)
            else:
                chunks.append(f"{'-' if coeff < 0 else '+'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.vars!r}, {str(self)!r})"


X = Poly.variable(RING3, "x")
Y = Poly.variable(RING3, "y")
Z = Poly.variable(RING3, "z")
T1 = Poly.variable(RING2, "t1")
T2 = Poly.variable(RING2, "t2")


def expand_bivariate(p: Poly) -> Poly:
    """Expand p(t1, t2) at t1 = x*z + y^2, t2 = z."""
    if p.vars != RING2:
        raise ValueError("expand_bivariate expects a polynomial in t1, t2")
    return p.substitute(X * Z + Y ** 2, Z)
