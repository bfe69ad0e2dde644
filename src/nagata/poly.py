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
arithmetic.  Fraction arithmetic is much slower than int arithmetic, so
a product of two polynomials of more than one term that carry a
denominator is taken over integer numerators: each factor is scaled by
the least common denominator of its coefficients, the term pairs are
multiplied as ints, and each result coefficient is divided once by the
product of the two denominators.

A Poly keeps its terms in a dict from exponent tuple to coefficient, in
no particular order.  Arithmetic, substitution, equality and the degree
and leading-form queries read the dict and never sort.  The canonical
term order is applied only where order is observed: terms(), str() and
the hash of a non-constant polynomial sort the terms on first use and
cache the sorted tuple (filling the cache twice gives the same tuple, so
values stay safe to share).

Canonical term order: graded reverse-lexicographic, printed highest
first (total degree descending; within a degree x before y before z and
t1 before t2, e.g. "y^2 + x*z" and "x + y + z").
"""

from __future__ import annotations

import math
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
        # int() turns a bool into 0 or 1, which print as numerals
        return int(value)
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


def _normalized(acc: dict[Exponent, Scalar]) -> dict[Exponent, Scalar]:
    # type() rather than isinstance: Fraction's ABC metaclass makes
    # isinstance(c, Fraction) slow for the common int coefficient
    return {
        e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for e, c in acc.items()
        if c
    }


def _numerators(coeffs: dict[Exponent, Scalar]) -> tuple[int, dict[Exponent, int]]:
    """(den, num): den is the least common denominator of the
    coefficients, and num maps each exponent to den times its coefficient,
    an int."""
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    if den == 1:
        return 1, coeffs
    return den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}


def _monomial_text(names: Sequence[str], exp: Exponent) -> str:
    """The monomial of exp as printed: "x^2*y" for (2, 1, 0) in x, y, z,
    and "1" for the zero exponent."""
    return "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]) or "1"


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Construct from a mapping (or iterable of pairs) of exponent tuples to
    coefficients; duplicate exponents are summed, zero coefficients are
    dropped and integral coefficients are stored as int, so equal values
    always have equal term dicts.
    """

    # _coeffs: exponent -> nonzero coefficient; _ordered: the canonical
    # term tuple, None until terms(), str() or hash() first needs it
    __slots__ = ("vars", "_coeffs", "_ordered")

    def __init__(self, vars: Sequence[str], terms=()):  # noqa: A002 - domain term
        names = tuple(vars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Exponent, Scalar] = {}
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != len(names) or not all(isinstance(e, int) and e >= 0 for e in exp):
                raise ValueError(f"bad exponent {exp!r} for variables {names!r}")
            acc[exp] = acc.get(exp, 0) + _as_coeff(coeff)
        self.vars = names
        self._coeffs = _normalized(acc)
        self._ordered = None

    @classmethod
    def _raw(cls, names: tuple[str, ...], acc: dict[Exponent, Scalar]) -> "Poly":
        """Internal constructor for arithmetic results: the exponents are
        known to be valid and the coefficients exact, so only zero
        filtering and int normalization remain."""
        poly = cls.__new__(cls)
        poly.vars = names
        poly._coeffs = _normalized(acc)
        poly._ordered = None
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], value: Scalar) -> "Poly":
        names = tuple(vars)
        return cls._raw(names, {(0,) * len(names): _as_coeff(value)})

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        names = tuple(vars)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}; ring has {names!r}")
        exp = tuple(1 if v == name else 0 for v in names)
        return cls._raw(names, {exp: 1})

    # -- basic structure ------------------------------------------------

    def _canonical(self) -> tuple[tuple[Exponent, Scalar], ...]:
        ordered = self._ordered
        if ordered is None:
            ordered = self._ordered = tuple(sorted(self._coeffs.items(), key=_term_key))
        return ordered

    def terms(self) -> Iterator[tuple[Exponent, Scalar]]:
        """Yield (exponent, coefficient) pairs in canonical order."""
        return iter(self._canonical())

    def support(self) -> frozenset[Exponent]:
        return frozenset(self._coeffs)

    def coefficient(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self._coeffs.get(tuple(exp), 0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._coeffs)

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
        out: dict[Exponent, Scalar] = dict(self._coeffs)
        for e, c in q._coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly._raw(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, Scalar] = dict(self._coeffs)
        for e, c in q._coeffs.items():
            out[e] = out.get(e, 0) - c
        return Poly._raw(self.vars, out)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) and isinstance(other, (int, Fraction)):
            # a scalar scales the coefficients; no constant Poly is built
            return Poly._raw(self.vars, {e: c * other for e, c in self._coeffs.items()})
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self._coeffs, q._coeffs
        den = 1
        if len(a) > 1 and len(b) > 1 and Fraction in {
                *map(type, a.values()), *map(type, b.values())}:
            # more term pairs than result terms, and a denominator: multiply
            # integer numerators and divide once per result term, not one
            # Fraction product and sum per pair.  A one-term factor has as
            # many pairs as results, so scaling it would save nothing.
            den_a, a = _numerators(a)
            den_b, b = _numerators(b)
            den = den_a * den_b
        out: dict[Exponent, Scalar] = {}
        get = out.get
        terms_a, terms_b = a.items(), b.items()
        # the exponent addition is the hottest loop in the package, so the
        # two fixed arities are unrolled
        if len(self.vars) == 3:
            for (a0, a1, a2), ca in terms_a:
                for (b0, b1, b2), cb in terms_b:
                    e = (a0 + b0, a1 + b1, a2 + b2)
                    out[e] = get(e, 0) + ca * cb
        elif len(self.vars) == 2:
            for (a0, a1), ca in terms_a:
                for (b0, b1), cb in terms_b:
                    e = (a0 + b0, a1 + b1)
                    out[e] = get(e, 0) + ca * cb
        else:
            for ea, ca in terms_a:
                for eb, cb in terms_b:
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = get(e, 0) + ca * cb
        if den != 1:
            for e, c in out.items():
                whole, rest = divmod(c, den)
                out[e] = Fraction(c, den) if rest else whole
        return Poly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial exponent must be an integer")
        if n < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        if n == 0:
            return Poly.constant(self.vars, 1)
        if len(self._coeffs) == 1:
            (exp, coeff), = self._coeffs.items()
            return Poly._raw(self.vars, {tuple(n * e for e in exp): coeff ** n})
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.vars == other.vars and self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and next(iter(self._coeffs.values()), 0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like their value, so p == 5 implies equal hashes
        if self.is_constant():
            return hash(next(iter(self._coeffs.values()), 0))
        return hash((self.vars, self._canonical()))

    # -- calculus and evaluation ------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative with respect to the named variable."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}; ring has {self.vars!r}")
        i = self.vars.index(var)
        out: dict[Exponent, Scalar] = {}
        for exp, coeff in self._coeffs.items():
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
        if not self._coeffs:
            return Poly.zero(target)
        nvars = len(self.vars)
        zero = (0,) * len(target)
        power_cache: list[dict[int, Poly]] = [{} for _ in values]

        def power(i: int, n: int) -> Poly:
            got = power_cache[i].get(n)
            if got is None:
                got = values[i] ** n
                power_cache[i][n] = got
            return got

        def emit(terms: list[tuple[Exponent, Scalar]], i: int) -> Poly:
            if i == nvars:
                return Poly._raw(target, {zero: sum(c for _, c in terms)})
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

        return emit(list(self._coeffs.items()), 0)

    def evaluate(self, *point: Scalar) -> Fraction:
        """Exact value at a rational point, one coordinate per variable."""
        if len(point) != len(self.vars):
            raise ValueError(f"evaluate needs {len(self.vars)} coordinates")
        coords = [_as_coeff(v) for v in point]
        total = 0
        for exp, coeff in self._coeffs.items():
            term = coeff
            for v, e in zip(coords, exp):
                if e:
                    term *= v ** e
            total += term
        return Fraction(total)

    # -- degrees and leading forms -----------------------------------------

    def total_degree(self) -> "int | _NegInfinity":
        if not self._coeffs:
            return NEG_INFINITY
        return max(map(sum, self._coeffs))

    def weighted_degree(self, weights: Sequence[int]) -> "int | _NegInfinity":
        """Max of <weights, exponent> over the support; NEG_INFINITY for 0."""
        w = _check_weights(weights, len(self.vars))
        if not self._coeffs:
            return NEG_INFINITY
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e in self._coeffs)

    def weighted_leading_form(self, weights: Sequence[int]) -> "Poly":
        """Sum of the terms attaining the weighted degree."""
        w = _check_weights(weights, len(self.vars))
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading form")
        graded = [(sum(wi * ei for wi, ei in zip(w, e)), e, c)
                  for e, c in self._coeffs.items()]
        top = max(d for d, _, _ in graded)
        return Poly._raw(self.vars, {e: c for d, e, c in graded if d == top})

    def leading_form(self) -> "Poly":
        """Highest total-degree homogeneous component."""
        return self.weighted_leading_form((1,) * len(self.vars))

    def homogeneous_components(self) -> list[tuple[int, "Poly"]]:
        """Nonzero homogeneous parts as (degree, component), degree ascending."""
        buckets: dict[int, dict[Exponent, Scalar]] = {}
        for exp, coeff in self._coeffs.items():
            buckets.setdefault(sum(exp), {})[exp] = coeff
        return [(d, Poly._raw(self.vars, buckets[d])) for d in sorted(buckets)]

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        chunks: list[str] = []
        for exp, coeff in self._canonical():
            mag = -coeff if coeff < 0 else coeff
            if not any(exp):
                body = str(mag)
            elif mag == 1:
                body = _monomial_text(self.vars, exp)
            else:
                body = str(mag) + "*" + _monomial_text(self.vars, exp)
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
