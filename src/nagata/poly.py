"""Exact sparse polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent tuples to nonzero exact
rational coefficients.  Two fixed rings are used throughout the package:

  RING3 = ("x", "y", "z")    ambient polynomials phi, f, g, h
  RING2 = ("t1", "t2")       bivariate representatives p with
                             phi = p(x*z + y^2, z)

All values are immutable after construction and safe to share between
tasks; every operation is a pure function of its inputs.  Coefficients
are exact rationals (floats are rejected), because every verdict in this
package is an equality-of-polynomials decision.

A Poly stores its coefficients as integer numerators over one positive
denominator, as FLINT's fmpq_poly does: a dict from exponent tuple to
nonzero int, in no particular order, and an int den >= 1 with
gcd(den, *numerators) == 1.  That form is unique, so equal values have
equal dicts and denominators.  Arithmetic, substitution and the degree
and leading-form queries run on ints only and reduce each result once;
Fraction arithmetic, which builds a value and takes a gcd per operation,
is much slower.  Rational terms enter through one integer sum, _sum,
for the constructor and the parser alike.  Every result is made by
Poly._raw, which stores the caller's numerator dict as given unless a
zero or a factor common to den must go.  So a dict passed to _raw is
never written afterwards: it is one the caller built for that call, or
the dict of another Poly.  The public constructor sums its input into a
new dict and keeps no reference to what it was given.  A coefficient
becomes a Fraction only where it leaves the core as a number, in
terms(); only it, _as_coeff and a constant's hash() import fractions
(and with it decimal), so a call that makes no Fraction never loads it.
A value at a point is a substitution of constant polynomials.  str() and
hash() read the numerators and den as stored.

expand_bivariate(p) = p(x*z + y^2, z) is written in closed form: by the
binomial theorem c*t1^k*t2^m expands to the terms c*C(k,i)*x^i*y^(2k-2i)*
z^(i+m), 0 <= i <= k, and since the exponent (i, 2k-2i, i+m) determines
(k, m, i), no two of them collide.  The expansion needs no product.

The canonical term order is applied only where order is observed:
terms() and str() sort the terms on each call; nothing is cached, so a
Poly is never written after construction.  Printing is a third of an
analyze call, so str() unrolls x, y, z as __mul__ does: it sorts plain
tuples (-degree, c, b, a) and writes each monomial by branches on its
nonzero exponents, with no per-call table.  Other rings print through
_term_key and _monomial_text; _monomial_texts writes a list of monomials
of three variables, as the oracle's --json prints them, from one table
of power texts per variable.

Canonical term order: graded reverse-lexicographic, printed highest
first (total degree descending; within a degree x before y before z and
t1 before t2, e.g. "y^2 + x*z" and "x + y + z").
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping, Sequence

TYPE_CHECKING = False  # typing.TYPE_CHECKING, which type checkers read by name
if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = int | Fraction

Exponent = tuple[int, ...]

RING3 = ("x", "y", "z")
RING2 = ("t1", "t2")


def _as_coeff(value) -> Scalar:
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        # int() turns a bool into 0 or 1, which print as numerals
        return int(value)
    from fractions import Fraction
    return Fraction(value)


def _is_scalar(value) -> bool:
    """An int (bool included) or a Fraction, whose class is read from
    sys.modules: no Fraction exists before fractions is loaded."""
    if isinstance(value, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


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


def _monomial_text(names: Sequence[str], exp: Exponent) -> str:
    """The monomial of exp as printed: "x^2*y" for (2, 1, 0) in x, y, z,
    and "1" for the zero exponent."""
    return "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]) or "1"


def _monomial_texts(names: Sequence[str], exps: Sequence[Exponent],
                    bound: int) -> list[str]:
    """``_monomial_text(names, e)`` of each exponent e in a ring of three
    variables, e's entries at most ``bound``, from one table of power
    texts per variable."""
    # each nonempty text ends in "*", and the last one is cut off
    x, y, z = ([""] + [f"{v}*"] + [f"{v}^{k}*" for k in range(2, bound + 1)]
               for v in names)
    return [(x[a] + y[b] + z[c])[:-1] or "1" for a, b, c in exps]


def _sum(names: tuple[str, ...], terms: Sequence[tuple[Exponent, int, int]]) -> "Poly":
    """The (exponent, numerator, positive denominator) terms added in order
    over their least common denominator; it checks nothing, so each
    exponent must be valid for names."""
    den = math.lcm(*[d for _, _, d in terms])
    acc: dict[Exponent, int] = {}
    for e, c, d in terms:
        c *= den // d
        acc[e] = acc[e] + c if e in acc else c
    return Poly._raw(names, acc, den)


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Construct from a mapping (or iterable of pairs) of exponent tuples to
    int or Fraction coefficients; duplicate exponents are summed and zero
    coefficients are dropped.  The value is stored as integer numerators
    over one reduced denominator, so equal values are stored alike.
    """

    # _coeffs: exponent -> nonzero int numerator, unordered; _den: the
    # denominator, >= 1, with gcd(_den, *numerators) == 1
    __slots__ = ("vars", "_coeffs", "_den")

    def __new__(cls, vars: Sequence[str], terms=()) -> "Poly":  # noqa: A002 - domain term
        names = tuple(vars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        triples: list[tuple[Exponent, int, int]] = []
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != len(names) or not all(isinstance(e, int) and e >= 0 for e in exp):
                raise ValueError(f"bad exponent {exp!r} for variables {names!r}")
            c = _as_coeff(coeff)
            triples.append((exp, c.numerator, c.denominator))
        return _sum(names, triples)

    def __reduce__(self):
        # copy and pickle would call __new__ bare; _raw takes the stored form
        return Poly._raw, (self.vars, self._coeffs, self._den)

    @classmethod
    def _raw(cls, names: tuple[str, ...], numerators: dict[Exponent, int], den: int) -> "Poly":
        """Internal constructor for results, numerators over a positive den:
        the exponents are known to be valid, so only zero filtering and
        dividing out the common factor of den and the numerators remain.

        A dict with no zero numerator and no factor to divide out is stored
        as given, not copied.  So a caller passes either a dict it built for
        this call and does not touch again, or the _coeffs of a Poly, which
        no code writes after construction."""
        num = numerators if all(numerators.values()) else {
            e: c for e, c in numerators.items() if c}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        poly = object.__new__(cls)
        poly.vars = names
        poly._coeffs = num
        poly._den = den
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "Poly":
        return cls(vars)

    @classmethod
    def constant(cls, vars: Sequence[str], value: Scalar) -> "Poly":
        names = tuple(vars)
        value = _as_coeff(value)
        return cls._raw(names, {(0,) * len(names): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "Poly":
        names = tuple(vars)
        if name not in names:
            raise ValueError(f"unknown variable {name!r}; ring has {names!r}")
        exp = tuple(1 if v == name else 0 for v in names)
        return cls._raw(names, {exp: 1}, 1)

    # -- basic structure ------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponent, Scalar]]:
        """Yield (exponent, coefficient) pairs in canonical order, each
        coefficient an int if it is integral and a Fraction otherwise."""
        from fractions import Fraction
        den = self._den
        return iter(sorted([(e, Fraction(c, den) if c % den else c // den)
                            for e, c in self._coeffs.items()], key=_term_key))

    def support(self) -> frozenset[Exponent]:
        return frozenset(self._coeffs)

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
        if _is_scalar(other):
            return Poly.constant(self.vars, other)
        return None

    def _plus(self, q: "Poly", sign: int) -> "Poly":
        """self + sign*q over the least common denominator."""
        den = math.lcm(self._den, q._den)
        sa, sb = den // self._den, sign * (den // q._den)
        out = dict(self._coeffs) if sa == 1 else {e: c * sa for e, c in self._coeffs.items()}
        get = out.get
        for e, c in q._coeffs.items():
            out[e] = get(e, 0) + c * sb
        return Poly._raw(self.vars, out, den)

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._plus(q, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._plus(q, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {e: -c for e, c in self._coeffs.items()}, self._den)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly) and _is_scalar(other):
            # a scalar scales numerators and denominator; no constant Poly is built
            n = other.numerator
            return Poly._raw(self.vars, {e: c * n for e, c in self._coeffs.items()},
                             self._den * other.denominator)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out: dict[Exponent, int] = {}
        get = out.get
        terms_a, terms_b = self._coeffs.items(), q._coeffs.items()
        # unrolled for x, y, z, the ring of the maps: compose's substitution
        # of one map into another spends its time in this loop, and the
        # unrolled form keeps test_c05 three times faster than the generic
        # one; products in t1, t2 are rare and take the generic loop
        if len(self.vars) == 3:
            for (a0, a1, a2), ca in terms_a:
                for (b0, b1, b2), cb in terms_b:
                    e = (a0 + b0, a1 + b1, a2 + b2)
                    out[e] = get(e, 0) + ca * cb
        else:
            for ea, ca in terms_a:
                for eb, cb in terms_b:
                    e = tuple(i + j for i, j in zip(ea, eb))
                    out[e] = get(e, 0) + ca * cb
        return Poly._raw(self.vars, out, self._den * q._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int):
            raise TypeError("polynomial exponent must be an integer")
        if n < 0:
            raise ValueError("polynomial exponent must be nonnegative")
        if n == 0:
            return Poly.constant(self.vars, 1)
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
            return (self.vars == other.vars and self._den == other._den
                    and self._coeffs == other._coeffs)
        if _is_scalar(other):
            return self.is_constant() and next(iter(self._coeffs.values()), 0) \
                == other * self._den
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like their value, so p == 5 implies equal hashes
        if self.is_constant():
            from fractions import Fraction
            return hash(Fraction(next(iter(self._coeffs.values()), 0), self._den))
        # the stored form is unique, so it hashes without sorting
        return hash((self.vars, self._den, frozenset(self._coeffs.items())))

    # -- calculus and evaluation ------------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative with respect to the named variable."""
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}; ring has {self.vars!r}")
        i = self.vars.index(var)
        # distinct exponents stay distinct after lowering exp[i]
        out = {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i]
               for exp, c in self._coeffs.items() if exp[i]}
        return Poly._raw(self.vars, out, self._den)

    def substitute(self, *values: "Poly") -> "Poly":
        """Substitute one polynomial per variable, expand, canonicalize.

        The values may live in a different ring than ``self``; they must
        all share one ring, which becomes the ring of the result.

        Evaluation is a sparse multivariate Horner scheme on the
        numerators: terms are grouped by the exponent of one variable at a
        time and the partial sums are multiplied by gap powers, which keeps
        intermediate products far smaller than expanding term by term.
        The denominator is divided in once, at the end.
        """
        if len(values) != len(self.vars):
            raise ValueError(
                f"substitute needs {len(self.vars)} values, got {len(values)}"
            )
        # a value that is no Poly is refused before its vars are read
        target = getattr(values[0], "vars", None)
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

        def emit(terms: list[tuple[Exponent, int]], i: int) -> Poly:
            if i == nvars:
                return Poly._raw(target, {zero: sum(c for _, c in terms)}, 1)
            buckets: dict[int, list[tuple[Exponent, int]]] = {}
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

        acc = emit(list(self._coeffs.items()), 0)
        return acc if self._den == 1 else Poly._raw(target, acc._coeffs, acc._den * self._den)

    # -- degrees and leading forms -----------------------------------------

    def total_degree(self) -> int:
        """Max of the exponent sums over the support; ValueError for 0."""
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(map(sum, self._coeffs))

    def weighted_degree(self, weights: Sequence[int]) -> int:
        """Max of <weights, exponent> over the support; ValueError for 0."""
        w = _check_weights(weights, len(self.vars))
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e in self._coeffs)

    def weighted_leading_form(self, weights: Sequence[int]) -> "Poly":
        """Sum of the terms attaining the weighted degree."""
        w = _check_weights(weights, len(self.vars))
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading form")
        graded = [(sum(wi * ei for wi, ei in zip(w, e)), e, c)
                  for e, c in self._coeffs.items()]
        top = max(d for d, _, _ in graded)
        return Poly._raw(self.vars, {e: c for d, e, c in graded if d == top}, self._den)

    def leading_form(self) -> "Poly":
        """Highest total-degree homogeneous component."""
        return self.weighted_leading_form((1,) * len(self.vars))

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text.  For x, y, z the terms sort as plain tuples
        (-degree, c, b, a) and each monomial is built by branches on its
        nonzero exponents, with the names read from ``self.vars``; other
        rings print through ``_term_key`` and ``_monomial_text``."""
        if not self._coeffs:
            return "0"
        den = self._den
        if len(self.vars) == 3:
            vx, vy, vz = self.vars
            ordered = []
            for _, c, b, a, num in sorted([(-(a + b + c), c, b, a, num)
                                           for (a, b, c), num in self._coeffs.items()]):
                mono = "" if not a else vx if a == 1 else f"{vx}^{a}"
                if b:
                    v = vy if b == 1 else f"{vy}^{b}"
                    mono = f"{mono}*{v}" if mono else v
                if c:
                    v = vz if c == 1 else f"{vz}^{c}"
                    mono = f"{mono}*{v}" if mono else v
                ordered.append((num, mono))
        else:
            ordered = [(num, _monomial_text(self.vars, exp) if any(exp) else "")
                       for exp, num in sorted(self._coeffs.items(), key=_term_key)]
        chunks: list[str] = []
        for num, mono in ordered:
            # each coefficient num/den in lowest terms, printed as Fraction does
            mag = abs(num)
            g = math.gcd(mag, den)
            text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
            if not mono:
                body = text
            elif text == "1":
                body = mono
            else:
                body = text + "*" + mono
            if not chunks:
                chunks.append(f"-{body}" if num < 0 else body)
            else:
                chunks.append(f"{'-' if num < 0 else '+'} {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.vars!r}, {str(self)!r})"


X = Poly.variable(RING3, "x")
Y = Poly.variable(RING3, "y")
Z = Poly.variable(RING3, "z")
T1 = Poly.variable(RING2, "t1")
T2 = Poly.variable(RING2, "t2")


def expand_bivariate(p: Poly) -> Poly:
    """Expand p(t1, t2) at t1 = x*z + y^2, t2 = z.

    By the binomial theorem each term expands on its own,

        c*t1^k*t2^m  ->  sum over 0 <= i <= k of  c*C(k,i) * x^i*y^(2k-2i)*z^(i+m),

    and the output exponent (i, 2k-2i, i+m) gives back i, then k and m,
    so no two output terms share an exponent: the result is one dict of
    numerators over p's denominator, with no product and no sum to
    collect.
    """
    if p.vars != RING2:
        raise ValueError("expand_bivariate expects a polynomial in t1, t2")
    comb = math.comb
    out = {(i, 2 * (k - i), i + m): c * comb(k, i)
           for (k, m), c in p._coeffs.items() for i in range(k + 1)}
    return Poly._raw(RING3, out, p._den)
