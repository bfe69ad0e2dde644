"""Seeded workload corpora whose answers are known by construction.

This module uses only the standard library.  It draws every input with
its own ``random.Random`` and expands ``p(x*z + y^2, z)`` with its own
integer arithmetic, so no change to the package under test can change
what the benchmark feeds it or what it expects back.

Polynomials are plain dicts from exponent tuples to nonzero Fractions:
``(k1, k2)`` for p in t1, t2 and ``(a, b, c)`` for phi in x, y, z.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

RING3 = ("x", "y", "z")
RING2 = ("t1", "t2")

WILD = "WildAutomorphism"
TAME = "TameAutomorphism"
UNKNOWN = "AutomorphismTamenessUnknown"
NOT_AUTO = "NotAutomorphism"
VERDICTS = (WILD, TAME, UNKNOWN, NOT_AUTO)

# The analyze corpus spreads d_v(p) over 2..10, as acceptance criterion c03
# does; the inverse corpus stops at 5 because one d_v = 6 round trip can
# take seconds, which would let a single input dominate a run.
ANALYZE_DEGREES = range(2, 11)
ORACLE_DEGREES = range(13)  # 0..DEFAULT_DEGREE_BOUND of the package
ORACLE_SWEEPS = 4

# (d_v, t1-degree, term count, rational coefficients, how many) for
# inverse_roundtrip.  Cost is set mostly by the t1-degree of p (t1^2 puts x^4
# into the map, and substituting the inverse into it dominates): the t1^2
# rows make the heavy tail.  Rational coefficients multiply the cost of the
# t1 rows several times over, by an amount that depends on the values, so
# only the t2-only rows carry them.  Every operation stays under about
# 100 ms here, because the least time over passes filters out interference
# from other processes only for operations shorter than the interference.
INVERSE_PLAN = (
    (1, 0, 2, 0, 3), (2, 0, 2, 1, 3), (2, 1, 1, 0, 3), (2, 1, 2, 0, 3),
    (3, 0, 3, 1, 3), (3, 1, 2, 0, 3), (3, 1, 3, 0, 3),
    (4, 0, 3, 1, 3), (4, 1, 3, 0, 3), (4, 1, 4, 0, 3),
    (4, 2, 2, 0, 3), (4, 2, 3, 0, 4),
    (5, 0, 4, 1, 3), (5, 1, 4, 0, 3), (5, 1, 5, 0, 3),
    (5, 2, 2, 0, 3), (5, 2, 3, 0, 4),
)

# argparse reads a single token that starts with "-" as an option unless it
# looks like a negative number, so such a phi never reaches the analysis.
_ARGPARSE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

# A shape fixes which monomials carry a coefficient, each coefficient's
# denominator (1 for an integer) and, where it matters, its sign:
# (exponent, denominator, sign or None).  Shapes come from a fixed
# generator, so every seed does the same symbolic work; the seed draws the
# numerators, the free signs and the order.  Run time depends far more on
# the shape (t1-degree, term count, denominators) than on the numerators,
# so this keeps runs with different seeds comparable.
Shape = tuple


def shape_of(rng: random.Random, support, fraction_share: float, sign=None) -> Shape:
    return tuple(
        (m, rng.randint(2, 5) if rng.random() < fraction_share else 1, sign)
        for m in sorted(set(support))
    )


def fill(rng: random.Random, shape: Shape) -> dict:
    """Coefficients for a shape: a numerator 1..9 coprime to the shape's
    denominator, with the shape's sign or a random one."""
    poly = {}
    for exp, den, sign in shape:
        num = rng.randint(1, 9)
        while gcd(num, den) > 1:
            num = rng.randint(1, 9)
        poly[exp] = Fraction(num * (sign or rng.choice((1, -1))), den)
    return poly


def weighted_grid(dv: int, k1max: int | None = None) -> list[tuple[int, int]]:
    """Monomials t1^k1*t2^k2 with 2*k1 + k2 <= dv (and k1 <= k1max)."""
    top = dv // 2 if k1max is None else min(k1max, dv // 2)
    return [(k1, k2) for k1 in range(top + 1) for k2 in range(dv - 2 * k1 + 1)]


def weighted_degree(p: dict) -> int:
    return max(2 * k1 + k2 for k1, k2 in p)


def expand(p: dict) -> dict:
    """phi = p(x*z + y^2, z): t1^k1*t2^k2 gives sum_j C(k1, j) x^j y^(2k1-2j)
    z^(j+k2).  Distinct (k1, k2) give disjoint supports, so nothing cancels."""
    phi = {}
    for (k1, k2), c in p.items():
        for j in range(k1 + 1):
            phi[(j, 2 * (k1 - j), j + k2)] = c * comb(k1, j)
    return phi


def residual(phi: dict) -> dict:
    """-2*y*phi_x + z*phi_y."""
    out: dict = {}
    for (a, b, c), coeff in phi.items():
        if a:
            e = (a - 1, b + 1, c)
            out[e] = out.get(e, 0) - 2 * a * coeff
        if b:
            e = (a, b - 1, c + 1)
            out[e] = out.get(e, 0) + b * coeff
    return {e: c for e, c in out.items() if c}


def verdict(p: dict) -> str:
    """Verdict of an automorphism from the raw exponents of p: Wild when the
    (2,1)-leading form of p involves t1, Tame when no term does, else
    Unknown (the leading-form test is only sufficient)."""
    if not p:
        return TAME
    top = weighted_degree(p)
    if any(k1 for k1, k2 in p if 2 * k1 + k2 == top):
        return WILD
    if not any(k1 for k1, _ in p):
        return TAME
    return UNKNOWN


def loj_exponent(p: dict) -> Fraction:
    """1/(2*d_v(p) + 1), or 1 for constant p (p = 0 included)."""
    if all(e == (0, 0) for e in p):
        return Fraction(1)
    return Fraction(1, 2 * weighted_degree(p) + 1)


def render(poly: dict, names: tuple[str, ...]) -> str:
    """Text in the package's canonical layout: total degree descending,
    then reverse-lexicographic; terms joined by " + " and " - "."""
    if not poly:
        return "0"
    chunks = []
    for exp in sorted(poly, key=lambda e: (-sum(e), e[::-1])):
        coeff = poly[exp]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exp) if e]
        mag = abs(coeff)
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


def read(text: str, names: tuple[str, ...]) -> dict:
    """Inverse of ``render`` for canonical text (no parentheses)."""
    if text == "0":
        return {}
    out: dict = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        sign = -1 if chunk.startswith("-") else 1
        coeff = Fraction(sign)
        exp = [0] * len(names)
        for factor in chunk.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in names:
                exp[names.index(name)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exp)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def refused_by_argparse(text: str) -> bool:
    """True for a phi the CLI front end refuses before analysis: one token
    with a leading minus that is not a plain negative number."""
    return text.startswith("-") and " " not in text and not _ARGPARSE_NUMBER.match(text)


# -- analyze_mix --------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzeCase:
    phi_text: str
    phi: dict
    p: dict | None            # representative, None when phi is spoiled
    residual: dict
    verdict: str
    exponent: Fraction | None
    d_v: int                  # of the underlying p; -1 for p = 0


FRACTION_SHARE = 0.25  # of analyze_mix coefficients


def _p_shape(rng: random.Random, kind: str, dv: int) -> Shape:
    """Shape of a p of weighted degree dv whose verdict ``kind`` fixes."""
    if kind == "monomial":  # the simplest tame maps, c*t2^dv; one token as phi
        return shape_of(rng, [(0, dv)], FRACTION_SHARE, rng.choice((1, -1)))
    if kind == "tame":
        support = [(0, k) for k in range(dv) if rng.random() < 0.5] + [(0, dv)]
    elif kind == "unknown":  # pure-t2 leading form over some lower t1 term
        lower = [m for m in weighted_grid(dv - 1) if m[0]]
        support = [m for m in lower if rng.random() < 0.5] or [rng.choice(lower)]
        support.append((0, dv))
    else:  # wild: each monomial kept with probability 1/2, as random_poly2 does
        support = [m for m in weighted_grid(dv) if rng.random() < 0.5]
        tops = [(k1, dv - 2 * k1) for k1 in range(1, dv // 2 + 1)]
        if not any(m in tops for m in support):
            support.append(rng.choice(tops))
    return shape_of(rng, support, FRACTION_SHARE)


def _spoil_shape(rng: random.Random, sign=None) -> Shape:
    """c*x^a*y^b*z^c with a + b >= 1, which always leaves a nonzero residual."""
    while True:
        a, b, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        if a + b >= 1:
            return shape_of(rng, [(a, b, c)], FRACTION_SHARE, sign)


def analyze_shapes() -> list[tuple[Shape, Shape | None]]:
    """(shape of p, shape of the spoiling term or None).  Half are
    automorphisms, half spoiled copies of the same kinds of p.  Per degree:
    2 wild, 1 tame (even d_v) or unknown (odd d_v), 1 monomial; then p = 0
    twice, whose spoiled copies are single terms, one of each sign."""
    rng = random.Random("analyze_mix shapes")
    shapes = []
    for dv in ANALYZE_DEGREES:
        for kind in ("wild", "wild", "unknown" if dv % 2 else "tame", "monomial"):
            shapes.append((_p_shape(rng, kind, dv), None))
            shapes.append((_p_shape(rng, kind, dv), _spoil_shape(rng)))
    for sign in (1, -1):
        shapes.append(((), None))
        shapes.append(((), _spoil_shape(rng, sign)))
    return shapes


def analyze_case(p: dict, spoil: dict | None) -> AnalyzeCase:
    """phi = p(x*z + y^2, z), plus the spoiling terms if given, with the
    answers ``analyze`` must give for it."""
    phi = expand(p)
    dv = weighted_degree(p) if p else -1
    if spoil is None:
        return AnalyzeCase(render(phi, RING3), phi, p, {}, verdict(p),
                           loj_exponent(p), dv)
    for exp, coeff in spoil.items():
        phi[exp] = phi.get(exp, 0) + coeff
    phi = {e: c for e, c in phi.items() if c}
    return AnalyzeCase(render(phi, RING3), phi, None, residual(phi), NOT_AUTO,
                       None, dv)


def analyze_corpus(seed: int) -> list[AnalyzeCase]:
    rng = random.Random(f"analyze_mix:{seed}")
    cases = [
        analyze_case(fill(rng, p_shape), None if spoil is None else fill(rng, spoil))
        for p_shape, spoil in analyze_shapes()
    ]
    rng.shuffle(cases)
    return cases


# -- inverse_roundtrip ----------------------------------------------------------


def inverse_shapes() -> list[Shape]:
    """One shape per INVERSE_PLAN slot: t1^k1max*t2^(d_v-2*k1max) plus
    further terms of weight <= d_v and t1-degree <= k1max."""
    rng = random.Random("inverse_roundtrip shapes")
    shapes = []
    for dv, k1max, nterms, nfrac, count in INVERSE_PLAN:
        lead = (k1max, dv - 2 * k1max)
        rest = [m for m in weighted_grid(dv, k1max) if m != lead]
        for _ in range(count):
            support = sorted([lead, *rng.sample(rest, nterms - 1)])
            fractional = set(rng.sample(range(nterms), nfrac))
            shapes.append(tuple((m, rng.randint(2, 5) if i in fractional else 1, None)
                                for i, m in enumerate(support)))
    return shapes


def inverse_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"inverse_roundtrip:{seed}")
    corpus = [fill(rng, shape) for shape in inverse_shapes()]
    rng.shuffle(corpus)
    return corpus


# -- oracle_sweep -----------------------------------------------------------------


def oracle_corpus(seed: int) -> list[int]:
    """ORACLE_SWEEPS sweeps of d = 0..12, each in a seeded order."""
    rng = random.Random(f"oracle_sweep:{seed}")
    degrees = []
    for _ in range(ORACLE_SWEEPS):
        sweep = list(ORACLE_DEGREES)
        rng.shuffle(sweep)
        degrees.extend(sweep)
    return degrees


def oracle_dimension(d: int) -> int:
    return d // 2 + 1
