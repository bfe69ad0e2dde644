"""Nagata-type endomorphisms of Q[x,y,z]: construction, Jacobians, inverses.

For a polynomial phi, the associated map is the triple

    f = x - 2*y*phi - z*phi^2
    g = y + z*phi
    h = z

It is the identity for phi = 0 and the classical Nagata automorphism for
phi = x*z + y^2.  The map is an automorphism exactly when the residual
-2*y*phi_x + z*phi_y vanishes, equivalently when phi = p(x*z + y^2, z)
for a bivariate p; in that case the inverse is the map of -phi.  The
formula is written in ``build_nagata``, and the Jacobian report and the
Milnor certificate are built through it.  The inverse from p is written
in closed form in ``inverse_nagata``, which squares p, not phi; a test
in tests/test_maps.py pins it against ``build_nagata`` of -phi.  A map
is the named triple ``PolyEndo(f, g, h)``, the identity ``PolyEndo(X, Y,
Z)``; its image of a point is its composite with a triple of constants.
One from ``build_nagata`` or ``inverse_nagata`` also keeps its phi, so
that ``compose`` can add phis instead of substituting the expanded
components.  The reports are named tuples.

Every map of the family fixes z and satisfies z*f + g^2 = x*z + y^2 (the
2*y*z*phi and z^2*phi^2 terms cancel), so it leaves every a = p(x*z +
y^2, z) unchanged, whatever its own phi b.  Substituting it into the map
of a then gives the map of a + b: writing N(phi) for the map of phi,

    compose(N(a), N(b)) = N(a + b).

Such an a lies in the kernel of the locally nilpotent derivation
D = -2*y*d/dx + z*d/dy, N(a) is exp(a*D), and these maps form a group
(van den Essen, *Polynomial Automorphisms and the Jacobian Conjecture*,
2000, ch. 1-2).  Only a needs a representative; b may be any
polynomial.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .poly import Poly, RING2, RING3, X, Y, Z, expand_bivariate


class PolyEndo(namedtuple("_Components", "f g h")):
    """An endomorphism of Q[x,y,z]: the triple (f, g, h) of the images of
    x, y, z, each in Q[x,y,z].  ``phi`` is not a constructor argument: only
    ``build_nagata`` and ``inverse_nagata`` set it, for ``compose``, which
    trusts it.  Equality, hashing and repr are the tuple's and ignore it;
    ``_replace`` drops it."""

    phi: Poly | None = None

    def __new__(cls, f: Poly, g: Poly, h: Poly) -> "PolyEndo":
        if not f.vars == g.vars == h.vars == RING3:
            raise ValueError("endomorphism components must live in Q[x,y,z]")
        return super().__new__(cls, f, g, h)

    @classmethod
    def _make(cls, components) -> "PolyEndo":
        return cls(*components)

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyEndo is immutable; cannot set {name!r}")


class NagataMap(namedtuple("NagataMap", "phi endo")):
    """A polynomial phi together with its map."""

    __slots__ = ()


JacobianReport = namedtuple("JacobianReport", "matrix determinant is_constant_nonzero")


class MilnorCertificate(namedtuple("MilnorCertificate", "x_combination y_combination")):
    """Coefficient triples (A,B,C) and (A',B',C') with A*f + B*g + C*h = x
    and A'*f + B'*g + C'*h = y, proving <f,g,h> = <x,y,z> and hence that
    the map has Milnor number 1."""

    __slots__ = ()


def _require_ring3(phi: Poly) -> None:
    if phi.vars != RING3:
        raise ValueError("phi must be a polynomial in x, y, z")


def build_nagata(phi: Poly) -> NagataMap:
    """Construct the map (x - 2*y*phi - z*phi^2, y + z*phi, z).

    With phi = num/den, f and g are written straight as numerators over
    den^2 and den.  phi^2 is the only product, a symmetric square that
    takes each unordered pair of terms once; multiplying by y or z only
    shifts exponents.  The z*phi terms of g all have a z, so none meets y,
    and the y*phi and z*phi^2 terms of f never meet x; they may meet each
    other and cancel (phi = y - 1/2*y*z cancels y^2*z), and ``Poly._raw``
    drops the zeros and reduces f over den^2.
    """
    _require_ring3(phi)
    num, den = phi._coeffs, phi._den
    square: dict[tuple[int, int, int], int] = {}
    get = square.get
    items = list(num.items())
    for i, ((a0, a1, a2), ca) in enumerate(items):
        e = (2 * a0, 2 * a1, 2 * a2)
        square[e] = get(e, 0) + ca * ca
        for (b0, b1, b2), cb in items[i + 1:]:
            e = (a0 + b0, a1 + b1, a2 + b2)
            square[e] = get(e, 0) + 2 * ca * cb
    f = {(a, b, c + 1): -s for (a, b, c), s in square.items()}
    get = f.get
    for (a, b, c), n in num.items():
        e = (a, b + 1, c)
        f[e] = get(e, 0) - 2 * den * n
    f[(1, 0, 0)] = den * den
    g = {(a, b, c + 1): n for (a, b, c), n in num.items()}
    g[(0, 1, 0)] = den
    endo = PolyEndo(Poly._raw(RING3, f, den * den), Poly._raw(RING3, g, den), Z)
    object.__setattr__(endo, "phi", phi)
    return NagataMap(phi=phi, endo=endo)


def jacobian(e: PolyEndo) -> tuple[tuple[Poly, ...], ...]:
    """3x3 matrix of partials; entry (i, j) is d(component i)/d(variable j)."""
    return tuple(
        tuple(component.partial(v) for v in RING3)
        for component in (e.f, e.g, e.h)
    )


def _determinant(m: tuple[tuple[Poly, ...], ...]) -> Poly:
    """Exact determinant of a 3x3 matrix, by cofactor expansion."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def pde_residual(phi: Poly) -> Poly:
    """The polynomial D(phi) = -2*y*phi_x + z*phi_y, whose vanishing
    characterizes automorphy of the associated map.

    D acts on one monomial at a time, so the residual is one pass over
    phi's numerators: n*x^a*y^b*z^c adds -2*a*n at x^(a-1)*y^(b+1)*z^c and
    b*n at x^a*y^(b-1)*z^(c+1).  ``Poly._raw`` drops the terms that cancel
    and reduces over phi's denominator.  ``jacobian_report`` is the
    independent check: its cofactor determinant is 1 + this residual."""
    _require_ring3(phi)
    out: dict[tuple[int, int, int], int] = {}
    get = out.get
    for (a, b, c), n in phi._coeffs.items():
        if a:
            e = (a - 1, b + 1, c)
            out[e] = get(e, 0) - 2 * a * n
        if b:
            e = (a, b - 1, c + 1)
            out[e] = get(e, 0) + b * n
    return Poly._raw(RING3, out, phi._den)


def jacobian_report(phi: Poly) -> JacobianReport:
    """Jacobian matrix and determinant of the map built from phi; the
    determinant is 1 + pde_residual(phi)."""
    matrix = jacobian(build_nagata(phi).endo)
    det = _determinant(matrix)
    return JacobianReport(
        matrix=matrix,
        determinant=det,
        is_constant_nonzero=det.is_constant() and not det.is_zero(),
    )


def decompose(phi: Poly) -> Poly | None:
    """Recover p with phi = p(x*z + y^2, z), or None if no such p exists.

    The y = 0 section of phi determines the only possible candidate: a
    monomial x^a * z^b can arise only from t1^a * t2^(b-a), so b >= a is
    required.  The candidate is then verified by recomposition, which
    makes the recovery self-checking.
    """
    _require_ring3(phi)
    candidate: dict[tuple[int, int], int] = {}
    for (a, b, c), coeff in phi._coeffs.items():
        if b:
            continue
        if c < a:
            return None
        candidate[(a, c - a)] = coeff
    p = Poly._raw(RING2, candidate, phi._den)
    return p if expand_bivariate(p) == phi else None


def inverse_nagata(p: Poly) -> PolyEndo:
    """Explicit inverse of the map built from phi = p(x*z + y^2, z): the
    map built from -phi, that is (x + 2*y*phi - z*phi^2, y - z*phi, z).

    It is written in closed form from p.  Since phi^2 = p^2(x*z + y^2, z),
    only p is squared: a symmetric square of its k terms in (t1, t2),
    about k^2/2 pairs, where squaring phi's n >= k terms takes n^2/2.
    The binomial theorem then expands each term of p^2 on its own, as in
    ``expand_bivariate``.  With -phi = num/den, f and g are written
    straight over den^2 and den, and no two terms of f meet: the y*phi
    terms have odd y-exponents, the z*phi^2 terms even ones and a z, and
    x has no y and no z.  So only a coefficient of p^2 that cancels gives
    a zero, which ``Poly._raw`` drops.  The result keeps -phi, so that
    ``compose`` applies the group law to it.
    """
    neg = -expand_bivariate(p)
    num, den = neg._coeffs, neg._den
    square: dict[tuple[int, int], int] = {}
    get = square.get
    items = list(p._coeffs.items())
    for j, ((k1, m1), c1) in enumerate(items):
        e = (2 * k1, 2 * m1)
        square[e] = get(e, 0) + c1 * c1
        for (k2, m2), c2 in items[j + 1:]:
            e = (k1 + k2, m1 + m2)
            square[e] = get(e, 0) + 2 * c1 * c2
    comb = math.comb
    f = {(i, 2 * (k - i), i + m + 1): -s * comb(k, i)
         for (k, m), s in square.items() for i in range(k + 1)}
    for (a, b, c), n in num.items():
        f[(a, b + 1, c)] = -2 * den * n
    f[(1, 0, 0)] = den * den
    g = {(a, b, c + 1): n for (a, b, c), n in num.items()}
    g[(0, 1, 0)] = den
    endo = PolyEndo(Poly._raw(RING3, f, den * den), Poly._raw(RING3, g, den), Z)
    object.__setattr__(endo, "phi", neg)
    return endo


def compose(outer: PolyEndo, inner: PolyEndo) -> PolyEndo:
    """Componentwise substitution of inner into outer, fully expanded.

    When both maps carry a phi and outer's phi = a has a representative,
    the result is the map of a + b, where b is inner's phi (the group law
    in the module docstring).  That holds for any b, since every map of
    the family leaves a = p(x*z + y^2, z) unchanged, and no component is
    substituted.  a has a representative exactly when D(a) = 0, so the
    one-pass ``pde_residual`` decides it; ``classify`` relies on the same
    equivalence.  Every other pair, an outer phi with no representative
    included, is substituted componentwise.  Only the first path's result
    carries a phi.
    """
    if (inner.phi is not None and outer.phi is not None
            and pde_residual(outer.phi).is_zero()):
        return build_nagata(outer.phi + inner.phi).endo
    return PolyEndo(*(component.substitute(*inner) for component in outer))


def milnor_certificate(phi: Poly) -> MilnorCertificate:
    """Certificate that <f,g,h> = <x,y,z>:

        x = 1*f + 2*phi*g - phi^2*h
        y = 0*f + 1*g    - phi*h

    Both identities are verified by expansion before returning; failure
    indicates an arithmetic bug, not a property of phi.
    """
    f, g, h = build_nagata(phi).endo
    one = Poly.constant(RING3, 1)
    zero = Poly.zero(RING3)
    x_comb = (one, 2 * phi, -phi ** 2)
    y_comb = (zero, one, -phi)
    for (a, b, c), target in ((x_comb, X), (y_comb, Y)):
        if a * f + b * g + c * h != target:
            raise RuntimeError(f"certificate for {target} failed verification; arithmetic bug")
    return MilnorCertificate(x_combination=x_comb, y_combination=y_comb)
