"""Wild/tame classification of Nagata-type maps.

Verdicts:

* NotAutomorphism — the residual -2*y*phi_x + z*phi_y is nonzero.
* WildAutomorphism — phi = p(x*z + y^2, z) and the (2,1)-weighted leading
  form of p has nonzero t1-derivative; the leading forms of the map are
  then (-z*lf^2, z*lf, z), which cannot come from a tame map.
* TameAutomorphism — p depends only on t2, so the map factors into two
  elementary automorphisms (verified by composition before returning).
* AutomorphismTamenessUnknown — an automorphism the leading-form test
  does not decide; the criterion is sufficient, not necessary, and we do
  not guess.
"""

from __future__ import annotations

from collections import namedtuple

from .maps import PolyEndo, build_nagata, compose, decompose, pde_residual
from .poly import Poly, X, Y, Z

WEIGHTS = (2, 1)  # grading under which t1 matches x*z + y^2 and t2 matches z


class Verdict:
    """The four verdicts, each the string that schema 1 prints."""

    NOT_AUTOMORPHISM = "NotAutomorphism"
    WILD_AUTOMORPHISM = "WildAutomorphism"
    TAME_AUTOMORPHISM = "TameAutomorphism"
    AUTOMORPHISM_TAMENESS_UNKNOWN = "AutomorphismTamenessUnknown"


class Classification(namedtuple(
        "Classification", "verdict residual representative leading_form "
        "leading_form_t1_derivative tame_factors", defaults=(None,) * 4)):
    """Verdict plus the evidence that justifies it.  ``residual`` is set
    for every verdict; it is zero exactly for the automorphisms."""

    __slots__ = ()


def wild_by_leading_form(p: Poly) -> bool:
    """Sufficient wildness test: the t1-derivative of the (2,1)-weighted
    leading form of p is nonzero.  False for p = 0 (the identity map)."""
    if p.is_zero():
        return False
    return not p.weighted_leading_form(WEIGHTS).partial("t1").is_zero()


def _tame_factorization(phi: Poly) -> tuple[PolyEndo, PolyEndo]:
    """For phi = p(z) the map (f, g, z) is the elementary automorphism
    (f, y, z) followed by the elementary automorphism (x, g, z), because
    the first leaves phi unchanged.  Verified by composition before
    returning."""
    target = build_nagata(phi).endo
    first = PolyEndo(target.f, Y, Z)
    second = PolyEndo(X, target.g, Z)
    if compose(second, first) != target:
        raise RuntimeError("tame factorization failed verification; arithmetic bug")
    return (first, second)


def classify(phi: Poly) -> Classification:
    residual = pde_residual(phi)
    if not residual.is_zero():
        return Classification(Verdict.NOT_AUTOMORPHISM, residual)
    p = decompose(phi)
    if p is None:
        raise RuntimeError(
            "zero residual but no bivariate representative; arithmetic bug"
        )
    lead = p.weighted_leading_form(WEIGHTS) if p else None
    if p.partial("t1").is_zero():
        # p has no t1, the zero polynomial included
        return Classification(
            Verdict.TAME_AUTOMORPHISM,
            residual,
            representative=p,
            leading_form=lead,
            tame_factors=_tame_factorization(phi),
        )
    # wild_by_leading_form(p), read off the form built above
    derivative = lead.partial("t1")
    return Classification(
        Verdict.AUTOMORPHISM_TAMENESS_UNKNOWN if derivative.is_zero()
        else Verdict.WILD_AUTOMORPHISM,
        residual,
        representative=p,
        leading_form=lead,
        leading_form_t1_derivative=derivative,
    )

