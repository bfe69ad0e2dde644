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

from enum import Enum
from typing import NamedTuple

from .maps import PolyEndo, build_nagata, compose, decompose, pde_residual
from .poly import Poly, X, Y, Z

WEIGHTS = (2, 1)  # grading under which t1 matches x*z + y^2 and t2 matches z


class Verdict(Enum):
    NOT_AUTOMORPHISM = "NotAutomorphism"
    WILD_AUTOMORPHISM = "WildAutomorphism"
    TAME_AUTOMORPHISM = "TameAutomorphism"
    AUTOMORPHISM_TAMENESS_UNKNOWN = "AutomorphismTamenessUnknown"


class Classification(NamedTuple):
    """Verdict plus the evidence that justifies it.  ``residual`` is set
    for every verdict; it is zero exactly for the automorphisms."""

    verdict: Verdict
    residual: Poly
    representative: Poly | None = None
    leading_form: Poly | None = None
    leading_form_t1_derivative: Poly | None = None
    tame_factors: tuple[PolyEndo, PolyEndo] | None = None


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
    return Classification(
        Verdict.WILD_AUTOMORPHISM if wild_by_leading_form(p)
        else Verdict.AUTOMORPHISM_TAMENESS_UNKNOWN,
        residual,
        representative=p,
        leading_form=lead,
        leading_form_t1_derivative=lead.partial("t1"),
    )


def leading_minors(phi: Poly) -> dict[str, Poly]:
    """All nine 2x2 Jacobian minors of the leading forms of the map.

    Key "fg_yz" means fbar_y * gbar_z - fbar_z * gbar_y, and so on.
    Constant phi is rejected: the map is then affine and its leading
    forms carry no information.
    """
    if phi.is_constant():
        raise ValueError("leading forms degenerate")
    endo = build_nagata(phi).endo
    bars = {"f": endo.f.leading_form(), "g": endo.g.leading_form(), "h": endo.h.leading_form()}
    axes = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}
    minors: dict[str, Poly] = {}
    for pair in ("fg", "gh", "fh"):
        p, q = bars[pair[0]], bars[pair[1]]
        for name, (u, v) in axes.items():
            minors[f"{pair}_{name}"] = p.partial(u) * q.partial(v) - p.partial(v) * q.partial(u)
    return minors


def leading_minor_closed_forms(phi: Poly) -> dict[str, Poly]:
    """Predicted minors from the leading forms (-z*lf^2, z*lf, z) of the
    map components, where lf is the leading form of phi.  Exact for any
    nonconstant phi."""
    if phi.is_constant():
        raise ValueError("leading forms degenerate")
    lf = phi.leading_form()
    lf_x = lf.partial("x")
    lf_y = lf.partial("y")
    zero = Poly.zero(phi.vars)
    return {
        "fg_xy": zero,
        "fg_yz": -Z * lf ** 2 * lf_y,
        "fg_xz": -Z * lf ** 2 * lf_x,
        "gh_xy": zero,
        "gh_yz": Z * lf_y,
        "gh_xz": Z * lf_x,
        "fh_xy": zero,
        "fh_yz": -2 * Z * lf * lf_y,
        "fh_xz": -2 * Z * lf * lf_x,
    }
