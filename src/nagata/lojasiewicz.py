"""Lojasiewicz exponents at infinity for Nagata-type automorphisms.

For a polynomial automorphism F the exponent equals 1/deg(F^-1).  Here
the inverse is explicit, so the exponent is computed from the measured
degree of the constructed inverse and then cross-checked against the
closed form 2*deg(phi) + 1, with deg(0) taken as 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .maps import PolyEndo, inverse_nagata
from .poly import Poly, RING2, _monomial_text

if TYPE_CHECKING:
    from fractions import Fraction


class LojReport(NamedTuple):
    phi_degree: int
    inverse_degree: int
    exponent: Fraction


class DeformationReport(NamedTuple):
    base: LojReport
    deformed: LojReport

    @property
    def ordering(self) -> str:
        return "=" if self.deformed.exponent == self.base.exponent else "<"

    @property
    def monotone(self) -> bool:
        return self.deformed.exponent <= self.base.exponent


def loj_exponent(p: Poly) -> LojReport:
    """Exponent 1/deg(inverse) of the automorphism built from
    phi = p(x*z + y^2, z), with the inverse degree measured, not assumed."""
    return _loj_report(inverse_nagata(p))


def _loj_report(inverse: PolyEndo) -> LojReport:
    """The report for the map of phi = p(x*z + y^2, z), from its inverse as
    ``inverse_nagata`` builds it, which carries -phi (of phi's degree)."""
    inverse_degree = max(component.total_degree() for component in inverse)
    phi_degree = 0 if inverse.phi.is_zero() else inverse.phi.total_degree()
    if inverse_degree != 2 * phi_degree + 1:
        raise RuntimeError("inverse degree formula violated; arithmetic bug")
    from fractions import Fraction
    return LojReport(
        phi_degree=phi_degree,
        inverse_degree=inverse_degree,
        exponent=Fraction(1, inverse_degree),
    )


def deformation_compare(p: Poly, p_s: Poly) -> DeformationReport:
    """Exponents of a polynomial and of a support-extending deformation.

    Requires supp(p) to be contained in supp(p_s); the exponent can then
    only drop, which is confirmed before returning.
    """
    missing = sorted(p.support() - p_s.support())
    if missing:
        monomial = _monomial_text(RING2, missing[0])
        raise ValueError(
            f"support containment violated: monomial {monomial} of the base "
            "polynomial is missing from the deformation"
        )
    report = DeformationReport(base=loj_exponent(p), deformed=loj_exponent(p_s))
    if not report.monotone:
        raise RuntimeError("deformation monotonicity violated; arithmetic bug")
    return report
