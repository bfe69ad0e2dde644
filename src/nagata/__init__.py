"""Exact symbolic toolkit for Nagata-type polynomial maps of Q[x,y,z]."""

from types import ModuleType as _ModuleType

from .classify import (
    Classification,
    Verdict,
    classify,
    wild_by_leading_form,
)
from .lojasiewicz import DeformationReport, LojReport, deformation_compare, loj_exponent
from .maps import (
    JacobianReport,
    MilnorCertificate,
    NagataMap,
    PolyEndo,
    build_nagata,
    compose,
    decompose,
    inverse_nagata,
    jacobian,
    jacobian_report,
    milnor_certificate,
    pde_residual,
)
from .parse import (
    ParseError,
    UnknownIdentifierError,
    parse_poly2,
    parse_poly3,
)
from .pde import (
    DEGREE_BOUND,
    KernelOracleResult,
    kernel_oracle,
    solution_basis,
    verify_basis_against_oracle,
)
from .poly import (
    Poly,
    RING2,
    RING3,
    T1,
    T2,
    X,
    Y,
    Z,
    expand_bivariate,
)
from .randgen import random_poly2

# The public names are the ones imported above; the submodules are not.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
