"""The package's public surface: ``nagata.__all__`` and what it binds."""

import importlib
from types import ModuleType

import pytest

import nagata

# Pinned, so that a helper imported into the package does not become
# public unnoticed.
PUBLIC = [
    "Classification", "DEGREE_BOUND", "DeformationReport", "JacobianReport",
    "KernelOracleResult", "LojReport", "MilnorCertificate", "NagataMap",
    "ParseError", "Poly", "PolyEndo", "RING2", "RING3",
    "T1", "T2", "UnknownIdentifierError", "Verdict", "X", "Y",
    "Z", "build_nagata", "classify", "compose", "decompose",
    "deformation_compare", "expand_bivariate",
    "inverse_nagata", "jacobian", "jacobian_report",
    "kernel_oracle", "leading_minor_closed_forms", "leading_minors",
    "loj_exponent", "milnor_certificate", "parse_poly2", "parse_poly3",
    "pde_residual", "random_poly2", "random_poly3", "solution_basis",
    "verify_basis_against_oracle", "wild_by_leading_form",
]


def test_all_is_the_pinned_surface():
    assert sorted(nagata.__all__) == sorted(PUBLIC)


def test_every_name_is_an_attribute_and_not_a_module():
    assert len(set(nagata.__all__)) == len(nagata.__all__)
    for name in nagata.__all__:
        assert not isinstance(getattr(nagata, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from nagata import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nagata.__all__)


@pytest.mark.parametrize("name", [
    "jacobian_det", "check_homogeneous_split", "ComponentResidual", "NEG_INFINITY",
    "SolutionBasis", "invariant_monomials", "degree_monomials",
])
def test_removed_names_are_absent(name):
    for module in (nagata, nagata.maps, nagata.pde, nagata.poly):
        assert not hasattr(module, name)


@pytest.mark.parametrize("owner, name", [
    # nagata.classify is the function, so the module is imported by name
    (importlib.import_module("nagata.classify"), "MINOR_NAMES"),
    (nagata.Poly, "constant_value"),
    (nagata.Poly, "coefficient"),
    (nagata.Poly, "homogeneous_components"),
    # a dataclass field without a default is no class attribute, so the
    # field is looked up on an instance
    (nagata.kernel_oracle(0), "degree"),
])
def test_removed_members_are_absent(owner, name):
    assert not hasattr(owner, name)
