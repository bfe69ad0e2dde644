"""The package's public surface: ``nagata.__all__`` and what it binds."""

import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
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
    (nagata.kernel_oracle(0), "degree"),
    # a NamedTuple field is a class attribute, so the class pins it too
    (nagata.KernelOracleResult, "degree"),
])
def test_removed_members_are_absent(owner, name):
    assert not hasattr(owner, name)


RECORDS = ["Classification", "DeformationReport", "JacobianReport",
           "KernelOracleResult", "LojReport", "MilnorCertificate", "NagataMap",
           "PolyEndo"]


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples(name):
    record = getattr(nagata, name)
    assert issubclass(record, tuple)
    assert record._fields


def test_records_unpack_and_compare_as_tuples():
    phi = nagata.X * nagata.Z + nagata.Y ** 2
    nagata_map = nagata.build_nagata(phi)
    assert tuple(nagata_map) == (phi, nagata_map.endo)
    assert nagata.loj_exponent(nagata.T1) == (2, 5, Fraction(1, 5))


def test_cli_import_loads_no_dataclasses():
    """A CLI call is a fresh process that first imports nagata.cli, so its
    import stays clear of dataclasses and the inspect module it pulls in."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nagata.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-I", "-c", code, src],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
