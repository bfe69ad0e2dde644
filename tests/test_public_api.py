"""The package's public surface: ``nagata.__all__`` and what it binds."""

import importlib
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import nagata

# the module; the package attribute nagata.classify is the function
CLASSIFY = importlib.import_module("nagata.classify")

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
    "kernel_oracle", "loj_exponent", "milnor_certificate", "parse_poly2",
    "parse_poly3", "pde_residual", "random_poly2", "solution_basis",
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
    "leading_minors", "leading_minor_closed_forms", "random_poly3",
])
def test_removed_names_are_absent(name):
    for module in (nagata, nagata.maps, nagata.pde, nagata.poly, nagata.randgen, CLASSIFY):
        assert not hasattr(module, name)


@pytest.mark.parametrize("owner, name", [
    (CLASSIFY, "MINOR_NAMES"),
    (nagata.Poly, "constant_value"),
    (nagata.Poly, "coefficient"),
    (nagata.Poly, "homogeneous_components"),
    (nagata.kernel_oracle(0), "degree"),
    # a namedtuple field is a class attribute, so the class pins it too
    (nagata.KernelOracleResult, "degree"),
    (nagata.Poly, "evaluate"),
    (nagata.PolyEndo, "evaluate"),
    (nagata.PolyEndo, "identity"),
    (nagata.KernelOracleResult, "polynomials"),
    (nagata.KernelOracleResult, "dimension"),
    # a verdict is the schema-1 string itself, no longer an Enum member
    (nagata.Verdict.WILD_AUTOMORPHISM, "value"),
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


@pytest.mark.parametrize("name", ["Classification", "KernelOracleResult",
                                  "MilnorCertificate", "NagataMap", "PolyEndo"])
def test_documented_records_keep_their_docstrings(name):
    doc = getattr(nagata, name).__doc__
    # not namedtuple's generated "Name(field, ...)" text
    assert doc and not re.match(r"\w+\(", doc)


def test_classification_defaults_its_evidence_to_none():
    verdict = nagata.Verdict.NOT_AUTOMORPHISM
    record = nagata.Classification(verdict, nagata.X)
    assert record == (verdict, nagata.X, None, None, None, None)
    assert record.tame_factors is None


def test_deformation_report_orders_its_exponents():
    report = nagata.deformation_compare(nagata.T1, nagata.T1 + nagata.T1 ** 2)
    assert (report.ordering, report.monotone) == ("<", True)
    report = nagata.deformation_compare(nagata.T1, nagata.T1 + nagata.T2)
    assert (report.ordering, report.monotone) == ("=", True)
    rising = nagata.DeformationReport(report.base, nagata.LojReport(0, 1, Fraction(1)))
    assert (rising.ordering, rising.monotone) == ("<", False)


def test_verdicts_are_the_schema_strings():
    verdict = nagata.Verdict
    assert [verdict.NOT_AUTOMORPHISM, verdict.WILD_AUTOMORPHISM, verdict.TAME_AUTOMORPHISM,
            verdict.AUTOMORPHISM_TAMENESS_UNKNOWN] == [
        "NotAutomorphism", "WildAutomorphism", "TameAutomorphism",
        "AutomorphismTamenessUnknown"]
    phi = nagata.X * nagata.Z + nagata.Y ** 2
    assert nagata.classify(phi).verdict is verdict.WILD_AUTOMORPHISM


def test_records_unpack_and_compare_as_tuples():
    phi = nagata.X * nagata.Z + nagata.Y ** 2
    nagata_map = nagata.build_nagata(phi)
    assert tuple(nagata_map) == (phi, nagata_map.endo)
    assert nagata.loj_exponent(nagata.T1) == (2, 5, Fraction(1, 5))


# Run in a child under -S: a site that imports random, re or typing would
# hide them.  enum cannot be checked yet: re imports it, and nagata.cli
# imports re (ROADMAP item 22, second half).  The commands run in-process
# after the import, none of them one that computes an exponent, so none of
# them needs a Fraction.
CLI_IMPORT_CHILD = """
import io, sys
sys.path.insert(0, sys.argv[1])
import nagata.cli
ABSENT = {"dataclasses", "inspect", "json", "fractions", "decimal", "random",
          "argparse", "gettext", "typing"}
print(sorted(ABSENT & set(sys.modules)))
for argv in (["oracle", "5", "--json"], ["basis", "4"],
             ["invert", "t1^2 + 1/2*t2", "--json"],
             ["compose", "x + y^2, y, z", "x, y + z^2, z"],
             ["classify", "3/2*x^2*z^2 + 3*x*y^2*z + 3/2*y^4 + z"],
             ["decompose", "1/2*x*z + 1/2*y^2", "--json"], ["analyze", "x", "--json"]):
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = nagata.cli.run(argv)
    sys.stdout = stdout
    print(argv[0], code, sorted(ABSENT & set(sys.modules)))
"""


def test_cli_import_loads_only_what_every_call_needs():
    """A CLI call is a fresh process that first imports nagata.cli, so its
    import stays clear of dataclasses and the inspect module it pulls in,
    of json, whose quoter is read from _json, of fractions and the decimal
    it loads, of random, and of argparse and the gettext it loads, since
    run reads argv itself, and of typing, since the records are
    collections.namedtuple classes; and a command that makes no Fraction
    loads none of them after the import either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", CLI_IMPORT_CHILD, src],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "[]", "oracle 0 []", "basis 0 []", "invert 0 []", "compose 0 []",
        "classify 0 []", "decompose 0 []", "analyze 1 []",
    ]
