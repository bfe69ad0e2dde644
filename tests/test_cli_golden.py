"""Byte-for-byte pins of the CLI contract.

Every call below runs in-process twice, as text and with ``--json``.
``cli_golden.json`` holds, for each run, the exit code and the sha256 of
stdout and of stderr.  The hashes pin every byte of the text and JSON
output, including error messages and their positions, so that a refactor
or an optimisation can show it kept behaviour by keeping every hash; a
change that means to alter the output must say so and re-record them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nagata import jacobian_report, parse_poly3, pde_residual
from nagata.cli import run

WILD = [
    "x*z + y^2",
    "(x*z+y^2)^2",
    "(x*z+y^2)^3 - z",
    "(x*z+y^2)^2 + (x*z+y^2)*z^2 - z^3",
    "2/3*(x*z+y^2) + z^5",
    "(x*z+y^2)*z",
    "1/2*(x*z + y^2)^2 - 7/3*z^3 + 1",
    "9*y^2*z^3 + 9*x*z^4 - 3*y^2*z^2 - 3*x*z^3 - 5*z^3 - 5*z^2 - 2*z + 4",
    "7*y^4*z + 14*x*y^2*z^2 + 7*x^2*z^3 + 9*y^2*z^3 + 9*x*z^4 + 4*y^4"
    " + 8*x*y^2*z + 4*x^2*z^2 + 2*z^3 + 9*z^2 - 9*z - 4",
    "9*y^2*z^2 + 9*x*z^3 - 5*z^3 - 4*z^2 - z",
    "3*y^2*z^3 + 3*x*z^4 + z^4 + 6*y^2*z + 6*x*z^2 - 4*z^3 - 2",
]

TAME = [
    "0",
    "1",
    "7/2",
    "3",
    "z",
    "z^3",
    "2/5*z^2 - z + 1/3",
    "3*z^4 + z",
    "(z - 1)^3",
    "1/9*z^6 + 4/7",
]

UNKNOWN = [
    "z^3 + x*z + y^2",
    "z^5 + (x*z+y^2)^2",
    "z^7 - 1/2*(x*z+y^2)^3 + z",
    "3*z^5 - 2*y^4 - 4*x*y^2*z - 2*x^2*z^2 - 2*y^2*z - 2*x*z^2 - 7*z^3 + 9",
    "5*z^5 - 3*y^4 - 6*x*y^2*z - 3*x^2*z^2 + 6*z^4 + 7*z^3 - 9",
]

SPOILED = [
    "x",
    "y",
    "x + y",
    "x*y",
    "x^2",
    "y^3 - z",
    "x*z + y^2 + x",
    "(x*z+y^2)^2 + y*z",
    "z^3 + y",
    "7*x*z - 9*y + 7*z + 9",
    "2*x + 2",
    "4*x",
]

MALFORMED = ["x +", "2y", "w", "(x", "x)", "x^", "1/0", "x^y", ""]

NAGATA = "x - 2*y*(x*z+y^2) - z*(x*z+y^2)^2, y + z*(x*z+y^2), z"
NAGATA_INVERSE = "x + 2*y*(x*z+y^2) - z*(x*z+y^2)^2, y - z*(x*z+y^2), z"

CALLS = (
    [[command, phi]
     for phi in WILD + TAME + UNKNOWN + SPOILED
     for command in ("analyze", "classify", "decompose")]
    + [["analyze", text] for text in MALFORMED]
    + [["classify", "t1"], ["decompose", "t1 + t2"]]
    + [["random", "--seed", str(seed), "--dvmax", str(dvmax)]
       for seed in range(12) for dvmax in (4, 6, 8)]
    + [["invert", p] for p in (
        "t1", "t2", "0", "5", "t1^2 - t2^3 + t1*t2^2", "1/2*t1 + t2^2",
        "t1*t2", "x", "t1 +")]
    + [["loj", p] for p in ("t1", "t2^2", "0", "t1^3 - 2/3*t2", "t1*t2^4")]
    + [["loj", "t1", "t1 + t2^5"],
       ["loj", "t2^2", "t2^2 + t1^3"],
       ["loj", "t1^2", "t1^2 + t1*t2^2 - t2^3"],
       ["loj", "t1*t2", "t1"]]
    + [["compose", NAGATA, NAGATA_INVERSE],
       ["compose", NAGATA_INVERSE, NAGATA],
       ["compose", "x, y, z - x^2", "x + y, y, z"],
       ["compose", "x, y", "x, y, z"]]
    + [["basis", "4"], ["oracle", "5"]]
)

RUNS = [argv + flags for argv in CALLS for flags in ([], ["--json"])]

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_run():
    assert len(CALLS) >= 150
    assert [entry["argv"] for entry in GOLDEN] == RUNS


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_cli_output_unchanged(capsys, index):
    entry = GOLDEN[index]
    code = run(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (code, _digest(captured.out), _digest(captured.err)) == (
        entry["code"], entry["stdout"], entry["stderr"]
    ), entry["argv"]


@pytest.mark.parametrize("text", WILD + TAME + UNKNOWN + SPOILED)
def test_analyze_determinant_is_the_cofactor_determinant(capsys, text):
    # analyze prints 1 + residual; the cofactor expansion of jacobian_report
    # is the independent check of that identity
    phi = parse_poly3(text)
    determinant = jacobian_report(phi).determinant
    assert determinant == 1 + pde_residual(phi)
    run(["analyze", text, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["jacobian_determinant"] == str(determinant)
