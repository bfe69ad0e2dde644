import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nagata import DEGREE_BOUND, parse_poly2, parse_poly3
from nagata import cli
from nagata.cli import DVMAX_BOUND, run

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestAnalyze:
    def test_classical_map(self, capsys):
        code, doc, _ = invoke_json(capsys, "analyze", "x*z + y^2")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["residual"] == "0"
        assert doc["jacobian_determinant"] == "1"
        assert doc["is_automorphism"] is True
        assert doc["representative"] == "t1"
        assert doc["classification"] == "WildAutomorphism"
        assert doc["lojasiewicz_exponent"] == "1/5"

    def test_non_automorphism_exits_one(self, capsys):
        code, doc, _ = invoke_json(capsys, "analyze", "x")
        assert code == 1
        assert doc["residual"] == "-2*y"
        assert doc["is_automorphism"] is False
        assert doc["representative"] is None
        assert doc["classification"] == "NotAutomorphism"

    def test_json_polynomials_round_trip(self, capsys):
        _, doc, _ = invoke_json(capsys, "analyze", "(x*z+y^2)^2 - 3*z")
        phi = parse_poly3(doc["phi"])
        assert phi == parse_poly3("(x*z+y^2)^2 - 3*z")
        assert parse_poly3(doc["residual"]) == 0
        from nagata import decompose, inverse_nagata

        p = decompose(phi)
        assert parse_poly2(doc["representative"]) == p
        inverse = inverse_nagata(p)
        assert parse_poly3(doc["inverse"]["f"]) == inverse.f
        assert parse_poly3(doc["inverse"]["g"]) == inverse.g

    def test_human_output_mentions_all_fields(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "x*z + y^2")
        assert code == 0
        for needle in ("residual: 0", "jacobian determinant: 1",
                       "automorphism: yes", "representative p: t1",
                       "classification: WildAutomorphism",
                       "lojasiewicz exponent: 1/5"):
            assert needle in out


class TestVerdictSubcommands:
    def test_decompose_present(self, capsys):
        code, doc, _ = invoke_json(capsys, "decompose", "z^4")
        assert code == 0
        assert doc["representative"] == "t2^4"

    def test_decompose_absent(self, capsys):
        code, doc, _ = invoke_json(capsys, "decompose", "x")
        assert code == 1
        assert doc["representative"] is None

    def test_classify_wild(self, capsys):
        code, doc, _ = invoke_json(capsys, "classify", "x*z + y^2")
        assert code == 0
        assert doc["verdict"] == "WildAutomorphism"
        assert doc["evidence"]["leading_form_t1_derivative"] == "1"

    def test_classify_tame_includes_factors(self, capsys):
        code, doc, _ = invoke_json(capsys, "classify", "z^3")
        assert code == 0
        assert doc["verdict"] == "TameAutomorphism"
        assert len(doc["evidence"]["tame_factors"]) == 2

    def test_classify_non_automorphism(self, capsys):
        code, doc, _ = invoke_json(capsys, "classify", "y")
        assert code == 1
        assert doc["evidence"]["residual"] == "z"


class TestAlgebraSubcommands:
    def test_invert(self, capsys):
        code, doc, _ = invoke_json(capsys, "invert", "t1")
        assert code == 0
        from nagata import T1, inverse_nagata

        inverse = inverse_nagata(T1)
        assert parse_poly3(doc["inverse"]["f"]) == inverse.f

    def test_compose_map_with_inverse(self, capsys):
        nagata_triple = ("x - 2*y*(x*z+y^2) - z*(x*z+y^2)^2,"
                         " y + z*(x*z+y^2), z")
        inverse_triple = ("x + 2*y*(x*z+y^2) - z*(x*z+y^2)^2,"
                          " y - z*(x*z+y^2), z")
        code, doc, _ = invoke_json(capsys, "compose", nagata_triple, inverse_triple)
        assert code == 0
        assert doc["result"] == {"f": "x", "g": "y", "h": "z"}

    def test_basis(self, capsys):
        code, out, _ = invoke(capsys, "basis", "2")
        assert code == 0
        assert out.splitlines() == ["y^2 + x*z", "z^2"]

    def test_oracle(self, capsys):
        code, doc, _ = invoke_json(capsys, "oracle", "4")
        assert code == 0
        assert doc["dimension"] == 3
        assert doc["verified"] is True
        assert len(doc["kernel_basis"]) == 3

    def test_loj_single(self, capsys):
        code, doc, _ = invoke_json(capsys, "loj", "t1")
        assert code == 0
        assert doc["exponent"] == "1/5"
        assert doc["inverse_degree"] == 5

    def test_loj_pair(self, capsys):
        code, doc, _ = invoke_json(capsys, "loj", "t1", "t1 + t2^5")
        assert code == 0
        assert doc["base"]["exponent"] == "1/5"
        assert doc["deformed"]["exponent"] == "1/11"
        assert doc["monotone"] is True


class TestErrorsAndReproducibility:
    def test_parse_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "analyze", "x + (")
        assert code == 2
        assert "position 5" in err

    def test_unknown_identifier_exits_two(self, capsys):
        code, _, err = invoke(capsys, "analyze", "t1")
        assert code == 2
        assert "t1" in err

    def test_loj_support_violation_exits_two(self, capsys):
        code, _, err = invoke(capsys, "loj", "t1", "t2")
        assert code == 2
        assert "support" in err

    def test_oracle_bound_exits_two(self, capsys):
        code, _, err = invoke(capsys, "oracle", "101")
        assert code == 2
        assert "bound" in err

    @pytest.mark.parametrize("argv", [
        ["basis", str(DEGREE_BOUND + 1)],
        ["basis", "3000"],
    ])
    def test_basis_bound_exits_two(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: degree {argv[1]} exceeds the degree bound {DEGREE_BOUND}\n"

    def test_degree_bound_is_admitted(self, capsys):
        code, doc, _ = invoke_json(capsys, "oracle", str(DEGREE_BOUND))
        assert code == 0
        assert doc["dimension"] == DEGREE_BOUND // 2 + 1
        assert doc["verified"] is True

    def test_max_degree_flag_is_gone(self, capsys):
        code, _, err = invoke(capsys, "oracle", "5", "--max-degree", "5")
        assert code == 2
        assert "--max-degree" in err

    def test_deep_nesting_exits_two(self, capsys):
        code, out, err = invoke(capsys, "analyze", "(" * 2000 + "x" + ")" * 2000)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested deeper than 100" in err

    def test_long_numeral_exits_two(self, capsys):
        code, out, err = invoke(capsys, "analyze", "1" * 5000)
        assert code == 2
        assert out == ""
        assert err == "error: numeral longer than 1000 digits at position 1\n"

    @pytest.mark.parametrize("phi, line", [
        ("9^5000", "'^' may give a coefficient above 2^4096 at position 2"),
        ("(x+1)^99999", "'^' may give a coefficient above 2^4096 at position 6"),
        ("(x+y+z+1)^17", "'^' may give more than 1000 terms at position 10"),
        ("2^4096*2", "'*' may give a coefficient above 2^4096 at position 7"),
        ("((z^" + "9" * 999 + ")^" + "9" * 999 + ")^9",
         "'^' may give a degree of more than 1000 digits at position 1005"),
    ], ids=["9^5000", "binomial", "trinomial-terms", "product", "degree"])
    def test_oversized_power_or_product_exits_two(self, capsys, phi, line):
        # before the size check, "9^5000" parsed and then failed to print
        # (Python's 4300-digit limit) with no position, and so did a degree
        # of more than 4300 digits
        assert invoke(capsys, "analyze", phi) == (2, "", f"error: {line}\n")

    def test_power_at_the_bit_limit_prints(self, capsys):
        # the inverse holds phi^2, a coefficient of 8193 bits (2467 digits)
        code, doc, err = invoke_json(capsys, "analyze", "2^4096")
        assert code == 0 and err == ""
        assert doc["phi"] == str(2 ** 4096)
        assert doc["inverse"]["f"] == f"x + {2 ** 4097}*y - {2 ** 8192}*z"

    @pytest.mark.parametrize("outer, position", [
        ("x, y, z+", 8),
        ("x, y+, z", 5),
        ("x,  y*y, 2z", 11),
        ("x^2 + 1, (y, z", 11),  # end of the second part, at its "y"
    ])
    def test_compose_error_position_is_within_the_argument(self, capsys, outer, position):
        # the position of the offending character in the whole argument
        code, out, err = invoke(capsys, "compose", outer, "x, y, z")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" at position {position}" in err

    @pytest.mark.parametrize("inner, name, position", [
        ("x, t1, z", "t1", 4),
        ("x, y, z + w", "w", 11),
    ])
    def test_compose_unknown_identifier_position(self, capsys, inner, name, position):
        code, out, err = invoke(capsys, "compose", "x, y, z", inner)
        assert code == 2
        assert out == ""
        assert err == (f"error: unknown identifier {name!r} at position {position} "
                       "(expected x, y, z)\n")

    def test_unknown_subcommand_exits_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_random_is_seed_reproducible(self, capsys):
        code1, out1, _ = invoke(capsys, "random", "--dvmax", "6", "--seed", "42", "--json")
        code2, out2, _ = invoke(capsys, "random", "--dvmax", "6", "--seed", "42", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["analysis"]["is_automorphism"] is True

    def test_random_different_seeds_differ(self, capsys):
        _, out1, _ = invoke(capsys, "random", "--seed", "1")
        _, out2, _ = invoke(capsys, "random", "--seed", "2")
        assert out1 != out2

    def test_random_dvmax_bound_is_admitted(self, capsys):
        assert DVMAX_BOUND == 20
        code, doc, err = invoke_json(capsys, "random", "--dvmax", "20", "--seed", "1")
        assert code == 0
        assert doc["dvmax"] == 20
        assert err == ""

    def test_random_dvmax_above_bound_exits_two(self, capsys):
        code, out, err = invoke(capsys, "random", "--dvmax", "21", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: dvmax 21 exceeds the bound 20\n"


class TestInternalError:
    """Exit 1 is a negative verdict and nothing else: any exception other
    than a ValueError is an internal error, exit 3, with one stderr line."""

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("certificate for x failed verification; arithmetic bug"),
         "internal error: RuntimeError: certificate for x failed verification; "
         "arithmetic bug\n"),
        (MemoryError(), "internal error: MemoryError\n"),
        (RecursionError("maximum recursion depth exceeded"),
         "internal error: RecursionError: maximum recursion depth exceeded\n"),
    ])
    def test_unexpected_exception_exits_three(self, capsys, monkeypatch, exc, line):
        def crash(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_analyze", crash)
        code, out, err = invoke(capsys, "analyze", "x*z + y^2", "--json")
        assert code == 3
        assert out == ""
        assert err == line

    def test_value_error_still_exits_two(self, capsys, monkeypatch):
        def refuse(args):
            raise ValueError("bad input")

        monkeypatch.setattr(cli, "_cmd_analyze", refuse)
        assert invoke(capsys, "analyze", "x") == (2, "", "error: bad input\n")


class TestClosedStdout:
    """A reader that goes away is not a verdict: the command's own exit
    code comes back, and nothing is written to stderr."""

    @pytest.mark.parametrize("argv, expected", [
        (["oracle", "12", "--json"], 0),
        (["basis", "40", "--json"], 0),
        (["analyze", "x"], 1),
    ])
    def test_exit_code_is_the_commands_own(self, argv, expected):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child starts, so before it writes
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nagata", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert done.returncode == expected
        assert done.stderr == b""


class TestOneParserPerProcess:
    """run builds its argparse parser once per process, on the first call,
    and reuses it; the handler is looked up by command name at call time."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_import_does_not_build_the_parser(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import nagata.cli as c; print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.stdout == "0\n"

    def test_optional_positional_does_not_leak(self, capsys):
        code, out, _ = invoke(capsys, "loj", "t1*t2", "t1*t2 + t1")
        assert code == 0 and out.startswith("base exponent: ")
        assert invoke(capsys, "loj", "t1*t2") == (
            0, "phi degree: 3\ninverse degree: 7\nlojasiewicz exponent: 1/7\n", "")

    def test_option_defaults_do_not_leak(self, capsys):
        code, doc, _ = invoke_json(capsys, "random", "--seed", "5", "--dvmax", "4")
        assert code == 0 and (doc["seed"], doc["dvmax"]) == (5, 4)
        code, doc, _ = invoke_json(capsys, "random")
        assert code == 0 and (doc["seed"], doc["dvmax"]) == (0, 6)

    @pytest.mark.parametrize("argv, expected", [
        ([], 2),
        (["frobnicate"], 2),
        (["oracle"], 2),
        (["oracle", "x"], 2),
        (["--help"], 0),
        (["analyze", "-h"], 0),
    ], ids=["no-subcommand", "unknown-subcommand", "oracle", "oracle-x", "help",
            "analyze-h"])
    def test_argparse_exits_repeat_and_match_a_fresh_parser(self, capsys, argv, expected):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        with pytest.raises(SystemExit) as info:
            cli._build_parser.__wrapped__().parse_args(argv)
        captured = capsys.readouterr()
        fresh = (info.value.code, captured.out, captured.err)
        assert first == second == fresh
        assert first[0] == expected
        assert first[1 if expected == 0 else 2].startswith("usage: nagata")
