import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from nagata import (
    DEGREE_BOUND,
    Poly,
    PolyEndo,
    X,
    Y,
    Z,
    build_nagata,
    compose,
    expand_bivariate,
    inverse_nagata,
    parse_poly2,
    parse_poly3,
)
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

    def test_oversized_sum_exits_two_with_a_position(self, capsys):
        # three coprime 1000-digit denominators: before sums were bounded,
        # the inverse's phi^2 failed to print (Python's 4300-digit limit)
        # with no position
        phi = f"1/{10 ** 999 + 7}*z + 1/{10 ** 999 + 9}*z + 1/{10 ** 999 + 13}*z"
        code, out, err = invoke(capsys, "analyze", phi)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("at position 1006\n")

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
        ("2y, y, z", 2),  # in the first part, which starts the argument
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

    def test_failed_self_check_exits_three(self, capsys, monkeypatch):
        # the tame factors of phi = z no longer compose to its map
        monkeypatch.setattr(importlib.import_module("nagata.classify"), "compose",
                            lambda outer, inner: PolyEndo(X, Y, Z))
        assert invoke(capsys, "analyze", "z") == (
            3, "", "internal error: RuntimeError: tame factorization failed verification; "
            "arithmetic bug\n")


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
        (["analyze", "x", "y"], 2),
        (["analyze", "-y^2"], 2),
        (["loj", "t1", "--json", "t2"], 2),
    ], ids=["no-subcommand", "unknown-subcommand", "oracle", "oracle-x", "help",
            "analyze-h", "unrecognized", "leading-minus", "loj-optional-positional"])
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

    # "oracle -1" parses (argparse reads -1 as a number) and is refused by
    # the package; "--dvmax=5" and the prefix "--js" are argparse's own forms
    @pytest.mark.parametrize("argv", [
        ["oracle", "-1"],
        ["random", "--dvmax=5"],
        ["analyze", "x", "--js"],
        ["analyze", "--", "-y^2"],
        ["analyze", "--json", "x"],
        ["loj", "t1"],
        ["loj", "t1", "t2", "--json"],
        ["random", "--seed", "3", "--json", "--dvmax", "4"],
        ["compose", "x, y, z", "x, y, z"],
    ])
    def test_accepted_argv_gives_a_fresh_parsers_namespace(self, monkeypatch, argv):
        seen = []

        def handler(args):
            seen.append(args)
            return 0, {}, []

        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", handler)
        assert run(argv) == 0
        assert seen == [cli._build_parser.__wrapped__().parse_args(argv)]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 400, 2 ** 400)
    | st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF)),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """--json documents are written by cli._json_text, which must give the
    bytes of json.dumps(document, indent=2)."""

    @given(json_values)
    @example(["a", {"b": 1}, "c"])
    @example([{"b": []}, "a"])
    @example(["a", ["b", {}], [], {}])
    @example({"é\x00\n\u2028\ud800": "\x1f\"\\", "": [True, 1, False, 0, -(2 ** 300)]})
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    def test_a_list_of_strings_is_quoted_in_one_pass(self, monkeypatch):
        calls = []
        original = cli._json_text

        def counted(value, *indent):
            calls.append(value)
            return original(value, *indent)

        monkeypatch.setattr(cli, "_json_text", counted)
        value = {"a": ["x", "y", "z"], "b": [["u", "v"]]}
        assert cli._json_text(value) == json.dumps(value, indent=2)
        # the dict, its two lists and the inner list; no string on its own
        assert calls == [value, value["a"], value["b"], value["b"][0]]

    def test_oracle_30_bytes(self, capsys):
        assert run(["oracle", "30", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        1.5, (1,), {"a": 0.0}, ["a", 1.0], ["a", ("b",)], {"a": {1}}, {1: "a"},
    ])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


WILD_PHI = "3/2*x^2*z^2 + 3*x*y^2*z + 3/2*y^4 + z"
SPOILED_PHI = WILD_PHI + " + x"  # NotAutomorphism
TAME_PHI = "z^2 + 3"


class TestEachPolynomialPrintedOnce:
    """The text lines are built from the payload's strings, so text mode
    prints no polynomial that --json does not."""

    @pytest.mark.parametrize("phi", [WILD_PHI, SPOILED_PHI, TAME_PHI],
                             ids=["wild", "spoiled", "tame"])
    def test_analyze_prints_each_polynomial_once(self, capsys, monkeypatch, phi):
        printed = []
        original = Poly.__str__

        def counted(self):
            printed.append(self)  # held, so no id is reused
            return original(self)

        monkeypatch.setattr(Poly, "__str__", counted)
        # the shared coordinates are one object each wherever they appear,
        # e.g. as the h of the inverse and of both tame factors
        shared = {id(X), id(Y), id(Z)}
        counts = []
        for extra in ([], ["--json"]):
            printed.clear()
            run(["analyze", phi, *extra])
            ids = [id(p) for p in printed]
            assert all(ids.count(i) == 1 for i in ids if i not in shared)
            counts.append(len(printed))
        capsys.readouterr()
        assert counts[0] == counts[1] > 0

    def test_ordered_terms_and_hash_are_not_needed(self, capsys, monkeypatch):
        # nothing on these paths lists terms in order or hashes a Poly
        def refuse(self):
            raise AssertionError("Poly.terms() or hash(Poly) called")

        monkeypatch.setattr(Poly, "terms", refuse)
        monkeypatch.setattr(Poly, "__hash__", refuse)
        unknown = "x*z + y^2 + z^3"  # AutomorphismTamenessUnknown
        for phi, code in [(WILD_PHI, 0), (TAME_PHI, 0), (unknown, 0), (SPOILED_PHI, 1)]:
            assert run(["analyze", phi, "--json"]) == code
        assert run(["oracle", "12", "--json"]) == 0
        capsys.readouterr()
        p = parse_poly2("3/2*t1^2 - t1*t2^2 + t2^3 + 2")
        endo, inverse = build_nagata(expand_bivariate(p)).endo, inverse_nagata(p)
        assert compose(endo, inverse) == PolyEndo(X, Y, Z)
        assert compose(inverse, endo) == PolyEndo(X, Y, Z)

    @pytest.mark.parametrize("phi", [WILD_PHI, TAME_PHI, "x*z + y^2 + z^3"],
                             ids=["wild", "tame", "unknown"])
    def test_analyze_builds_the_inverse_without_squaring_phi(self, capsys, monkeypatch, phi):
        # the inverse comes from the representative; build_nagata(-phi)
        # would square phi, and only the tame factors may build phi's map
        built = []
        original = build_nagata

        def recording(value):
            built.append(value)
            return original(value)

        for name in ("cli", "classify", "lojasiewicz", "maps"):
            module = importlib.import_module("nagata." + name)
            if hasattr(module, "build_nagata"):
                monkeypatch.setattr(module, "build_nagata", recording)
        assert run(["analyze", phi, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["inverse"] is not None
        assert built == ([parse_poly3(phi)] if phi == TAME_PHI else [])

    def test_oracle_json_builds_no_kernel_polynomials(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel polynomial built for --json")

        monkeypatch.setattr(cli, "Poly", refuse)
        assert run(["oracle", "12", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True
        # the probe is live: the text output builds each kernel polynomial
        assert run(["oracle", "2"]) == 3
        assert "kernel polynomial built for --json" in capsys.readouterr().err
