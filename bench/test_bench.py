"""Tests of the benchmark itself: python -m pytest bench

They check the generator, the reference answers, the failure accounting
and the tracer, not the speed of the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import corpus
import run
import workloads
from tracing import Tracer

nagata = run.load_package()
from nagata.poly import RING2, RING3, Poly  # noqa: E402 - needs load_package


def test_generator_is_deterministic_per_seed():
    for make in (corpus.analyze_corpus, corpus.inverse_corpus, corpus.oracle_corpus):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_shapes_do_not_depend_on_the_seed():
    def shape(p):
        return sorted((e, c.denominator) for e, c in p.items())

    first, second = corpus.inverse_corpus(1), corpus.inverse_corpus(2)
    assert sorted(map(shape, first)) == sorted(map(shape, second))
    assert len(workloads.analyze_ops(nagata, 1)[0]) == len(workloads.analyze_ops(nagata, 2)[0])


def test_render_matches_the_package_printer_and_read_inverts_it():
    for case in corpus.analyze_corpus(3):
        poly = Poly(RING3, case.phi)
        assert case.phi_text == str(poly)
        assert corpus.read(str(poly), RING3) == case.phi
    for p in corpus.inverse_corpus(3):
        assert corpus.read(str(Poly(RING2, p)), RING2) == p


def test_classical_fixture():
    case = corpus.analyze_case({(1, 0): Fraction(1)}, None)
    assert case.phi_text == "y^2 + x*z"
    assert case.p == {(1, 0): 1}
    assert case.verdict == corpus.WILD
    assert case.exponent == Fraction(1, 5)
    result = workloads.cli_call(nagata, ["analyze", case.phi_text, "--json"])
    assert workloads.check_analyze(case, result) is None
    assert json.loads(result[1])["representative"] == "t1"


@pytest.mark.parametrize("p, verdict, exponent", [
    ({}, corpus.TAME, 1),
    ({(0, 3): Fraction(2)}, corpus.TAME, Fraction(1, 7)),
    ({(0, 4): Fraction(1), (1, 0): Fraction(-3)}, corpus.UNKNOWN, Fraction(1, 9)),
    ({(2, 1): Fraction(1, 2), (0, 5): Fraction(1)}, corpus.WILD, Fraction(1, 11)),
])
def test_references_agree_with_the_cli(p, verdict, exponent):
    case = corpus.analyze_case(p, None)
    assert (case.verdict, case.exponent) == (verdict, exponent)
    assert workloads.check_analyze(
        case, workloads.cli_call(nagata, ["analyze", case.phi_text, "--json"])) is None
    spoiled = corpus.analyze_case(p, {(1, 1, 0): Fraction(3)})
    assert spoiled.verdict == corpus.NOT_AUTO and spoiled.residual
    assert workloads.check_analyze(
        spoiled, workloads.cli_call(nagata, ["analyze", spoiled.phi_text, "--json"])) is None


def test_checks_catch_wrong_answers():
    case = corpus.analyze_case({(1, 0): Fraction(1)}, None)
    code, out, err = workloads.cli_call(nagata, ["analyze", case.phi_text, "--json"])
    wrong = out.replace('"1/5"', '"1/7"')
    assert workloads.check_analyze(case, (code, wrong, err)) == workloads.WRONG_ANSWER
    assert workloads.check_analyze(case, (1, out, err)) == workloads.WRONG_EXIT
    assert workloads.check_analyze(case, (0, "not json", err)) == workloads.WRONG_ANSWER
    assert workloads.check_oracle(4, workloads.cli_call(nagata, ["oracle", "5", "--json"])) \
        == workloads.WRONG_ANSWER
    assert workloads.check_roundtrip([(nagata.poly.X, nagata.poly.Y, nagata.poly.X)]) \
        == workloads.WRONG_ANSWER


def test_oracle_dimensions():
    for d in range(9):
        assert corpus.oracle_dimension(d) == d // 2 + 1
        result = workloads.cli_call(nagata, ["oracle", str(d), "--json"])
        assert workloads.check_oracle(d, result) is None


def test_leading_minus_input_is_recorded_as_refused():
    case = corpus.analyze_case({}, {(1, 0, 0): Fraction(-1)})
    assert case.phi_text == "-x"
    assert corpus.refused_by_argparse("-x")
    assert corpus.refused_by_argparse("-3*x^2*z")
    assert corpus.refused_by_argparse("-1/2")
    assert not corpus.refused_by_argparse("-3")
    assert not corpus.refused_by_argparse("-x - y")
    op = workloads.Op(
        run=lambda: workloads.cli_call(nagata, ["analyze", case.phi_text, "--json"]),
        check=lambda result: workloads.check_analyze(case, result),
    )
    outcomes, failures = run.run_known_defects([op])
    assert outcomes == {"refused": 1} and not failures
    refused = [c for c in corpus.analyze_corpus(1) if corpus.refused_by_argparse(c.phi_text)]
    timed, known = workloads.analyze_ops(nagata, 1)
    assert refused and len(known) == len(refused)
    assert len(timed) + len(known) == len(corpus.analyze_corpus(1))


def _bindings():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "nagata" or name.startswith("nagata.")]
    owners.append(nagata.poly.Poly)
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_untracing_restores_every_patched_attribute():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert nagata.cli.classify is not before[(id(nagata.cli), "classify")]
        assert sys.modules["nagata.classify"].pde_residual is nagata.maps.pde_residual
        assert {"cli.run", "poly.mul", "maps.compose", "pde.kernel_oracle"} <= tracer.names
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert any(during[key] is not before[key] for key in before)


def _traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        m = run.measure(ops, 0, tracer=tracer, max_passes=1)
    finally:
        tracer.remove()
    assert not m.failures
    assert tracer.self_time_total_ns() == tracer.op_ns
    metrics = tracer.layer_metrics()
    return {name: metrics[name] for name in (
        "poly.mul.term_pairs", "poly.expand_bivariate.calls_per_op",
        "pde.kernel_oracle.calls_per_op", "maps.pde_residual.calls_per_op")}


def test_exact_counts_repeat_and_self_times_add_up():
    ops = workloads.analyze_ops(nagata, 5)[0][:12] + workloads.oracle_ops(nagata, 5)[:13]
    ops = [op for op in ops if op.sizes.get("d", 0) <= 8]
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert first == second
    assert first["poly.mul.term_pairs"] > 0
    assert first["pde.kernel_oracle.calls_per_op"] > 0


def test_inverse_roundtrip_ops_pass():
    ops = workloads.inverse_ops(nagata, 2)
    light = [op for op in ops if op.sizes["t1_degree"] < 2][:10]
    m = run.measure(light, 0, max_passes=1)
    assert not m.failures and len(m.best_times()) == len(light)


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
