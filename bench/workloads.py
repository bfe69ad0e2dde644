"""The three workloads: what each operation calls and how it is checked.

Every operation goes through the package's public API, looked up on the
module at call time so that the tracer's wrappers are seen.  Each check
compares the output with the answer ``corpus`` knows by construction and
returns None or the cause of the failure.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import corpus

WORKLOADS = ("analyze_mix", "inverse_roundtrip", "oracle_sweep")

REFUSED = "refused"            # exit 2: usage or parse error
WRONG_EXIT = "wrong_exit"
WRONG_ANSWER = "wrong_answer"

_IDENTITY = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    sizes: dict = field(default_factory=dict)
    label: str = ""


def cli_call(nagata, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nagata.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _document(result, expected_code: int, command: str):
    """(JSON document, None) or (None, cause)."""
    code, out, _ = result
    if code == 2:
        return None, REFUSED
    if code != expected_code:
        return None, WRONG_EXIT
    try:
        doc = json.loads(out)
    except ValueError:
        return None, WRONG_ANSWER
    if not isinstance(doc, dict) or doc.get("schema") != 1 or doc.get("command") != command:
        return None, WRONG_ANSWER
    return doc, None


def check_analyze(case: corpus.AnalyzeCase, result) -> "str | None":
    auto = case.p is not None
    doc, cause = _document(result, 0 if auto else 1, "analyze")
    if cause:
        return cause
    try:
        ok = (
            corpus.read(doc["phi"], corpus.RING3) == case.phi
            and corpus.read(doc["residual"], corpus.RING3) == case.residual
            and doc["is_automorphism"] is auto
            and doc["classification"] == case.verdict
        )
        if ok and auto:
            ok = (corpus.read(doc["representative"], corpus.RING2) == case.p
                  and Fraction(doc["lojasiewicz_exponent"]) == case.exponent)
        elif ok:
            ok = doc["representative"] is None and doc["lojasiewicz_exponent"] is None
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        ok = False
    return None if ok else WRONG_ANSWER


def check_oracle(d: int, result) -> "str | None":
    doc, cause = _document(result, 0, "oracle")
    if cause:
        return cause
    ok = (doc.get("degree") == d
          and doc.get("dimension") == corpus.oracle_dimension(d)
          and doc.get("verified") is True)
    return None if ok else WRONG_ANSWER


def check_roundtrip(result) -> "str | None":
    for endo in result:
        if tuple(dict(c.terms()) for c in endo) != _IDENTITY:
            return WRONG_ANSWER
    return None


def analyze_ops(nagata, seed: int) -> tuple[list[Op], list[Op]]:
    """(timed ops, known-defect ops).  A phi the CLI front end refuses
    before analysis (see corpus.refused_by_argparse) is kept as generated
    but run apart from the timed loop, so its count stays visible and
    fixing the front end later does not change what is timed."""
    timed, known = [], []
    for case in corpus.analyze_corpus(seed):
        op = Op(
            run=lambda text=case.phi_text: cli_call(nagata, ["analyze", text, "--json"]),
            check=lambda result, case=case: check_analyze(case, result),
            sizes={"phi_chars": len(case.phi_text), "phi_terms": len(case.phi),
                   "d_v": case.d_v, "verdict": case.verdict},
            label=case.verdict,
        )
        (known if corpus.refused_by_argparse(case.phi_text) else timed).append(op)
    return timed, known


def inverse_ops(nagata, seed: int) -> list[Op]:
    ops = []
    for terms in corpus.inverse_corpus(seed):
        p = nagata.poly.Poly(nagata.poly.RING2, terms)

        def roundtrip(p=p):
            maps = nagata.maps
            endo = maps.build_nagata(nagata.poly.expand_bivariate(p)).endo
            inverse = maps.inverse_nagata(p)
            return maps.compose(endo, inverse), maps.compose(inverse, endo)

        ops.append(Op(
            run=roundtrip,
            check=check_roundtrip,
            sizes={"p_terms": len(terms), "d_v": corpus.weighted_degree(terms),
                   "t1_degree": max(k1 for k1, _ in terms),
                   "phi_terms": len(corpus.expand(terms))},
        ))
    return ops


def oracle_ops(nagata, seed: int) -> list[Op]:
    return [
        Op(
            run=lambda d=d: cli_call(nagata, ["oracle", str(d), "--json"]),
            check=lambda result, d=d: check_oracle(d, result),
            sizes={"d": d, "unknowns": (d + 1) * (d + 2) // 2},
        )
        for d in corpus.oracle_corpus(seed)
    ]


def build(nagata, workload: str, seed: int) -> tuple[list[Op], list[Op]]:
    """(timed ops, known-defect ops) for one workload and seed."""
    if workload == "analyze_mix":
        return analyze_ops(nagata, seed)
    if workload == "inverse_roundtrip":
        return inverse_ops(nagata, seed), []
    if workload == "oracle_sweep":
        return oracle_ops(nagata, seed), []
    raise ValueError(f"unknown workload {workload!r}")
