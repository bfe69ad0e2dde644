"""Command-line interface.

Every analysis is a subcommand; ``--json`` switches any of them to a
stable machine-readable schema (top-level ``"schema": 1``), in which all
polynomials appear as canonical re-parseable strings and all rationals
as strings like ``"1/5"``.

Exit codes: 0 on success; 1 on a negative domain verdict (analyze /
classify on a non-automorphism, decompose when no representative exists,
oracle on a span mismatch); 2 on usage, parse, or precondition errors,
including a ``basis`` or ``oracle`` degree above ``pde.DEGREE_BOUND`` and
a ``random --dvmax`` above ``DVMAX_BOUND``; 3 on an internal error (any
other exception, such as a failed self-check or ``MemoryError``), reported
as one ``internal error:`` line on stderr.  A closed stdout does not
change the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .classify import Classification, Verdict, classify
from .lojasiewicz import _loj_report, deformation_compare, loj_exponent
from .maps import PolyEndo, build_nagata, compose, decompose, inverse_nagata
from .parse import ParseError, _Parser, parse_poly2, parse_poly3
from .pde import DEGREE_BOUND, _spans_agree, kernel_oracle, solution_basis
from .poly import Poly, RING3, expand_bivariate
from .randgen import random_poly2

SCHEMA_VERSION = 1

# ``random`` analyzes a p of (2,1)-weighted degree up to dvmax; the cost
# grows steeply with it, so larger values are refused rather than left to
# run without bound.
DVMAX_BOUND = 20


def _endo_payload(e: PolyEndo) -> dict:
    return {"f": str(e.f), "g": str(e.g), "h": str(e.h)}


def _endo_lines(label: str, e: PolyEndo) -> list[str]:
    return [
        f"{label} f: {e.f}",
        f"{label} g: {e.g}",
        f"{label} h: {e.h}",
    ]


def _parse_endo(text: str) -> PolyEndo:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(
            "an endomorphism needs three comma-separated expressions", 1
        )
    # error positions count from the start of the whole argument
    offsets = (0, len(parts[0]) + 1, len(parts[0]) + len(parts[1]) + 2)
    f, g, h = (_Parser(part, RING3, offset).parse()
               for part, offset in zip(parts, offsets))
    return PolyEndo(f, g, h)


def _evidence_payload(c: Classification) -> dict:
    evidence: dict = {}
    if not c.residual.is_zero():
        evidence["residual"] = str(c.residual)
    if c.representative is not None:
        evidence["representative"] = str(c.representative)
    if c.leading_form is not None:
        evidence["leading_form"] = str(c.leading_form)
    if c.leading_form_t1_derivative is not None:
        evidence["leading_form_t1_derivative"] = str(c.leading_form_t1_derivative)
    if c.tame_factors is not None:
        evidence["tame_factors"] = [_endo_payload(e) for e in c.tame_factors]
    return evidence


def _analysis_payload(phi: Poly) -> tuple[dict, list[str], int]:
    """Shared full report for ``analyze`` and ``random``."""
    verdict = classify(phi)
    # the Jacobian determinant of the map of phi is 1 + (-2*y*phi_x + z*phi_y),
    # that is 1 + residual (van den Essen 2000, ch. 1-2)
    determinant = 1 + verdict.residual
    is_auto = verdict.residual.is_zero()
    payload = {
        "phi": str(phi),
        "residual": str(verdict.residual),
        "jacobian_determinant": str(determinant),
        "is_automorphism": is_auto,
        "representative": None,
        "inverse": None,
        "classification": verdict.verdict.value,
        "evidence": _evidence_payload(verdict),
        "lojasiewicz_exponent": None,
    }
    lines = [
        f"phi: {phi}",
        f"residual: {verdict.residual}",
        f"jacobian determinant: {determinant}",
        f"automorphism: {'yes' if is_auto else 'no'}",
    ]
    if is_auto:
        # classify's decompose has proven phi == expand_bivariate(p)
        p = verdict.representative
        inverse = build_nagata(-phi).endo
        loj = _loj_report(phi, inverse)
        payload["representative"] = str(p)
        payload["inverse"] = _endo_payload(inverse)
        payload["lojasiewicz_exponent"] = str(loj.exponent)
        lines.append(f"representative p: {p}")
        lines.extend(_endo_lines("inverse", inverse))
        lines.append(f"classification: {verdict.verdict.value}")
        lines.append(f"lojasiewicz exponent: {loj.exponent}")
    else:
        lines.append(f"classification: {verdict.verdict.value}")
    return payload, lines, 0 if is_auto else 1


def _cmd_analyze(args) -> tuple[int, dict, list[str]]:
    phi = parse_poly3(args.phi)
    payload, lines, code = _analysis_payload(phi)
    return code, payload, lines


def _cmd_invert(args) -> tuple[int, dict, list[str]]:
    p = parse_poly2(args.p)
    inverse = inverse_nagata(p)
    payload = {"p": str(p), "inverse": _endo_payload(inverse)}
    return 0, payload, _endo_lines("inverse", inverse)


def _cmd_compose(args) -> tuple[int, dict, list[str]]:
    outer = _parse_endo(args.outer)
    inner = _parse_endo(args.inner)
    result = compose(outer, inner)
    payload = {
        "outer": _endo_payload(outer),
        "inner": _endo_payload(inner),
        "result": _endo_payload(result),
    }
    return 0, payload, _endo_lines("composed", result)


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    phi = parse_poly3(args.phi)
    verdict = classify(phi)
    payload = {
        "phi": str(phi),
        "verdict": verdict.verdict.value,
        "evidence": _evidence_payload(verdict),
    }
    lines = [f"verdict: {verdict.verdict.value}"]
    for key, value in payload["evidence"].items():
        if key == "tame_factors":
            for i, factor in enumerate(verdict.tame_factors, start=1):
                lines.extend(_endo_lines(f"factor {i}", factor))
        else:
            lines.append(f"{key.replace('_', ' ')}: {value}")
    code = 1 if verdict.verdict is Verdict.NOT_AUTOMORPHISM else 0
    return code, payload, lines


def _cmd_basis(args) -> tuple[int, dict, list[str]]:
    basis = solution_basis(args.degree)
    payload = {
        "degree": basis.degree,
        "elements": [str(e) for e in basis.elements],
    }
    return 0, payload, [str(e) for e in basis.elements]


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    result = kernel_oracle(args.degree)
    verified = _spans_agree(result, solution_basis(args.degree))
    monomial_strings = [str(Poly(RING3, {m: 1})) for m in result.monomials]
    payload = {
        "degree": result.degree,
        "dimension": result.dimension,
        "monomials": monomial_strings,
        "kernel_basis": [[str(x) for x in vec] for vec in result.kernel_basis],
        "verified": verified,
    }
    lines = [f"kernel dimension: {result.dimension}"]
    for polynomial in result.polynomials():
        lines.append(f"kernel element: {polynomial}")
    lines.append(f"matches closed-form basis: {'yes' if verified else 'no'}")
    return (0 if verified else 1), payload, lines


def _loj_payload(label: str, report) -> dict:
    return {
        "p": label,
        "phi_degree": report.phi_degree,
        "inverse_degree": report.inverse_degree,
        "exponent": str(report.exponent),
    }


def _cmd_loj(args) -> tuple[int, dict, list[str]]:
    p = parse_poly2(args.p)
    if args.p_s is None:
        report = loj_exponent(p)
        payload = _loj_payload(str(p), report)
        lines = [
            f"phi degree: {report.phi_degree}",
            f"inverse degree: {report.inverse_degree}",
            f"lojasiewicz exponent: {report.exponent}",
        ]
        return 0, payload, lines
    p_s = parse_poly2(args.p_s)
    cmp_report = deformation_compare(p, p_s)
    payload = {
        "base": _loj_payload(str(p), cmp_report.base),
        "deformed": _loj_payload(str(p_s), cmp_report.deformed),
        "monotone": cmp_report.monotone,
        "ordering": cmp_report.ordering,
    }
    lines = [
        f"base exponent: {cmp_report.base.exponent}",
        f"deformed exponent: {cmp_report.deformed.exponent}",
        f"deformed {cmp_report.ordering}= base: monotonicity holds",
    ]
    return 0, payload, lines


def _cmd_decompose(args) -> tuple[int, dict, list[str]]:
    phi = parse_poly3(args.phi)
    p = decompose(phi)
    present = p is not None
    payload = {
        "phi": str(phi),
        "representative": str(p) if present else None,
    }
    line = (
        f"representative p: {p}"
        if present
        else "representative: absent (phi is not a polynomial in x*z + y^2 and z)"
    )
    return (0 if present else 1), payload, [line]


def _cmd_random(args) -> tuple[int, dict, list[str]]:
    if args.dvmax > DVMAX_BOUND:
        raise ValueError(f"dvmax {args.dvmax} exceeds the bound {DVMAX_BOUND}")
    rng = random.Random(args.seed)
    p = random_poly2(rng, args.dvmax)
    phi = expand_bivariate(p)
    analysis, lines, _ = _analysis_payload(phi)
    payload = {
        "seed": args.seed,
        "dvmax": args.dvmax,
        "p": str(p),
        "analysis": analysis,
    }
    return 0, payload, [f"p: {p}", *lines]


def _add_json_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON on stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` and then reused."""
    parser = argparse.ArgumentParser(
        prog="nagata",
        description="Exact analysis of Nagata-type polynomial maps of Q[x,y,z].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("analyze", help="residual, Jacobian determinant, automorphy, "
                                       "representative, classification, exponent")
    s.add_argument("phi", help="polynomial in x, y, z, e.g. 'x*z + y^2'")
    _add_json_flag(s)

    s = sub.add_parser("invert", help="explicit inverse of the map built from p(t1, t2)")
    s.add_argument("p", help="polynomial in t1, t2")
    _add_json_flag(s)

    s = sub.add_parser("compose", help="compose two endomorphisms (outer after inner)")
    s.add_argument("outer", help="three comma-separated polynomials in x, y, z")
    s.add_argument("inner", help="three comma-separated polynomials in x, y, z")
    _add_json_flag(s)

    s = sub.add_parser("classify", help="NotAutomorphism / WildAutomorphism / "
                                        "TameAutomorphism / AutomorphismTamenessUnknown")
    s.add_argument("phi")
    _add_json_flag(s)

    s = sub.add_parser("basis", help="closed-form basis of homogeneous solutions "
                                     "of the residual equation in one degree")
    s.add_argument("degree", type=int, help=f"0 to {DEGREE_BOUND}")
    _add_json_flag(s)

    s = sub.add_parser("oracle", help="exact kernel of the residual map in one degree, "
                                      "plus a span check against the closed-form basis")
    s.add_argument("degree", type=int, help=f"0 to {DEGREE_BOUND}")
    _add_json_flag(s)

    s = sub.add_parser("loj", help="Lojasiewicz exponent at infinity; with a second "
                                   "argument, compare against a deformation")
    s.add_argument("p", help="polynomial in t1, t2")
    s.add_argument("p_s", nargs="?", default=None,
                   help="deformation with supp(p) contained in supp(p_s)")
    _add_json_flag(s)

    s = sub.add_parser("decompose", help="recover p with phi = p(x*z + y^2, z), if it exists")
    s.add_argument("phi")
    _add_json_flag(s)

    s = sub.add_parser("random", help="reproducible random p and its full analysis")
    s.add_argument("--dvmax", type=int, default=6,
                   help="bound on the (2,1)-weighted degree of p, "
                        f"0 to {DVMAX_BOUND} (default 6)")
    s.add_argument("--seed", type=int, default=0)
    _add_json_flag(s)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        # the handler is looked up by name at call time, not held by the
        # cached parser, so a replaced _cmd_* function is the one that runs
        code, payload, lines = globals()[f"_cmd_{args.command}"](args)
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is not a verdict, so it must not exit 1
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
    try:
        if args.json:
            document = {"schema": SCHEMA_VERSION, "command": args.command, **payload}
            print(json.dumps(document, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; keep the interpreter's final flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
