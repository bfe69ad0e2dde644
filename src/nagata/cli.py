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

``run`` reads argv in one pass over ``_COMMANDS``, a table of the nine
commands, from which the help (exit 0) and each usage error (exit 2) are
printed.
``--json`` documents are written by a private writer that gives the bytes
of ``json.dumps(document, indent=2)``, with one join per list or dict and
the C quoter of ``json.encoder``, read from ``_json`` without loading json.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C module
    from json.encoder import encode_basestring_ascii as _quote

from .classify import Classification, Verdict, classify
from .lojasiewicz import _loj_report, deformation_compare, loj_exponent
from .maps import PolyEndo, compose, decompose, inverse_nagata
from .parse import ParseError, _Parser, parse_poly2, parse_poly3
from .pde import DEGREE_BOUND, _spans_agree, kernel_oracle, solution_basis
from .poly import Poly, RING3, _monomial_texts, expand_bivariate
from .randgen import random_poly2

SCHEMA_VERSION = 1

# ``random`` analyzes a p of (2,1)-weighted degree up to dvmax; the cost
# grows steeply with it, so larger values are refused rather than left to
# run without bound.
DVMAX_BOUND = 20


def _endo_payload(e: PolyEndo) -> dict:
    return {"f": str(e.f), "g": str(e.g), "h": str(e.h)}


def _endo_lines(label: str, e: dict) -> list[str]:
    """Text lines of an _endo_payload, whose strings are already printed."""
    return [f"{label} {key}: {e[key]}" for key in ("f", "g", "h")]


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


def _evidence_payload(c: Classification, residual: str,
                      representative: str | None) -> dict:
    """Evidence of c, given its residual and representative as printed."""
    evidence: dict = {}
    if not c.residual.is_zero():
        evidence["residual"] = residual
    if representative is not None:
        evidence["representative"] = representative
    if c.leading_form is not None:
        evidence["leading_form"] = str(c.leading_form)
    if c.leading_form_t1_derivative is not None:
        evidence["leading_form_t1_derivative"] = str(c.leading_form_t1_derivative)
    if c.tame_factors is not None:
        evidence["tame_factors"] = [_endo_payload(e) for e in c.tame_factors]
    return evidence


def _analysis_payload(phi: Poly) -> tuple[int, dict, list[str]]:
    """Shared full report for ``analyze`` and ``random``; the text lines
    reuse the payload's strings."""
    verdict = classify(phi)
    # the Jacobian determinant of the map of phi is 1 + (-2*y*phi_x + z*phi_y),
    # that is 1 + residual (van den Essen 2000, ch. 1-2)
    determinant = 1 + verdict.residual
    is_auto = verdict.residual.is_zero()
    residual = str(verdict.residual)
    # classify's decompose has proven phi == expand_bivariate(p)
    representative = str(verdict.representative) if is_auto else None
    payload = {
        "phi": str(phi),
        "residual": residual,
        "jacobian_determinant": str(determinant),
        "is_automorphism": is_auto,
        "representative": representative,
        "inverse": None,
        "classification": verdict.verdict.value,
        "evidence": _evidence_payload(verdict, residual, representative),
        "lojasiewicz_exponent": None,
    }
    lines = [
        f"phi: {payload['phi']}",
        f"residual: {residual}",
        f"jacobian determinant: {payload['jacobian_determinant']}",
        f"automorphism: {'yes' if is_auto else 'no'}",
    ]
    if is_auto:
        inverse = inverse_nagata(verdict.representative)
        loj = _loj_report(inverse)
        payload["inverse"] = _endo_payload(inverse)
        payload["lojasiewicz_exponent"] = str(loj.exponent)
        lines.append(f"representative p: {representative}")
        lines.extend(_endo_lines("inverse", payload["inverse"]))
        lines.append(f"classification: {verdict.verdict.value}")
        lines.append(f"lojasiewicz exponent: {payload['lojasiewicz_exponent']}")
    else:
        lines.append(f"classification: {verdict.verdict.value}")
    return (0 if is_auto else 1), payload, lines


def _cmd_analyze(args) -> tuple[int, dict, list[str]]:
    return _analysis_payload(parse_poly3(args.phi))


def _cmd_invert(args) -> tuple[int, dict, list[str]]:
    p = parse_poly2(args.p)
    inverse = inverse_nagata(p)
    payload = {"p": str(p), "inverse": _endo_payload(inverse)}
    return 0, payload, _endo_lines("inverse", payload["inverse"])


def _cmd_compose(args) -> tuple[int, dict, list[str]]:
    outer = _parse_endo(args.outer)
    inner = _parse_endo(args.inner)
    result = compose(outer, inner)
    payload = {
        "outer": _endo_payload(outer),
        "inner": _endo_payload(inner),
        "result": _endo_payload(result),
    }
    return 0, payload, _endo_lines("composed", payload["result"])


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    phi = parse_poly3(args.phi)
    verdict = classify(phi)
    p = verdict.representative
    payload = {
        "phi": str(phi),
        "verdict": verdict.verdict.value,
        "evidence": _evidence_payload(verdict, str(verdict.residual),
                                      None if p is None else str(p)),
    }
    lines = [f"verdict: {verdict.verdict.value}"]
    for key, value in payload["evidence"].items():
        if key == "tame_factors":
            for i, factor in enumerate(value, start=1):
                lines.extend(_endo_lines(f"factor {i}", factor))
        else:
            lines.append(f"{key.replace('_', ' ')}: {value}")
    code = 1 if verdict.verdict is Verdict.NOT_AUTOMORPHISM else 0
    return code, payload, lines


def _cmd_basis(args) -> tuple[int, dict, list[str]]:
    elements = [str(e) for e in solution_basis(args.degree)]
    return 0, {"degree": args.degree, "elements": elements}, elements


def _cmd_oracle(args) -> tuple[int, dict, list[str]]:
    result = kernel_oracle(args.degree)
    verified = _spans_agree(result, solution_basis(args.degree))
    code = 0 if verified else 1
    # the JSON and the text share no polynomial, so only the one asked for
    # is built
    if args.json:
        # the schema lists every coefficient, zeros included
        n = len(result.monomials)
        rows = [["0"] * n for _ in result.kernel_basis]
        for row, vector in zip(rows, result.kernel_basis):
            for c, x in vector:
                row[c] = str(x)
        return code, {
            "degree": args.degree,
            "dimension": len(rows),
            "monomials": _monomial_texts(RING3, result.monomials, args.degree),
            "kernel_basis": rows,
            "verified": verified,
        }, []
    monomials = result.monomials
    lines = [f"kernel dimension: {len(result.kernel_basis)}"]
    for vector in result.kernel_basis:
        lines.append(f"kernel element: {Poly(RING3, [(monomials[c], x) for c, x in vector])}")
    lines.append(f"matches closed-form basis: {'yes' if verified else 'no'}")
    return code, {}, lines


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
        f"representative p: {payload['representative']}"
        if present
        else "representative: absent (phi is not a polynomial in x*z + y^2 and z)"
    )
    return (0 if present else 1), payload, [line]


def _cmd_random(args) -> tuple[int, dict, list[str]]:
    if args.dvmax > DVMAX_BOUND:
        raise ValueError(f"dvmax {args.dvmax} exceeds the bound {DVMAX_BOUND}")
    import random
    rng = random.Random(args.seed)
    p = random_poly2(rng, args.dvmax)
    phi = expand_bivariate(p)
    _, analysis, lines = _analysis_payload(phi)
    payload = {
        "seed": args.seed,
        "dvmax": args.dvmax,
        "p": str(p),
        "analysis": analysis,
    }
    return 0, payload, [f"p: {payload['p']}", *lines]


# each command: its positionals (a bracketed one optional, a degree an
# integer); its integer options and their defaults; its help.  All take --json.
_COMMANDS = {
    "analyze": ("phi", {}, "residual, automorphy, inverse, classification and exponent"),
    "invert": ("p", {}, "explicit inverse of the map built from p(t1, t2)"),
    "compose": ("outer inner", {}, "compose two endomorphisms (outer after inner)"),
    "classify": ("phi", {}, "wild / tame verdict, with its evidence"),
    "basis": ("degree", {}, f"closed-form kernel basis in one degree, 0 to {DEGREE_BOUND}"),
    "oracle": ("degree", {}, "exact kernel of the residual map, checked against the basis"),
    "loj": ("p [p_s]", {}, "Lojasiewicz exponent at infinity; with p_s, of a deformation"),
    "decompose": ("phi", {}, "recover p with phi = p(x*z + y^2, z), if it exists"),
    "random": ("", {"dvmax": 6, "seed": 0}, f"analyze a seeded random p (dvmax <= {DVMAX_BOUND})"),
}


def _usage(command: str | None = None, error: str | None = None) -> int:
    """Print the help on stdout and return 0, or, given an error, the usage
    of command and the error on stderr and return 2."""
    usage = {name: " ".join([name, *spec.split(), *(f"[--{o} N]" for o in opts), "[--json]"])
             for name, (spec, opts, _) in _COMMANDS.items()}
    if error is not None:
        sys.stderr.write(f"usage: nagata {usage.get(command, 'COMMAND ...')}\nerror: {error}\n")
        return 2
    print("usage: nagata COMMAND ...\n\nExact analysis of Nagata-type maps of Q[x,y,z].\n",
          *(f"  nagata {usage[name]}\n      {row[2]}" for name, row in _COMMANDS.items()),
          '\nAfter --, every argument is a positional: nagata analyze -- "-y^2"', sep="\n")
    return 0


def _arguments(argv: list[str]) -> SimpleNamespace | int:
    """The namespace that the command's handler reads, or the exit code of
    the help or the usage error printed in its place."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        return _usage() if command in ("-h", "--help") else _usage(
            None, f"unknown command {command!r}" if argv else "no command given")
    spec, options, _ = _COMMANDS[command]
    names, values = spec.split(), []
    args = {"command": command, "json": False, **options}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            values += tokens
        elif token in ("-h", "--help"):
            return _usage()
        elif token == "--json":
            args["json"] = True
        elif token[:2] == "--" and token[2:] in options:
            args[token[2:]] = next(tokens, "")
        # argparse's rule, kept for now: "-y^2" is an unknown option, while
        # "-", "-3", "-.5" and "-x - y" are positionals
        elif (token.startswith("-") and token != "-" and " " not in token
              and not re.match(r"^-\d+$|^-\d*\.\d+$", token)):
            return _usage(command, f"unknown option {token!r}")
        else:
            values.append(token)
    if not len(names) - spec.count("[") <= len(values) <= len(names):
        return _usage(command, f"{command} does not take {len(values)} arguments")
    args.update(zip([name.strip("[]") for name in names], values + [None] * len(names)))
    try:
        args.update((name, int(args[name])) for name in ("degree", *options) if name in args)
    except ValueError as exc:  # it names the text that is not an integer
        return _usage(command, str(exc))
    return SimpleNamespace(**args)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a payload value, nested at the
    depth whose line break and indentation ``indent`` is.

    Each list and dict is one join; a list of strings is quoted by one
    ``map``.  Only str, None, bool, int, list and dict are written (keys
    str); anything else, a float or a tuple included, raises TypeError.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        ) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        separator = "," + inner
        try:
            items = separator.join(map(_quote, value))
        except TypeError:  # an item is not a string
            items = separator.join([_json_text(item, inner) for item in value])
        return "[" + inner + items + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run(argv=None) -> int:
    args = _arguments(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, int):  # the help or a usage error, already printed
        return args
    try:
        # the handler is looked up by name at call time, so a replaced
        # _cmd_* function is the one that runs
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
            print(_json_text(document))
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
