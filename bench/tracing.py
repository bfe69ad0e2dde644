"""Per-layer tracing of the ``nagata`` package, applied from outside it.

``Tracer.install`` replaces every public function of the layer modules,
and the main ``Poly`` methods, with a wrapper that records a span: name,
start and end in CPU nanoseconds, the span that called it, and one size
number (term pairs for a multiply, characters for a parse, ...).  A
function is replaced wherever it is bound, so ``nagata.cli.classify`` and
``nagata.classify.classify`` both report.  ``Tracer.remove`` puts every
original back.

Spans are kept in memory per operation and folded into totals when the
operation ends; ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# The layers, named after the package's modules.
LAYER_MODULES = ("cli", "parse", "poly", "maps", "classify", "lojasiewicz", "pde")

# Poly methods traced, by span name.  Aliases such as __rmul__ = __mul__ are
# found by identity and share the span name.
POLY_METHODS = {
    "__add__": "poly.add",
    "__sub__": "poly.sub",
    "__rsub__": "poly.rsub",
    "__neg__": "poly.neg",
    "__mul__": "poly.mul",
    "__pow__": "poly.pow",
    "partial": "poly.partial",
    "substitute": "poly.substitute",
    "__str__": "poly.str",
}

ROOT = "op"
PACKAGE = "nagata"


def _nterms(value) -> int:
    terms = getattr(value, "terms", None)
    if terms is None:  # a scalar operand, coerced to a constant polynomial
        return 1 if value else 0
    return sum(1 for _ in terms())


def _poly_key(value) -> tuple:
    return (value.vars, tuple(value.terms()))


class Tracer:
    """Collects spans for one workload run.  Not thread-safe: the
    benchmark is a single-threaded closed loop."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self._sizers = {
            "poly.mul": lambda a: _nterms(a[0]) * _nterms(a[1]),
            "poly.pow": lambda a: self._repeat(("pow", _poly_key(a[0]), a[1])),
            "poly.expand_bivariate": lambda a: self._repeat(("expand", _poly_key(a[0]))),
            "parse.parse_poly3": lambda a: len(a[0]),
            "pde.kernel_oracle": lambda a: a[0],
        }
        self._reset_op()
        self.ops = 0
        self.op_ns = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.size: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.d12_calls = 0
        self.d12_ns = 0
        self.records: list[dict] = []
        self.names: set[str] = set()

    # -- installing and removing wrappers --------------------------------

    def _targets(self):
        """(span name, original function, [(owner, attribute), ...])."""
        modules = [sys.modules[PACKAGE]] + [
            sys.modules[name] for name in sorted(sys.modules)
            if name.startswith(PACKAGE + ".")
        ]
        found = []
        for layer in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in sorted(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    found.append((f"{layer}.{attr}", value))
        poly_class = sys.modules[f"{PACKAGE}.poly"].Poly
        for attr, name in POLY_METHODS.items():
            found.append((name, vars(poly_class)[attr]))
        owners = modules + [poly_class]
        for name, original in found:
            bindings = [
                (owner, attr)
                for owner in owners
                for attr, value in vars(owner).items()
                if value is original
            ]
            yield name, original, bindings

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        for name, original, bindings in self._targets():
            self.names.add(name)
            wrapper = self._wrap(name, original)
            for owner, attr in bindings:
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        sizer = self._sizers.get(name)
        clock = time.process_time_ns
        tracer = self

        def traced(*args, **kwargs):
            size = sizer(args) if sizer is not None else 0
            parent = tracer._current
            sid = len(tracer._spans)
            tracer._spans.append(None)
            depth = tracer._depth
            outer = depth[name] == 0
            depth[name] += 1
            tracer._current = sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._current = parent
                depth[name] -= 1
                tracer._spans[sid] = (parent, name, start, end, size, outer)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- operations ---------------------------------------------------------

    def _reset_op(self) -> None:
        self._spans: list = []
        self._current = -1
        self._depth: dict[str, int] = defaultdict(int)
        self._seen: set = set()

    def _repeat(self, key) -> int:
        """1 if this (base, exponent) or p was already seen in this op."""
        if key in self._seen:
            return 1
        self._seen.add(key)
        return 0

    def run_op(self, op_id: int, sizes: dict, call):
        """Run ``call`` under a root span: (result, exception, CPU seconds)."""
        self._reset_op()
        self._spans.append(None)
        self._current = 0
        start = time.process_time_ns()
        result = error = None
        try:
            result = call()
        except Exception as exc:  # recorded by the caller as a failed op
            error = exc
        end = time.process_time_ns()
        self._spans[0] = (-1, ROOT, start, end, 0, True)
        self._fold(op_id, sizes)
        return result, error, (end - start) / 1e9

    def _fold(self, op_id: int, sizes: dict) -> None:
        spans = self._spans
        child_ns = [0] * len(spans)
        for parent, _, start, end, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        root_start = spans[0][2]
        self.ops += 1
        self.op_ns += spans[0][3] - root_start
        rows = []
        for sid, (parent, name, start, end, size, outer) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.size[name] += size
            self.self_ns[name] += duration - child_ns[sid]
            if outer:
                self.incl_ns[name] += duration
            if name == "pde.kernel_oracle" and size == 12:
                self.d12_calls += 1
                self.d12_ns += duration
            rows.append([sid, parent, name, start - root_start, end - root_start, size])
        self.records.append({"op": op_id, "sizes": sizes, "spans": rows})
        self._reset_op()

    # -- results ------------------------------------------------------------

    def self_time_total_ns(self) -> int:
        return sum(self.self_ns.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps(record, separators=(",", ":")) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation averages of the traced run, keyed by metric name.
        ``<span>.calls`` and ``<span>.calls_per_op`` are the same number;
        both spellings are kept because the metric names use both."""
        ops = self.ops or 1

        def per_op(table, name, scale=1.0):
            return table.get(name, 0) * scale / ops

        metrics = {}
        for name in self.names:
            metrics[f"{name}.calls"] = per_op(self.calls, name)
            metrics[f"{name}.calls_per_op"] = per_op(self.calls, name)
            metrics[f"{name}.self_s"] = per_op(self.self_ns, name, 1e-9)
            metrics[f"{name}.incl_s"] = per_op(self.incl_ns, name, 1e-9)
        metrics["poly.mul.term_pairs"] = per_op(self.size, "poly.mul")
        for name in ("poly.pow", "poly.expand_bivariate"):
            calls = self.calls.get(name, 0)
            metrics[f"{name}.repeat_ratio"] = self.size.get(name, 0) / calls if calls else 0.0
        parse_ns = self.incl_ns.get("parse.parse_poly3", 0)
        metrics["parse.parse_poly3.chars_per_s"] = (
            self.size["parse.parse_poly3"] / (parse_ns / 1e9) if parse_ns else 0.0
        )
        metrics["pde.kernel_oracle.d12.incl_s"] = (
            self.d12_ns / 1e9 / self.d12_calls if self.d12_calls else 0.0
        )
        return metrics
