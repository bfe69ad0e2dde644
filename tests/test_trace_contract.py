"""The benchmark's per-layer metrics name functions of this package.

``bench/run.py --trace 1`` wraps every public function of the layer
modules and reports the metrics that BENCHMARK.json lists; a metric whose
function was deleted or made private raises ``KeyError`` there.  This
test catches that in the package's own suite: each ``per_layer`` name
must come from ``Tracer.layer_metrics()`` or from the runner itself.
"""

import importlib.util
import json
import sys
from pathlib import Path

import nagata.cli  # noqa: F401 - loads every layer module the tracer wraps

ROOT = Path(__file__).resolve().parents[1]

# metrics that bench/run.py computes itself rather than from spans
RUNNER_PREFIXES = ("analyze_mix.class.",)
RUNNER_NAMES = {"trace.overhead_ratio", "known_defect.refused"}


def load_tracing():
    """bench/tracing.py as a module, without writing byte code next to it."""
    spec = importlib.util.spec_from_file_location(
        "nagata_bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_per_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        metrics = tracer.layer_metrics()
    finally:
        tracer.remove()
    missing = sorted(
        m["name"] for m in spec["per_layer"]
        if m["name"] not in metrics
        and m["name"] not in RUNNER_NAMES
        and not m["name"].startswith(RUNNER_PREFIXES)
    )
    assert missing == []
