"""Benchmark of the nagata package: one workload, one seed, one run.

    python3 bench/run.py --workload analyze_mix --seed 1 --seconds 35 --trace 0

Without ``--workload`` it runs all three workloads, one after the other.
Run from the repository root or anywhere else; the package is imported
from ``src/`` next to this directory.  Workloads (see BENCHMARK.json for
why each exists):

  analyze_mix        in-process ``nagata analyze PHI --json``
  inverse_roundtrip  map and explicit inverse composed in both orders
  oracle_sweep       in-process ``nagata oracle d --json``, d = 0..12

It is a single-threaded closed loop: the next operation starts when the
previous one has returned and been checked.  Operations run in whole
passes over the seeded corpus until ``--seconds`` of wall time are spent;
each operation's time is the least CPU time (``time.process_time``) over
its passes.  That filters out short bursts of interference from other
processes on the host; a slowdown that lasts the whole run still shows.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced, then one pass with every layer wrapped (see
tracing.py), prints the per-layer metrics and writes the spans to
``bench/out/``.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import corpus
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TAIL_BEYOND = 10
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.process_time(); import nagata.cli; print(time.process_time() - t)"
)


def load_package():
    """Import ``nagata`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "nagata" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import nagata
    import nagata.cli  # noqa: F401 - loads every layer module

    if Path(nagata.__file__).resolve().parent != SRC / "nagata":
        raise SystemExit(f"error: imported nagata from {nagata.__file__}, not {SRC}")
    return nagata


@dataclass
class Measurement:
    samples: list[list[float]]   # CPU seconds of each passing execution, per op
    failures: Counter
    attempted: int
    pass_cpu_s: list[float]      # all executions of each pass, passing or not

    @property
    def passes(self) -> int:
        return len(self.pass_cpu_s)

    def best_times(self) -> list[float]:
        """Least time per op, over ops that passed in every pass."""
        return [min(s) for s in self.samples if len(s) == self.passes]


def measure(ops, seconds: float, tracer: Tracer | None = None,
            max_passes: int | None = None, after_pass=None) -> Measurement:
    """Whole passes over ``ops`` until ``seconds`` of wall time have gone
    (at least one), calling ``after_pass()`` between passes."""
    samples: list[list[float]] = [[] for _ in ops]
    verified: list = [None] * len(ops)
    failures: Counter = Counter()
    attempted = 0
    pass_cpu_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        pass_cpu_s.append(0.0)
        for i, op in enumerate(ops):
            if tracer is not None:
                result, error, elapsed = tracer.run_op(attempted, op.sizes, op.run)
            else:
                error = None
                start = time.process_time()
                try:
                    result = op.run()
                except Exception as exc:  # counted below as a failed operation
                    result, error = None, exc
                elapsed = time.process_time() - start
            attempted += 1
            pass_cpu_s[-1] += elapsed
            if error is not None:
                cause = f"exception {type(error).__name__}"
            elif verified[i] is not None and result == verified[i]:
                cause = None
            else:
                cause = op.check(result)
                if cause is None:
                    verified[i] = result
            if cause:
                failures[cause] += 1
            else:
                samples[i].append(elapsed)
        if time.perf_counter() >= deadline or (max_passes and len(pass_cpu_s) >= max_passes):
            return Measurement(samples, failures, attempted, pass_cpu_s)
        if after_pass is not None:
            after_pass()


def run_known_defects(ops) -> tuple[Counter, Counter]:
    """Run each known-defect input once, untimed: (outcomes, failures)."""
    outcomes, failures = Counter(), Counter()
    for op in ops:
        try:
            result = op.run()
        except Exception as exc:  # an exception is a failure, not the known refusal
            failures[f"exception {type(exc).__name__}"] += 1
            continue
        cause = op.check(result)
        if cause == workloads.REFUSED:
            outcomes["refused"] += 1
        elif cause is None:
            outcomes["answered"] += 1
        else:
            failures[cause] += 1
    return outcomes, failures


class SetupTimer:
    """CPU time a fresh interpreter spends importing nagata.cli, which every
    command-line call pays.  Samples are taken between passes, so that they
    spread over the run like the operations do; ``median`` tops them up to
    SETUP_SAMPLES."""

    def __init__(self):
        self.cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
        self.samples: list[float] = []
        self._import()  # writes the byte code, as the first command-line call does

    def _import(self) -> float:
        done = subprocess.run(self.cmd, check=True, capture_output=True, text=True,
                              timeout=120)
        return float(done.stdout)

    def sample(self) -> None:
        self.samples.append(self._import())

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(times)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    rank = len(ordered) - 1 - beyond
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), beyond


def end_to_end(m: Measurement, setup: SetupTimer) -> tuple[dict, list[str]]:
    times = m.best_times()
    if not times:
        raise SystemExit("error: no operation passed its check in every pass")
    tail_s, percentile, beyond = tail(times)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup.median(),
    }
    notes = [f"latency_tail_ms is p{percentile:.1f} of {len(times)} per-op samples "
             f"({beyond} beyond it)"]
    return metrics, notes


def per_layer(ops, untraced: Measurement, traced: Measurement,
              tracer: Tracer) -> dict:
    metrics = tracer.layer_metrics()
    by_class: dict[str, list[float]] = {v: [] for v in corpus.VERDICTS}
    for op, samples in zip(ops, untraced.samples):
        if op.label in by_class and len(samples) == untraced.passes:
            by_class[op.label].append(min(samples))
    for verdict, times in by_class.items():
        metrics[f"analyze_mix.class.{verdict}.p50_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0)
    # one traced pass against the median untraced pass, so that the first,
    # colder pass does not count
    metrics["trace.overhead_ratio"] = traced.pass_cpu_s[0] / statistics.median(untraced.pass_cpu_s)
    return metrics


def report(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(nagata, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
    """Measure one workload and print its report, ending with the JSON result."""
    ops, known = workloads.build(nagata, workload, seed)
    lines = [f"workload {workload}, seed {seed}: {len(ops)} timed ops per pass, "
             f"{len(known)} known-defect inputs run apart"]

    if trace:
        untraced = measure(ops, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(ops, 0, tracer=tracer, max_passes=1)
        finally:
            tracer.remove()
        runs = (untraced, traced)
        self_sum_ok = tracer.self_time_total_ns() == tracer.op_ns
        out = OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(out)
        values = per_layer(ops, untraced, traced, tracer)
        lines.append(f"{untraced.passes} untraced passes, 1 traced pass; spans in "
                     f"{out.relative_to(ROOT)}; span self times sum to the op time: "
                     f"{'yes' if self_sum_ok else 'NO'}")
        metric_spec = spec["per_layer"]
    else:
        setup = SetupTimer()
        measurement = measure(ops, seconds, after_pass=setup.sample)
        runs = (measurement,)
        self_sum_ok = True
        values, notes = end_to_end(measurement, setup)
        lines.append(f"{measurement.passes} passes")
        lines.extend(notes)
        metric_spec = spec["end_to_end"]

    outcomes, known_failures = run_known_defects(known)
    values["known_defect.refused"] = outcomes["refused"]
    failures = sum((m.failures for m in runs), Counter()) + known_failures
    attempted = sum(m.attempted for m in runs) + sum(known_failures.values())
    failed = sum(failures.values())
    if known:
        lines.append(
            f"known defect, not timed: {outcomes['refused']} of {len(known)} single-term "
            "phi with a leading minus refused by the CLI's argument parser (exit 2); "
            f"{outcomes['answered']} answered correctly")
    lines.append("failures by cause: " + (
        ", ".join(f"{cause} {n}" for cause, n in sorted(failures.items())) or "none"))
    metrics = report(metric_spec, values)
    for name, metric in metrics.items():
        lines.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and self_sum_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeat to run several; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nagata = load_package()
    for workload in args.workload or workloads.WORKLOADS:
        run_workload(nagata, spec, workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
