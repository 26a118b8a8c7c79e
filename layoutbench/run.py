"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 layoutbench/run.py --workload compile_simulate --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half traced with ``repro.obs`` recording, prints
the per-layer metrics and writes the first traced pass's spans as
Chrome trace JSON under ``.layoutbench/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``layoutbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Spans one traced pass may record (a ``warm_serve`` pass records
#: about 6 000); a pass that records more fails rather than report
#: self times with spans missing.
MAX_SPANS_PER_PASS = 1_000_000

#: End-to-end metrics and their units (``BENCHMARK.json`` lists them).
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "ops_per_s": "1/s",
    "code_cycles": "cycles",
    "code_instrs": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="use only the first N golden records (smoke tests)",
    )
    return parser.parse_args(argv)


def measure(workload, seconds: float, recorder=None, probes=None, on_first=None):
    """Run passes until ``seconds`` have elapsed (at least one).

    With an ``obs`` recorder (and the installed probes), each pass
    records from a cleared recorder and gets its per-layer metrics
    attached; ``on_first`` is called with the recorder after the first
    pass, before it is cleared.
    """
    from layoutbench.layers import layer_metrics, span_times

    results = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if recorder is not None:
            recorder.clear()
        result = workload.run_pass()
        if recorder is not None:
            probes.flush()
            if recorder.dropped_spans:
                raise RuntimeError(f"{recorder.dropped_spans} spans dropped in one pass")
            spans = recorder.spans()
            result.layer = layer_metrics(
                span_times(spans),
                recorder.metrics.counter_value,
                result.counts,
                result.cache,
                result.serve,
            )
            result.layer["trace.span_count"] = len(spans)
            if not results and on_first is not None:
                on_first(recorder)
        results.append(result)
        if time.perf_counter() >= deadline:
            return results


def op_minima(passes) -> list:
    """Each operation's latency from its steps' lowest latencies over
    the passes (ms).

    Every pass runs the same operations, made of the same steps, in the
    same order, so each step gets its own best of the run's samples:
    load from outside the process only ever slows a step, and a slow
    stretch of the host then costs the steps it hit one sample each
    instead of whole passes.
    """
    return [
        math.fsum(min(samples) for samples in zip(*steps))
        for steps in zip(*(p.latencies_ms for p in passes))
    ]


def measured_ops_per_s(workload, passes) -> float:
    """Throughput from :func:`op_minima`, by Little's law: the workload
    keeps ``concurrency`` operations in flight."""
    best = op_minima(passes)
    return workload.concurrency * len(best) / (math.fsum(best) / 1e3)


def host_reference_ms(passes) -> float:
    """The host reference's time over the passes (ms)."""
    from layoutbench.reference import run_reference_ms

    return run_reference_ms([p.reference_ms for p in passes])


def end_to_end(workload, passes, setup_times, attempted: int, failed: int) -> dict:
    """End-to-end metrics of a run.

    Timings are scaled to a host that runs the reference in
    ``REFERENCE_MS``, by the reference's time over the passes.
    """
    from layoutbench.reference import REFERENCE_MS

    host = host_reference_ms(passes) / REFERENCE_MS
    return {
        "setup_s": statistics.median(setup_times) / host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / attempted,
        "ops_per_s": measured_ops_per_s(workload, passes) * host,
        **passes[0].outputs,
    }


def measured(workload, passes, setup_times) -> dict:
    """The unscaled timings and the host reference, printed (not gated)
    beside the end-to-end metrics."""
    return {
        "measured.setup_s": statistics.median(setup_times),
        "measured.ops_per_s": measured_ops_per_s(workload, passes),
        "host.reference_ms": host_reference_ms(passes),
        **latency_percentiles(passes),
    }


def latency_percentiles(passes) -> dict:
    """Median and p90 of the operations' latencies (:func:`op_minima`),
    unscaled.

    Reported by the traced run and printed, not gated, by the untraced
    one: they move with the host's load by more than the bounds allow
    (see ``README.md``).
    """
    best = op_minima(passes)
    return {
        "op.p50_ms": statistics.median(best),
        "op.p90_ms": statistics.quantiles(best, n=10, method="inclusive")[-1],
    }


def check_determinism(workload, untraced, traced) -> int:
    """Report outputs of any pass, and (where the workload promises it)
    per-layer counts of any traced pass, that differ from the first
    pass's; returns how many did."""
    from layoutbench.layers import EXACT_UNITS, unit_of

    def compare(passes, values) -> int:
        differing = 0
        for index, p in enumerate(passes[1:], start=2):
            for name, got in values(p).items():
                want = values(passes[0]).get(name)
                if want != got:
                    differing += 1
                    print(
                        f"NONDETERMINISTIC {workload.name} {name}: "
                        f"pass 1 {want} != pass {index} {got}",
                        file=sys.stderr,
                    )
        return differing

    differing = compare(untraced + traced, lambda p: p.outputs)
    if traced and workload.deterministic_counts:
        differing += compare(
            traced, lambda p: {k: v for k, v in p.layer.items() if unit_of(k) in EXACT_UNITS}
        )
    return differing


def run(args) -> dict:
    from layoutbench.layers import unit_of
    from layoutbench.workloads import WORKLOADS, load_golden

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    records = load_golden()
    if args.limit is not None:
        records = records[: args.limit]
    workload = WORKLOADS[args.workload](args.seed, records)
    traced = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.take_reference()
        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            traced = traced_passes(workload, args.seconds / 2, trace_path(args))
        else:
            untraced = measure(workload, args.seconds)
        final = workload.finish()
    finally:
        workload.close()
    if final.outputs:
        untraced[0].outputs = final.outputs
    differing = check_determinism(workload, untraced, traced)
    everything = untraced + traced + [final]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = end_to_end(workload, untraced, setup_times, attempted, failed)
        units = END_TO_END_UNITS
        for name, value in measured(workload, untraced, setup_times).items():
            unit = END_TO_END_UNITS.get(name.split(".", 1)[1]) or unit_of(name)
            print(f"{name:<40} {value:>16.6g} {unit} (not gated)")
    return {
        "correct": failed == 0 and differing == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def trace_path(args) -> Path:
    return Path.cwd() / ".layoutbench" / f"trace-{args.workload}-seed{args.seed}.json"


def traced_passes(workload, seconds: float, path: Path):
    """Measure with ``repro.obs`` recording and every layer's entry
    points wrapped, then unwrap; the first traced pass's spans are
    written to ``path`` as Chrome trace JSON."""
    from layoutbench.layers import Probes
    from repro import obs

    def write(recorder) -> None:
        path.parent.mkdir(exist_ok=True)
        obs.write_chrome_trace(recorder, str(path))
        print(f"trace: {path} ({len(recorder)} spans)")

    probes = Probes()
    with obs.capture(max_spans=MAX_SPANS_PER_PASS) as recorder:
        try:
            probes.install()
            return measure(workload, seconds, recorder, probes, on_first=write)
        finally:
            probes.restore()


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics: medians over the traced passes, and the
    operations' latency percentiles over the untraced ones."""
    metrics = {name: statistics.median(p.layer[name] for p in traced) for name in traced[0].layer}
    metrics.update(latency_percentiles(untraced))
    metrics["host.reference_ms"] = host_reference_ms(untraced)
    metrics["trace.overhead_ratio"] = math.fsum(op_minima(traced)) / math.fsum(op_minima(untraced))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # End-to-end numbers are taken on the shipped defaults: no obs
    # recording, caches on, vectorized interpreter.
    for var in ("REPRO_OBS", "REPRO_CACHE", "REPRO_SIM"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result = run(args)
    for name, metric in result["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
