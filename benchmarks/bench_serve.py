"""Compile-service throughput benchmark (records BENCH_serve.json).

Measures batch-compile throughput of :class:`repro.serve.CompileService`
against worker count on the cold Figure 9 suite, the dedup win on
duplicated traffic, and bit-identity of service output against the
``pipeline_equivalence.json`` golden.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py [--json] [--check]

``--check`` exits non-zero when the equivalence golden mismatches,
when dedup fails to eliminate duplicate work, or — on hosts with at
least 4 CPUs, where scaling is physically possible — when the process
backend falls short of 2x throughput at 4 workers vs 1.
"""

import json
import os
from pathlib import Path

from conftest import run_once
from repro.bench.harness import bench_record, publish_record
from repro.bench.servebench import (
    run_dedup,
    run_equivalence,
    run_throughput,
    suite_requests,
    throughput_speedups,
)

HERE = Path(__file__).resolve().parent
BENCH_FILE = HERE.parent / "BENCH_serve.json"
GOLDEN = HERE / "golden" / "pipeline_equivalence.json"


def test_serve_equivalence_and_dedup(benchmark):
    """The service is bit-identical to serial and dedups duplicates."""
    equiv = run_once(benchmark, run_equivalence, golden_path=str(GOLDEN))
    assert equiv["bit_identical"], equiv["first_mismatches"]
    dedup = run_dedup(dup=3, workers=4, requests=suite_requests()[:12])
    assert dedup["compiles"] == dedup["unique_keys"]
    assert dedup["duplicate_work_eliminated"] > 0.6


def record(table, dedup, equiv) -> dict:
    """The BENCH_serve.json entry for one run."""
    speedups = throughput_speedups(table)
    return bench_record(
        "serve",
        cpu_count=os.cpu_count(),
        suite_requests=len(suite_requests()),
        speedup_thread=speedups.get("thread"),
        speedup_process=speedups.get("process"),
        workers_at_speedup=speedups.get("process_workers"),
        target_speedup_at_4_workers=2.0,
        dedup=dedup,
        equivalence={
            k: v for k, v in equiv.items() if k != "first_mismatches"
        },
        table=table.to_dict(),
    )


def check(entry: dict) -> int:
    """Acceptance gates; returns a process exit code."""
    failures = []
    if not entry["equivalence"]["bit_identical"]:
        failures.append(
            f"{entry['equivalence']['mismatches']} golden mismatches"
        )
    if entry["dedup"]["duplicate_work_eliminated"] < 0.5:
        failures.append("single-flight/result cache failed to dedup")
    cpus = entry["cpu_count"] or 1
    if cpus >= 4 and (entry["speedup_process"] or 0.0) < 2.0:
        failures.append(
            f"process backend {entry['speedup_process']}x at "
            f"{entry['workers_at_speedup']} workers on {cpus} CPUs "
            "(need >= 2x)"
        )
    elif cpus < 4:
        print(
            f"note: {cpus} CPU(s) — the 2x-at-4-workers scaling gate "
            "needs >= 4 cores and was skipped; dedup and equivalence "
            "gates still apply"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    table = run_throughput()
    dedup = run_dedup()
    equiv = run_equivalence(str(GOLDEN))
    entry = record(table, dedup, equiv)
    publish_record(
        BENCH_FILE,
        entry,
        f"{table.format()}\ndedup: {json.dumps(dedup)}\n"
        f"equivalence: {json.dumps(entry['equivalence'])}",
        f"thread {entry['speedup_thread']}x / "
        f"process {entry['speedup_process']}x",
        check,
    )
