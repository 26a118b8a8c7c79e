"""Smoke tests of the benchmark itself, at a few golden records.

Run from the repository root::

    PYTHONPATH=src python -m pytest layoutbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.gpusim as gpusim
from layoutbench import layers, workloads
from layoutbench.run import END_TO_END_UNITS, end_to_end
from repro import obs
from repro.obs.export import validate_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_RECORDS = 6


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "layoutbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.1",
            "--trace", str(trace),
            "--limit", str(SMOKE_RECORDS),
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def golden():
    return workloads.load_golden()[:SMOKE_RECORDS]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    lines, result = run_bench(workload, trace, cwd=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        )
    if trace:
        trace_file = tmp_path / ".layoutbench" / f"trace-{workload}-seed3.json"
        assert validate_chrome_trace(json.loads(trace_file.read_text())) == []


def test_end_to_end_units_match_benchmark_json():
    assert END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_timings_scale_away_a_uniformly_slower_host():
    def passes(speed: float):
        return [
            workloads.PassResult(
                latencies_ms=[[4.0 * speed, 1.0 * speed], [2.0 * speed]],
                reference_ms=[0.6 * speed, 0.4 * speed],
            )
            for _ in range(3)
        ]

    bench = workloads.WarmServe(seed=1, records=golden())
    quiet, slow = (
        end_to_end(bench, passes(speed), [2.0 * speed], attempted=1, failed=0)
        for speed in (1.0, 1.7)
    )
    assert slow["ops_per_s"] == pytest.approx(quiet["ops_per_s"])
    assert slow["setup_s"] == pytest.approx(quiet["setup_s"]) == pytest.approx(2.0)
    # The reference's 0.5 ms mean is the scale's own: measured = scaled.
    assert quiet["ops_per_s"] == pytest.approx(bench.concurrency * 2 / 7e-3)


def test_tampered_golden_record_counts_one_failure():
    records = [dict(rec) for rec in golden()]
    bench = workloads.CompileSimulate(seed=1, records=records)
    bench.setup()
    clean = bench.run_pass()
    # One operation per compile plus one per conversion it simulated.
    assert clean.failed == 0 and clean.attempted > SMOKE_RECORDS
    records[2]["cycles"] += 1
    result = bench.run_pass()
    assert (result.attempted, result.failed) == (clean.attempted, 1)


def test_tampered_priced_cycles_count_one_failure():
    bench = workloads.CompileSimulate(seed=1, records=golden())
    bench.setup()
    clean = bench.run_pass()
    assert clean.failed == 0 and bench.priced
    key = next(iter(bench.priced))
    bench.priced[key] += 1
    result = bench.run_pass()
    assert (result.attempted, result.failed) == (clean.attempted, 1)


def test_tampered_serve_digest_counts_failures():
    bench = workloads.WarmServe(seed=1, records=golden())
    try:
        bench.setup()
        bench.take_reference()
        hottest = bench.ranked[0]
        bench.digests[hottest] = dict(bench.digests[hottest], cycles=-1.0, sha256="")
        result = bench.run_pass()
        served = result.attempted
        assert result.failed >= 1
        assert bench.finish().failed == 1
    finally:
        bench.close()
    assert served == len(bench.mix)


def test_tampered_slot_counts_one_failure(monkeypatch):
    bench = workloads.CompileSimulate(seed=1, records=golden())
    bench.setup()
    clean = bench.run_pass()
    assert clean.failed == 0
    materialize = gpusim.distributed_data
    calls = []

    def tampered(layout, num_warps, warp_size):
        registers = materialize(layout, num_warps, warp_size)
        if not calls:
            registers.write(0, 0, 0, -1)
        calls.append(1)
        return registers

    monkeypatch.setattr(gpusim, "distributed_data", tampered)
    result = bench.run_pass()
    assert calls and (result.attempted, result.failed) == (clean.attempted, 1)


def test_probes_rebind_every_caller_and_restore():
    import repro.codegen as codegen
    import repro.codegen.conversion as conversion
    import repro.gpusim.opcost as opcost

    original = conversion.plan_conversion
    run = gpusim.Machine.run_conversion
    probes = layers.Probes().install()
    try:
        # opcost binds plan_conversion by ``from ... import``.
        assert opcost.plan_conversion is not original
        assert opcost.plan_conversion is conversion.plan_conversion
        assert codegen.plan_conversion is conversion.plan_conversion
        assert gpusim.Machine.run_conversion is not run
    finally:
        probes.restore()
    assert opcost.plan_conversion is original
    assert codegen.plan_conversion is original
    assert conversion.plan_conversion is original
    assert gpusim.Machine.run_conversion is run


def test_compile_time_is_fully_attributed_to_self_times():
    bench = workloads.CompileSimulate(seed=1, records=golden())
    bench.setup()
    # Prices the conversions, as the untraced half of a traced run does.
    bench.run_pass()
    probes = layers.Probes().install()
    try:
        with obs.capture() as recorder:
            bench.run_pass()
    finally:
        probes.restore()
    spans = recorder.spans()
    requests = [s for s in spans if s.name == "bench:kernel"]
    compiles = [s for s in spans if s.name == "compile:kernel"]
    assert len(requests) == len(compiles) == SMOKE_RECORDS
    # Each request is its own trace, and everything of it shares its id.
    assert len({s.trace_id for s in requests}) == SMOKE_RECORDS
    assert {s.trace_id for s in spans} == {s.trace_id for s in requests}
    by_id = {s.span_id: s for s in spans}

    def inside_compile(sp) -> bool:
        while sp is not None:
            if sp.name == "compile:kernel":
                return True
            sp = by_id.get(sp.parent_id)
        return False

    nested = [s for s in spans if inside_compile(s)]
    assert {f"pass:{p}" for p in layers.PASS_NAMES} <= {s.name for s in nested}
    # The self times of a compile's spans add up to the compile time,
    # and the compile's own share is small: nothing hides in it.
    times = layers.span_times(nested)
    metrics = layers.layer_metrics(times, lambda _: 0, {}, {}, {})
    compile_total = metrics["engine.compile.ms"]
    self_total = sum(row[2] for row in times.values())
    assert self_total == pytest.approx(compile_total, rel=1e-9)
    assert metrics["engine.compile.self_ms"] < 0.2 * compile_total


def test_same_seed_gives_identical_counts():
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "layoutbench" / "determinism.py"),
            "--seed", "5",
            "--limit", str(SMOKE_RECORDS),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
