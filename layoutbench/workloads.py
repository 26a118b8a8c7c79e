"""The two benchmark workloads: compile + simulate, and warm serve.

Each workload is built from a seed (which only orders or draws the
inputs), set up with :meth:`setup`, measured with repeated
:meth:`run_pass` calls and checked once more by :meth:`finish`.  Every output
is checked; a mismatch is printed and counted as a failed operation,
never raised.  The program is reached only through the public names
of ``repro.kernels``, ``repro.engine``, ``repro.serve``,
``repro.gpusim``, ``repro.cache`` and ``repro.codegen``, always as
module attributes, so the traced run's wrappers see every call.
Each operation of a pass is one ``bench:<operation>`` span, so a traced
run groups every span under the request it served (its trace id).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro.cache as cache
import repro.engine as engine
import repro.gpusim as gpusim
import repro.gpusim.registers as registers
import repro.kernels as kernels
import repro.serve as serve
from layoutbench.reference import reference_ms
from repro import obs
from repro.hardware.spec import PLATFORMS
from repro.hardware.instructions import InstructionKind

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "golden" / "pipeline_equivalence.json"

#: Closed-loop client of ``warm_serve``: requests kept outstanding,
#: and the service's pool size (sized for a 2-CPU host).
SERVE_OUTSTANDING = 2
SERVE_WORKERS = 2
#: Requests per ``warm_serve`` pass (before rounding each key's share).
SERVE_PASS_REQUESTS = 400
#: Zipf exponent of key popularity.  The popularity ranking is part of
#: the workload, fixed by this string; the run's seed only orders.
ZIPF_S = 1.0
POPULARITY_SEED = "warm_serve-popularity"

#: Reference calls after each ``warm_serve`` pass (about 20 ms, against
#: a pass of about 0.8 s); ``compile_simulate`` makes one after each
#: operation.
SERVE_REFERENCE_CALLS = 40

#: Failure lines printed per run; the rest are only counted.
MAX_PRINTED_FAILURES = 20

_SHARED_KINDS = (
    InstructionKind.SHARED_LOAD,
    InstructionKind.SHARED_STORE,
    InstructionKind.LDMATRIX,
    InstructionKind.STMATRIX,
)


def load_golden(path: Path = GOLDEN) -> List[dict]:
    """The 120 records: kernel x first case x platform x mode."""
    with open(path) as fh:
        return json.load(fh)["records"]


def record_key(rec: dict) -> str:
    """The record's ``CompileRequest.canonical_key`` (first case, 4 warps)."""
    return f"{rec['kernel']}/{rec['case']}@{rec['platform']}/{rec['mode']}/w4"


def _summary_hash(summary: dict) -> str:
    """A fixed-size stand-in for a ``CompiledKernel.summary()`` digest."""
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def geomean(values: List[float]) -> float:
    # fsum is correctly rounded, so the result does not depend on order.
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


@dataclass
class PassResult:
    """What one measured pass did."""

    #: Latency of each step of each operation (a compile, a simulated
    #: conversion, a served request), in the same order on every pass
    #: of a run.
    latencies_ms: List[List[float]]
    attempted: int = 0
    failed: int = 0
    #: Deterministic outputs: ``code_cycles`` and ``code_instrs``.
    outputs: Dict[str, float] = field(default_factory=dict)
    #: Layer counts read from the pass's results (engine, gpusim).
    counts: Counter = field(default_factory=Counter)
    #: ``repro.cache.stats()`` deltas: cache -> (hits, misses, evictions).
    cache: Dict[str, tuple] = field(default_factory=dict)
    #: ``repro.serve`` report figures of the pass.
    serve: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced passes only).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Times of the host reference (:mod:`layoutbench.reference`) run
    #: between the pass's operations, at the same positions every pass.
    reference_ms: List[float] = field(default_factory=list)


def _cache_delta(before: Dict[str, object]) -> Dict[str, tuple]:
    after = cache.stats()
    return {
        name: (
            after[name].hits - before[name].hits,
            after[name].misses - before[name].misses,
            after[name].evictions - before[name].evictions,
        )
        for name in after
    }


class Workload:
    """Failure printing and the hooks ``run.py`` calls on every workload."""

    name = ""
    #: Whether per-layer counts must repeat exactly from pass to pass.
    deterministic_counts = True
    #: Operations in flight at once (throughput = concurrency / latency).
    concurrency = 1

    def __init__(self):
        self.printed = 0

    def fail(self, what: str, why: str) -> None:
        """Print one failed check (the caller counts it)."""
        self.printed += 1
        if self.printed <= MAX_PRINTED_FAILURES:
            print(f"FAIL {self.name} {what}: {why}", file=sys.stderr)

    def take_reference(self) -> None:
        """Record, once after the last setup, what outputs must equal."""

    def finish(self) -> PassResult:
        """Checks made once after the last pass (none by default)."""
        return PassResult(latencies_ms=[])

    def close(self) -> None:
        pass


def _compile_record(rec: dict):
    model = kernels.KERNELS[rec["kernel"]]
    case = model.cases[0]
    graph = model.build(**case.kwargs()).graph
    return engine.compile(graph, spec=PLATFORMS[rec["platform"]], mode=rec["mode"])


def _engine_counts(compiled, counts: Counter) -> None:
    for diag in compiled.diagnostics:
        for name in ("conversions_inserted", "conversions_eliminated"):
            counts[f"engine.{name}"] += diag.counters.get(name, 0)
    counts["engine.graph_ops"] += len(compiled.graph.ops)


def _code_outputs(compiled_kernels) -> Dict[str, float]:
    ok = [ck for ck in compiled_kernels if ck.ok]
    return {
        "code_cycles": geomean([ck.cycles() for ck in ok]) if ok else 0.0,
        "code_instrs": float(
            sum(len(p.instrs) for ck in compiled_kernels for p in ck.programs)
        ),
    }


class CompileSimulate(Workload):
    """Every golden record compiled serially after ``cache.clear()``, and
    each conversion plan new to the pass run on the simulated machine."""

    name = "compile_simulate"

    def __init__(self, seed: int, records: List[dict]):
        super().__init__()
        self.records = records
        # The seed orders the platform x mode blocks; kernels keep their
        # golden order inside a block.  Plans are shared only within a
        # block, and which compile pays for a plan the block's later
        # compiles hit depends on the order inside it: shuffling kernels
        # moved compile latencies by up to 35% between seeds.
        blocks: Dict[tuple, List[dict]] = {}
        for rec in records:
            blocks.setdefault((rec["platform"], rec["mode"]), []).append(rec)
        order = list(blocks)
        random.Random(seed).shuffle(order)
        self.order = [rec for block in order for rec in blocks[block]]
        self.machines: Dict[str, object] = {}
        #: ``(record key, conversion index) -> price_program`` cycles of
        #: each conversion a pass simulates, priced after the first pass
        #: that ran it (pricing inside a traced pass would add to the
        #: per-layer pricing metrics); plans are deterministic, so later
        #: passes' plans must run the same cycles.
        self.priced: Dict[tuple, float] = {}

    def setup(self) -> None:
        """Build the simulated machines, and pay each platform x mode's
        one-time costs (lazy imports, per-spec cost models, the
        interpreter's first runs) before timing: one compile and
        simulation each, the same ones whatever the seed."""
        cache.clear()
        self.machines = {name: gpusim.Machine(spec) for name, spec in PLATFORMS.items()}
        seen = set()
        for rec in self.records:
            if (rec["platform"], rec["mode"]) not in seen:
                seen.add((rec["platform"], rec["mode"]))
                self._operation(rec, set())
        cache.clear()

    def _operation(self, rec: dict, seen: set):
        """Compile one record, then materialize, run and verify each of
        its conversions not yet in ``seen``.

        Returns the compile (or the exception it raised),
        ``[(index, plan, trace or exception)]`` and the latency of each
        step: the compile, then each conversion.
        """
        t0 = time.perf_counter()
        try:
            compiled = _compile_record(rec)
        except Exception as exc:  # a crash is a failed compile
            return exc, [], [(time.perf_counter() - t0) * 1e3]
        steps = [(time.perf_counter() - t0) * 1e3]
        spec = PLATFORMS[rec["platform"]]
        machine = self.machines[rec["platform"]]
        executed = []
        for index, plan in enumerate(compiled.conversions):
            if (id(plan), spec.name) in seen:
                continue
            seen.add((id(plan), spec.name))
            t0 = time.perf_counter()
            with obs.span("bench:convert", kind=plan.kind, platform=spec.name):
                try:
                    src = gpusim.distributed_data(plan.src, machine.num_warps, spec.warp_size)
                    result, trace = machine.run_conversion(plan, src)
                    registers.assert_matches_layout(result, plan.dst)
                    outcome = trace
                except Exception as exc:  # a failed verification or crash
                    outcome = exc
            steps.append((time.perf_counter() - t0) * 1e3)
            executed.append((index, plan, outcome))
        return compiled, executed, steps

    def run_pass(self) -> PassResult:
        order = self.order
        cache.clear()
        before = cache.stats()
        seen: set = set()
        latencies, results, reference = [], [], []
        for rec in order:
            with obs.span("bench:kernel", key=record_key(rec)):
                compiled, executed, steps = self._operation(rec, seen)
            latencies.append(steps)
            results.append((compiled, executed))
            reference.append(reference_ms())
        out = PassResult(latencies_ms=latencies, reference_ms=reference)
        out.cache = _cache_delta(before)
        compiled_kernels = []
        for rec, (compiled, executed) in zip(order, results):
            out.attempted += 1
            why = self._check(rec, compiled)
            if why:
                out.failed += 1
                self.fail(record_key(rec), why)
            if not isinstance(compiled, Exception):
                compiled_kernels.append(compiled)
                _engine_counts(compiled, out.counts)
            for index, plan, outcome in executed:
                out.attempted += 1
                why = self._check_conversion(rec, index, plan, outcome, out.counts)
                if why:
                    out.failed += 1
                    self.fail(f"{plan.kind} #{index} of {record_key(rec)}", why)
        out.outputs = _code_outputs(compiled_kernels)
        return out

    @staticmethod
    def _check(rec: dict, result) -> str:
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}"
        if result.ok != rec["ok"]:
            return f"ok={result.ok}, golden ok={rec['ok']} ({result.error})"
        if rec["ok"]:
            if result.cycles() != rec["cycles"]:
                return f"cycles {result.cycles()} != golden {rec['cycles']}"
            if result.op_counts() != rec["op_counts"]:
                return f"op_counts {result.op_counts()} != golden {rec['op_counts']}"
        return ""

    def _check_conversion(self, rec: dict, index: int, plan, outcome, counts: Counter) -> str:
        """The conversion verified and ran the cycles it was priced at."""
        if isinstance(outcome, Exception):
            return f"{type(outcome).__name__}: {outcome}"
        executed = outcome.cycles()
        counts["gpusim.sim_cycles"] += executed
        for instr in outcome.instructions:
            counts["gpusim.sim_instructions"] += instr.count
            if instr.kind in _SHARED_KINDS:
                counts["gpusim.shared_wavefronts"] += instr.wavefronts * instr.count
                if instr.wavefronts > 1:
                    counts["gpusim.bank_conflicts"] += (instr.wavefronts - 1) * instr.count
        key = (record_key(rec), index)
        if key not in self.priced:
            spec = PLATFORMS[rec["platform"]]
            self.priced[key] = gpusim.price_program(plan.program(), spec).cycles()
        priced = self.priced[key]
        if executed != priced:
            return f"executed {executed} cycles != priced {priced}"
        return ""


class WarmServe(Workload):
    """A closed loop of Zipf-skewed requests through ``CompileService``."""

    name = "warm_serve"
    # Single-flight sharing depends on thread timing, so how many
    # requests compile (and so every call count) varies run to run.
    deterministic_counts = False
    concurrency = SERVE_OUTSTANDING

    def __init__(self, seed: int, records: List[dict]):
        super().__init__()
        self.requests = {
            record_key(rec): serve.CompileRequest(
                rec["kernel"], None, rec["platform"], rec["mode"]
            )
            for rec in records
        }
        ranked = sorted(self.requests)
        random.Random(POPULARITY_SEED).shuffle(ranked)
        self.ranked = ranked
        # Every pass sends each key its exact Zipf share of requests, so
        # the request mix, and with it the work per pass, is the same
        # for every seed; the seed shuffles the order.
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
        scale = SERVE_PASS_REQUESTS / sum(weights)
        self.mix = [
            key for key, weight in zip(ranked, weights) for _ in range(max(1, round(weight * scale)))
        ]
        random.Random(seed).shuffle(self.mix)
        self.service: Optional[serve.CompileService] = None
        self.serial: Dict[str, object] = {}
        self.digests: Dict[str, dict] = {}
        self.last: Dict[str, object] = {}

    def setup(self) -> None:
        """Warm the plan caches with one serial compile of every key."""
        self.close()
        cache.clear()
        self.serial = {
            key: request.build_and_compile() for key, request in self.requests.items()
        }
        self.service = serve.CompileService(
            workers=SERVE_WORKERS, backend="thread", result_cache=0
        )

    def take_reference(self) -> None:
        """Digest the last setup's serial compiles."""
        self.digests = {}
        for key, compiled in self.serial.items():
            summary = compiled.summary()
            self.digests[key] = {
                **{k: v for k, v in summary.items() if k != "programs"},
                "programs": list(compiled.programs),
                "sha256": _summary_hash(summary),
            }

    def run_pass(self) -> PassResult:
        keys = self.mix
        service = self.service
        records_before = len(service.report().requests)
        before = cache.stats()
        pending = {}
        futures = [None] * len(keys)
        latencies: List[List[float]] = [[] for _ in keys]
        stream = iter(enumerate(keys))

        def submit_next() -> None:
            i, key = next(stream, (None, None))
            if key is None:
                return
            submitted = time.perf_counter()
            future = service.submit(self.requests[key])
            futures[i] = future
            pending[future] = (i, submitted)

        for _ in range(SERVE_OUTSTANDING):
            submit_next()
        while pending:
            finished, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            now = time.perf_counter()
            for future in finished:
                i, submitted = pending.pop(future)
                latencies[i] = [(now - submitted) * 1e3]
                submit_next()

        # The host reference runs with no request in flight: on the
        # client thread it would compete with the workers for the GIL.
        reference = [reference_ms() for _ in range(SERVE_REFERENCE_CALLS)]
        out = PassResult(latencies_ms=latencies, reference_ms=reference)
        out.cache = _cache_delta(before)
        for key, future in zip(keys, futures):
            out.attempted += 1
            try:
                compiled = future.result()
            except Exception as exc:  # a failed request
                out.failed += 1
                self.fail(key, f"raised {type(exc).__name__}: {exc}")
                continue
            why = self._check(key, compiled)
            if why:
                out.failed += 1
                self.fail(key, why)
            self.last[key] = compiled
            _engine_counts(compiled, out.counts)
        records = service.report().requests[records_before:]
        if records:
            out.serve = {
                "queue_wait_ms": statistics.median(r.queue_wait_ms for r in records),
                "compile_ms": statistics.median(
                    [r.compile_ms for r in records if not r.shared and not r.result_cached]
                    or [0.0]
                ),
                "shared_ratio": sum(r.shared for r in records) / len(records),
            }
        return out

    def _check(self, key: str, compiled) -> str:
        """The result's digest must equal the serial one from setup.

        The cheap fields are compared on every result.  The warp
        programs are compared by identity with the serial compile's
        (warm compiles reuse the cached plans' programs); a different
        object falls back to comparing full ``summary()`` digests, and
        :meth:`finish` compares the full digest of each key's last
        result, so an in-place change to a shared program shows too.
        """
        ref = self.digests[key]
        if compiled.mode != ref["mode"] or compiled.ok != ref["ok"]:
            return f"mode/ok {compiled.mode}/{compiled.ok} != {ref['mode']}/{ref['ok']}"
        if compiled.error != ref["error"]:
            return f"error {compiled.error!r} != {ref['error']!r}"
        if len(compiled.conversions) != ref["num_conversions"]:
            return f"{len(compiled.conversions)} conversions != {ref['num_conversions']}"
        if compiled.ok:
            if compiled.cycles() != ref["cycles"]:
                return f"cycles {compiled.cycles()} != {ref['cycles']}"
            if compiled.op_counts() != ref["op_counts"]:
                return f"op_counts {compiled.op_counts()} != {ref['op_counts']}"
        serial = ref["programs"]
        if len(serial) == len(compiled.programs) and all(
            a is b for a, b in zip(serial, compiled.programs)
        ):
            return ""
        if _summary_hash(compiled.summary()) != ref["sha256"]:
            return "summary digest differs from the serial compile"
        return ""

    def finish(self) -> PassResult:
        out = PassResult(latencies_ms=[])
        for key, compiled in self.last.items():
            out.attempted += 1
            if _summary_hash(compiled.summary()) != self.digests[key]["sha256"]:
                out.failed += 1
                self.fail(key, "final summary digest differs from the serial compile")
        out.outputs = _code_outputs(list(self.last.values()))
        return out

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (CompileSimulate, WarmServe)}

