"""The layers the traced run measures, and their per-layer metrics.

The traced run records through :mod:`repro.obs` (``obs.capture()``).
The program already emits spans for its compile path (``compile:kernel``,
``pipeline:run``, ``pass:<name>``), plan lowering (``codegen:lower_plan``),
the simulator (``sim:run_program``) and the service (``serve:request``,
``serve:singleflight``).  :class:`Probes` adds ``obs.span`` and
``obs.count`` wrappers around the public entry points the program does
not instrument, and puts every original back afterwards:

- A module-level function is rebound at every name its callers bind.  A
  ``from ... import`` copy is its own binding (``repro.gpusim.opcost``
  binds ``plan_conversion`` that way), so wrapping only the defining
  module would miss those callers.  Calls inside the defining module
  resolve through its globals, so they are caught too.
- Methods are replaced on their class, a kernel model's ``build`` on
  the model.
- Hot F2 and layout primitives are counted, not timed: a span around
  every ``LinearLayout.apply`` would cost more than the call.  They
  count into per-thread counters that :meth:`Probes.flush` adds to the
  ``repro.obs`` counters after each pass: ``obs.count`` takes a lock on
  every call (about 1.5 us against 0.3 us), and the simulation in a
  ``compile_simulate`` pass makes about a million of these calls.

:func:`span_times` turns one pass's recorded spans into calls, total and
self time per span name, self time being a span's duration minus its
children's (from the recorded parent ids); :func:`layer_metrics` maps
those onto the per-layer metrics named in ``BENCHMARK.json``.  Every
metric is reported on every workload: a layer that does no work on a
workload reads 0 there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from typing import Callable, Dict, List, Tuple

import repro.cache as cache
import repro.codegen as codegen
import repro.codegen.conversion as conversion
import repro.gpusim as gpusim
import repro.gpusim.opcost as opcost
import repro.gpusim.registers as registers
import repro.kernels as kernels
from repro import obs
from repro.core.layout import LinearLayout

# ``repro.f2`` re-exports the function ``solve`` under the submodule's
# name, so ``import repro.f2.solve as ...`` would bind the function.
f2_solve = importlib.import_module("repro.f2.solve")

PASS_NAMES = (
    "anchor-selection",
    "forward-propagation",
    "backward-remat",
    "lower-to-plans",
    "cost-summary",
)
CACHES = ("layouts", "derivations", "plans", "engine")

#: Modules scanned for bindings of a wrapped function.
BINDING_PREFIXES = ("repro.", "layoutbench.")

#: Wrapped module-level functions: span -> function.
TIMED_FUNCTIONS = {
    "codegen:plan_conversion": conversion.plan_conversion,
    "codegen:optimal_swizzled_layout": codegen.optimal_swizzled_layout,
    "codegen:plan_warp_shuffle": codegen.plan_warp_shuffle,
    "codegen:classify_conversion": codegen.classify_conversion,
    "gpusim:price_program": opcost.price_program,
    "gpusim:materialize": registers.distributed_data,
    "gpusim:verify": registers.assert_matches_layout,
}
#: Wrapped methods: span -> (class, method name).
TIMED_METHODS = {
    "gpusim:priced_conversion": (opcost.OpCostModel, "priced_conversion"),
    "gpusim:run": (gpusim.Machine, "run_conversion"),
}
#: Counted (not timed) hot primitives: counter -> (class, method name).
COUNTED_METHODS = {
    "codegen.flat_of.calls": (codegen.DistributedView, "flat_of"),
    "core.apply.calls": (LinearLayout, "apply"),
    "core.compose.calls": (LinearLayout, "compose"),
    "core.invert.calls": (LinearLayout, "invert"),
    "core.invert_and_compose.calls": (LinearLayout, "invert_and_compose"),
}
PLAN_MISSES = "codegen.plan_conversion.misses"
SOLVE_CALLS = "f2.solve.calls"


def _solve_functions() -> List:
    """The public functions ``repro.f2.solve`` defines."""
    return [
        value
        for name, value in vars(f2_solve).items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and getattr(value, "__module__", None) == f2_solve.__name__
    ]


def _timed(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _counting_misses(fn: Callable) -> Callable:
    """``fn`` counting its calls that missed the plan cache.

    A hit is one lookup that hits; a miss runs the planner, which
    misses at least once (its own lookup) on this thread's counters.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = cache.counters()["misses"]
        try:
            return fn(*args, **kwargs)
        finally:
            if cache.counters()["misses"] > before:
                obs.count(PLAN_MISSES)

    return wrapper


class _ThreadCounts(threading.local):
    """One thread's counts of the counted primitives, registered with
    :class:`Probes` so it can add every thread's up."""

    def __init__(self, registry: List[Counter], lock: threading.Lock):
        self.counts: Counter = Counter()
        with lock:
            registry.append(self.counts)


class Probes:
    """The wrapped names of a traced run, and their originals."""

    def __init__(self):
        self._originals: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._thread_counts: List[Counter] = []
        self._local = _ThreadCounts(self._thread_counts, self._lock)

    def install(self) -> "Probes":
        """Wrap every layer's entry points; undo with :meth:`restore`."""
        for span, fn in TIMED_FUNCTIONS.items():
            wrapped = _counting_misses(fn) if span == "codegen:plan_conversion" else fn
            self._rebind(fn, _timed(span, wrapped))
        for span, (owner, attr) in TIMED_METHODS.items():
            self._set(owner, attr, _timed(span, vars(owner)[attr]))
        for counter, (owner, attr) in COUNTED_METHODS.items():
            self._set(owner, attr, self._counted(counter, vars(owner)[attr]))
        for fn in _solve_functions():
            self._rebind(fn, self._counted(SOLVE_CALLS, fn))
        for model in kernels.KERNELS.values():
            self._set(model, "build", _timed("kernels:build", model.build))
        return self

    def _counted(self, name: str, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def flush(self) -> None:
        """Add the counted calls to the ``repro.obs`` counters and start
        counting from zero; call it while no counted call runs."""
        with self._lock:
            total = sum(self._thread_counts, Counter())
            for counts in self._thread_counts:
                counts.clear()
        for name, value in total.items():
            obs.count(name, value)

    def _rebind(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` to ``wrapper`` at every module-level name bound to it."""
        rebound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(BINDING_PREFIXES):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    rebound += 1
        if not rebound:
            raise LookupError(f"no module binds {fn!r}")

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every wrapped name, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def span_times(spans) -> Dict[str, List[float]]:
    """``name -> [calls, total ms, self ms]`` over finished spans.

    Self time is a span's duration minus the durations of the spans
    whose parent it is; every span of a pass nests inside spans of the
    same pass, so the self times of a tree add up to its root's time.
    """
    children: Counter = Counter()
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id] += sp.duration_ms
    times: Dict[str, List[float]] = {}
    for sp in spans:
        row = times.setdefault(sp.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += sp.duration_ms
        row[2] += sp.duration_ms - children[sp.span_id]
    return times


def _calls(times, span: str) -> float:
    return float(times[span][0]) if span in times else 0.0


def _total_ms(times, span: str) -> float:
    return times[span][1] if span in times else 0.0


def _self_ms(times, span: str) -> float:
    return times[span][2] if span in times else 0.0


def layer_metrics(
    times: Dict[str, List[float]],
    counter: Callable[[str], float],
    workload_counts: Counter,
    cache_delta: Dict[str, tuple],
    serve_stats: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``times`` is :func:`span_times` of the pass's spans, ``counter``
    reads one of the pass's ``repro.obs`` counters, and
    ``workload_counts`` are counts the workload read from its results.
    """
    m: Dict[str, float] = {
        "kernels.build_ms": _total_ms(times, "kernels:build"),
        "engine.compile.ms": _total_ms(times, "compile:kernel"),
        # The compile's own time outside the passes: ``compile:kernel``
        # and the pass manager's loop around them.
        "engine.compile.self_ms": _self_ms(times, "compile:kernel")
        + _self_ms(times, "pipeline:run"),
    }
    for name in PASS_NAMES:
        m[f"engine.{name}.self_ms"] = _self_ms(times, f"pass:{name}")
    for name in ("conversions_inserted", "conversions_eliminated", "graph_ops"):
        m[f"engine.{name}"] = float(workload_counts.get(f"engine.{name}", 0))
    m["codegen.plan_conversion.calls"] = _calls(times, "codegen:plan_conversion")
    m[PLAN_MISSES] = float(counter(PLAN_MISSES))
    m["codegen.plan_conversion.self_ms"] = _self_ms(times, "codegen:plan_conversion")
    for name in ("optimal_swizzled_layout", "plan_warp_shuffle"):
        m[f"codegen.{name}.calls"] = _calls(times, f"codegen:{name}")
        m[f"codegen.{name}.ms"] = _total_ms(times, f"codegen:{name}")
    m["codegen.classify_conversion.ms"] = _total_ms(times, "codegen:classify_conversion")
    for name in (*COUNTED_METHODS, SOLVE_CALLS):
        m[name] = float(counter(name))
    m["program.lower_plan.calls"] = _calls(times, "codegen:lower_plan")
    m["program.lower_plan.ms"] = _total_ms(times, "codegen:lower_plan")
    m["program.interp_run.ms"] = _total_ms(times, "sim:run_program")
    m["gpusim.price_program.calls"] = _calls(times, "gpusim:price_program")
    m["gpusim.price_program.ms"] = _total_ms(times, "gpusim:price_program")
    for step in ("priced_conversion", "materialize", "run", "verify"):
        m[f"gpusim.{step}.ms"] = _total_ms(times, f"gpusim:{step}")
    for name in ("sim_instructions", "sim_cycles", "shared_wavefronts", "bank_conflicts"):
        m[f"gpusim.{name}"] = float(workload_counts.get(f"gpusim.{name}", 0))
    for name in CACHES:
        hits, misses, evictions = cache_delta.get(name, (0, 0, 0))
        m[f"cache.{name}.hits"] = float(hits)
        m[f"cache.{name}.misses"] = float(misses)
        m[f"cache.{name}.evictions"] = float(evictions)
        m[f"cache.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in ("queue_wait_ms", "compile_ms", "shared_ratio"):
        m[f"serve.{name}"] = float(serve_stats.get(name, 0.0))
    return m


#: Units of the per-layer metrics that must repeat exactly from pass to
#: pass on a workload whose work does not depend on thread timing.
EXACT_UNITS = ("count", "cycles")


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_cycles"):
        return "cycles"
    return "count"
