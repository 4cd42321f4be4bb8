"""Layer tracing for the benchmark's traced run.

The traced run wraps the public entry points of each compiler layer from
the benchmark's own code: :func:`install` replaces each function (or
method) with a wrapper that records a span, and rebinds every name under
which ``repro`` modules refer to the original, so callers that imported
the function by name reach the wrapper too. Nothing under ``src/`` is
edited.

A span is ``(id, parent, name, start, end, request, counts)``. Times come
from ``time.monotonic()`` (system-wide on Linux, so spans recorded in the
``repro serve`` daemon line up with the client's). Spans stay in memory
and are written out once, when the process ends its work. A layer's self
time is its span's duration minus the part of that interval its child
spans cover; the time a request spends in no layer is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Sequence

#: root span names: one per request, not a layer
REQUEST = "request"
SERVE_JOB = "serve.job"


def _plan_counts(args, result, before):
    return {"planned": len(result.alternatives)}


def _materialize_counts(args, result, before):
    return {"materialized": len(result.regions)}


def _planned_filter_counts(args, result, before):
    merged, _alt = result
    return {"inputs": len(args[0]), "survivors": len(merged.survivors)}


def _filter_counts(args, result, before):
    return {"inputs": before, "survivors": len(result.survivors)}


def _tdo_counts(args, result, before):
    return {"candidates": len(result.candidates)}


def _lookup_counts(args, result, before):
    hit = bool(result[0])
    return {"hits": int(hit), "misses": int(not hit)}


def _region_count(args):
    return len(args[0].regions)


#: (span name, module, attribute path, counts(args, result, before), before)
#: — the public functions timed for each layer. The span name is the
#: layer; several functions may feed one layer.
TARGETS = (
    ("frontend", "repro.frontend.cparser", "parse_translation_unit",
     None, None),
    ("frontend", "repro.frontend.codegen", "ModuleGenerator.__init__",
     None, None),
    ("frontend", "repro.frontend.codegen",
     "ModuleGenerator.get_launch_wrapper", None, None),
    ("transforms.cleanup", "repro.transforms.pipeline", "run_cleanup",
     None, None),
    ("transforms.cleanup", "repro.transforms.pipeline", "cleanup_regions",
     None, None),
    ("alternatives.plan", "repro.transforms.alternatives",
     "plan_coarsening_alternatives", _plan_counts, None),
    ("alternatives.materialize", "repro.transforms.alternatives",
     "PlannedAlternatives.materialize", _materialize_counts, None),
    ("alternatives.generate", "repro.transforms.alternatives",
     "generate_coarsening_alternatives", None, None),
    ("autotune.filters", "repro.autotune.filters", "run_planned_filters",
     _planned_filter_counts, None),
    ("autotune.filters", "repro.autotune.filters", "run_filters",
     _filter_counts, _region_count),
    ("targets.registers", "repro.targets.registers", "estimate_registers",
     None, None),
    ("autotune.tdo", "repro.autotune.tdo", "timing_driven_optimization",
     _tdo_counts, None),
    ("simulator.model", "repro.pipeline", "Program.model_launch_seconds",
     None, None),
    ("simulator.model", "repro.simulator.model", "model_wrapper_launch",
     None, None),
    ("interpreter", "repro.interpreter.interp", "Interpreter.run_func",
     None, None),
    ("engine.cache.lookup", "repro.engine.cache", "TuningCache.lookup",
     _lookup_counts, None),
    ("engine.cache.store", "repro.engine.cache", "TuningCache.store",
     None, None),
    ("serve.submit", "repro.serve.client", "ServeClient.submit",
     None, None),
    ("serve.wait", "workloads", "ServeMix.wait", None, None),
)

#: (metric, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("frontend.self_s", "s", "lower"),
    ("frontend.calls", "count", "lower"),
    ("transforms.cleanup.self_s", "s", "lower"),
    ("transforms.cleanup.calls", "count", "lower"),
    ("transforms.alternatives.plan_s", "s", "lower"),
    ("transforms.alternatives.materialize_s", "s", "lower"),
    ("transforms.alternatives.generate_s", "s", "lower"),
    ("transforms.alternatives.planned", "count", "lower"),
    ("transforms.alternatives.materialized", "count", "lower"),
    ("transforms.alternatives.materialized_ratio", "ratio", "lower"),
    ("autotune.filters.self_s", "s", "lower"),
    ("autotune.filters.survivor_ratio", "ratio", "lower"),
    ("targets.registers.self_s", "s", "lower"),
    ("targets.registers.calls", "count", "lower"),
    ("autotune.tdo.self_s", "s", "lower"),
    ("autotune.tdo.candidates", "count", "lower"),
    ("simulator.model.self_s", "s", "lower"),
    ("interpreter.self_s", "s", "lower"),
    ("interpreter.calls", "count", "lower"),
    ("benchsuite.reference_s", "s", "lower"),
    ("benchsuite.inputs_s", "s", "lower"),
    ("engine.cache.lookup_s", "s", "lower"),
    ("engine.cache.store_s", "s", "lower"),
    ("engine.cache.hits", "count", "higher"),
    ("engine.cache.misses", "count", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("serve.submit_s", "s", "lower"),
    ("serve.wait_s", "s", "lower"),
    ("serve.service_p50_s", "s", "lower"),
    ("serve.wait_overhead_s", "s", "lower"),
    ("serve.ledger_appends", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.requests_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: metrics that must repeat exactly between two traced runs at one seed
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class Recorder:
    """Collects spans in memory; one per traced process."""

    def __init__(self, id_base: int = 0):
        self.spans: List[tuple] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._jobs = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, request, call: Callable, args, kwargs,
             counts=None, before=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request))
        state = before(args) if before is not None else None
        start = time.monotonic()
        try:
            result = call(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        observed = counts(args, result, state) if counts is not None \
            else None
        self.spans.append((span_id, parent[0] if parent else None, name,
                           start, end, request, observed))
        return result

    def request(self, request_id: int, call: Callable, *args):
        """Run ``call(*args)`` as the root span of request ``request_id``."""
        return self._run(REQUEST, request_id, call, args, {})

    def wrap(self, name: str, function: Callable, counts=None,
             before=None) -> Callable:
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return recorder._run(name, None, function, args, kwargs,
                                 counts, before)
        return traced

    def wrap_job(self, function: Callable) -> Callable:
        """Root wrapper for the daemon's job runner: the n-th job run is
        request ``n`` (the client's warm-up is request 0)."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return recorder._run(SERVE_JOB, next(recorder._jobs), function,
                                 args, kwargs)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns how many names were rebound."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


#: modules that hold references to traced functions; imported before
#: wrapping so that every name is rebound
_IMPORT_FIRST = ("repro.__main__", "repro.pipeline", "repro.benchsuite",
                 "repro.benchsuite.experiments", "repro.benchsuite.hecbench",
                 "repro.serve.server", "repro.validate",
                 "repro.analysis.report")


def install(recorder: Recorder, daemon: bool = False) -> None:
    """Wrap every function in :data:`TARGETS` and each benchmark's
    reference and input builder; in the daemon, also make the job runner
    the request root."""
    for module_name in _IMPORT_FIRST:
        importlib.import_module(module_name)
    for name, module_name, path, counts, before in TARGETS:
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = recorder.wrap(name, original, counts, before)
        if len(parts) > 1:
            setattr(owner, parts[-1], wrapped)
        elif not _rebind(original, wrapped):
            raise RuntimeError("no reference to %s.%s to trace"
                               % (module_name, path))
    _wrap_benchmarks(recorder)
    if daemon:
        jobs = importlib.import_module("repro.serve.jobs")
        original = jobs.run_tune_job
        _rebind(original, recorder.wrap_job(original))


def _wrap_benchmarks(recorder: Recorder) -> None:
    from repro.benchsuite import BENCHMARKS
    done = set()
    for bench in BENCHMARKS.values():
        cls = type(bench)
        for attr, span in (("run_cpu", "benchsuite.reference"),
                           ("build_inputs", "benchsuite.inputs")):
            owner = next(c for c in cls.__mro__ if attr in vars(c))
            if (owner, attr) in done:
                continue
            done.add((owner, attr))
            setattr(owner, attr, recorder.wrap(span, vars(owner)[attr]))


def load_spans(path: str) -> List[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: Sequence[tuple],
                  timed: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics over the spans of the ``timed`` requests.

    Daemon job roots (``serve.job``) become children of the client's
    ``serve.wait`` span of the same request, so the wait's self time is
    what the client waited beyond the job itself.
    """
    timed = set(timed)
    spans = [span for span in spans if span[5] in timed]
    by_id = {span[0]: span for span in spans}
    waits = {span[5]: span[0] for span in spans if span[2] == "serve.wait"}
    parent_of = {}
    children: Dict[object, list] = {}
    for span in spans:
        parent = span[1]
        if span[2] == SERVE_JOB:
            parent = waits.get(span[5])
        parent_of[span[0]] = parent
        children.setdefault(parent, []).append((span[3], span[4]))

    def under_generate(span_id) -> bool:
        parent = parent_of.get(span_id)
        while parent is not None:
            if by_id[parent][2] == "alternatives.generate":
                return True
            parent = parent_of.get(parent)
        return False

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    plan_s = materialize_s = generate_s = requests_s = 0.0
    for span in spans:
        span_id, _, name, start, end, _, observed = span
        own = (end - start) - _covered(start, end,
                                       children.get(span_id, ()))
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        for key, value in (observed or {}).items():
            counts[key] = counts.get(key, 0) + value
        if name == REQUEST:
            requests_s += end - start
        if name == "alternatives.generate":
            generate_s += end - start
        elif name == "alternatives.plan" and not under_generate(span_id):
            plan_s += own
        elif name == "alternatives.materialize" and \
                not under_generate(span_id):
            materialize_s += own

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    lookups = counts.get("hits", 0) + counts.get("misses", 0)
    return {
        "frontend.self_s": self_s.get("frontend", 0.0),
        "frontend.calls": calls.get("frontend", 0),
        "transforms.cleanup.self_s": self_s.get("transforms.cleanup", 0.0),
        "transforms.cleanup.calls": calls.get("transforms.cleanup", 0),
        "transforms.alternatives.plan_s": plan_s,
        "transforms.alternatives.materialize_s": materialize_s,
        "transforms.alternatives.generate_s": generate_s,
        "transforms.alternatives.planned": counts.get("planned", 0),
        "transforms.alternatives.materialized":
            counts.get("materialized", 0),
        "transforms.alternatives.materialized_ratio":
            ratio("materialized", "planned"),
        "autotune.filters.self_s": self_s.get("autotune.filters", 0.0),
        "autotune.filters.survivor_ratio": ratio("survivors", "inputs"),
        "targets.registers.self_s": self_s.get("targets.registers", 0.0),
        "targets.registers.calls": calls.get("targets.registers", 0),
        "autotune.tdo.self_s": self_s.get("autotune.tdo", 0.0),
        "autotune.tdo.candidates": counts.get("candidates", 0),
        "simulator.model.self_s": self_s.get("simulator.model", 0.0),
        "interpreter.self_s": self_s.get("interpreter", 0.0),
        "interpreter.calls": calls.get("interpreter", 0),
        "benchsuite.reference_s": self_s.get("benchsuite.reference", 0.0),
        "benchsuite.inputs_s": self_s.get("benchsuite.inputs", 0.0),
        "engine.cache.lookup_s": self_s.get("engine.cache.lookup", 0.0),
        "engine.cache.store_s": self_s.get("engine.cache.store", 0.0),
        "engine.cache.hits": counts.get("hits", 0),
        "engine.cache.misses": counts.get("misses", 0),
        "engine.cache.hit_ratio":
            counts.get("hits", 0) / lookups if lookups else 0.0,
        "serve.submit_s": self_s.get("serve.submit", 0.0),
        "serve.wait_s": self_s.get("serve.wait", 0.0),
        "unattributed_s": self_s.get(REQUEST, 0.0) +
        self_s.get(SERVE_JOB, 0.0),
        "trace.requests_s": requests_s,
    }
