"""Per-stage instrumentation for the tuning engine.

The engine times every compilation stage it drives (parse, cleanup,
alternative generation, filters, TDO) and counts cache traffic, so that
"where does the compile time go" is a single :meth:`EngineStats.report`
away instead of a profiler session.

Since the observability PR, :class:`EngineStats` is a thin facade over
:class:`repro.obs.metrics.MetricsRegistry` — stage wall times are
histograms (``stage.<name>``), event counts are counters — so the engine
and the rest of the pipeline share one metrics implementation. The
familiar ``stage_seconds`` / ``stage_calls`` / ``counters`` views are
derived from the registry on demand. Each :meth:`stage` block also opens
a tracer span (``stage:<name>``), so stage boundaries show up in Chrome
traces when a tracer is installed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional

from ..obs import tracer as obs_tracer
from ..obs.metrics import MetricsRegistry

#: canonical stage names, in pipeline order (for report formatting)
STAGE_ORDER = ("parse", "cleanup", "alternatives", "filters", "tdo",
               "replay")

#: registry namespace for stage-timing histograms
STAGE_PREFIX = "stage."


class EngineStats:
    """Wall-time per stage plus event counters, over one metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()

    def reset(self) -> None:
        self.registry.reset()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Charge the wall time of the enclosed block to ``name``."""
        with obs_tracer.span("stage:%s" % name, category="stage"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.registry.histogram(STAGE_PREFIX + name) \
                    .observe(elapsed)

    def count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(name).inc(amount)

    def get(self, name: str) -> int:
        return self.registry.counter_value(name)

    # -- derived views -------------------------------------------------------

    @property
    def stage_seconds(self) -> Dict[str, float]:
        return {name[len(STAGE_PREFIX):]: summary["total"]
                for name, summary
                in self.registry.histogram_summaries().items()
                if name.startswith(STAGE_PREFIX)}

    @property
    def stage_calls(self) -> Dict[str, int]:
        return {name[len(STAGE_PREFIX):]: int(summary["count"])
                for name, summary
                in self.registry.histogram_summaries().items()
                if name.startswith(STAGE_PREFIX)}

    @property
    def counters(self) -> Dict[str, int]:
        return self.registry.counter_values()

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """A plain-data snapshot (the :meth:`Program.stats` payload)."""
        return {
            "stage_seconds": self.stage_seconds,
            "stage_calls": self.stage_calls,
            "counters": self.counters,
        }

    def report(self) -> str:
        """Human-readable stage/counter table for the CLI."""
        stage_seconds = self.stage_seconds
        stage_calls = self.stage_calls
        counters = self.counters
        lines = ["%-16s %10s %8s" % ("stage", "seconds", "calls"),
                 "-" * 36]
        names = [s for s in STAGE_ORDER if s in stage_seconds]
        names += sorted(set(stage_seconds) - set(STAGE_ORDER))
        for name in names:
            lines.append("%-16s %10.3f %8d" %
                         (name, stage_seconds[name],
                          stage_calls.get(name, 0)))
        if counters:
            lines.append("")
            for name in sorted(counters):
                lines.append("%-28s %8d" % (name, counters[name]))
        return "\n".join(lines)


def optional_stage(stats: Optional[EngineStats], name: str):
    """``stats.stage(name)``, or a no-op block when there are no stats."""
    return stats.stage(name) if stats is not None else nullcontext()
