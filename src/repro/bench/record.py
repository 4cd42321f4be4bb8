"""Benchmark recording: machine-readable before/after evidence.

Performance claims in this repo are backed by checked-in ``BENCH_*.json``
files produced through :class:`BenchRecorder`. The schema is deliberately
small and stable so trajectories can be compared across commits:

.. code-block:: json

    {
      "name": "fig16",
      "created": "2026-08-08T12:00:00+00:00",
      "host": {"python": "3.12.3", "numpy": "2.4.6", "cpus": 1},
      "config": {"benchmarks": ["gaussian", "lud"], "archs": ["NVIDIA A100"]},
      "measurements": [
        {"label": "scalar", "cpu_seconds": 7.1, "wall_seconds": 7.3,
         "repeats": 3, "meta": {"REPRO_SCALAR_MODEL": "1"}},
        {"label": "batched", "cpu_seconds": 3.4, "wall_seconds": 3.5,
         "repeats": 3, "meta": {}}
      ],
      "derived": {"speedup_cpu": 2.08, "outputs_identical": true}
    }

``cpu_seconds``/``wall_seconds`` are the *minimum* over ``repeats`` runs:
on shared machines the minimum is the least-noise estimator of the true
cost, and this container's wall clock in particular is very noisy — CPU
time is the number to trust. ``derived`` carries whatever the producing
harness proved about the runs (for the model benches: that the batched
and scalar paths returned ``==``-identical figure data).
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Measurement:
    label: str
    cpu_seconds: float
    wall_seconds: float
    repeats: int
    meta: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "cpu_seconds": self.cpu_seconds,
            "wall_seconds": self.wall_seconds,
            "repeats": self.repeats,
            "meta": dict(self.meta),
        }


def _host_info() -> Dict[str, object]:
    import numpy
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "numpy": numpy.__version__,
    }


class BenchRecorder:
    """Collects timed measurements and writes one ``BENCH_*.json``."""

    def __init__(self, name: str,
                 config: Optional[Dict[str, object]] = None):
        self.name = name
        self.config = dict(config or {})
        self.measurements: List[Measurement] = []
        self.derived: Dict[str, object] = {}

    def measure(self, label: str, fn: Callable[[], object],
                repeats: int = 1,
                env: Optional[Dict[str, str]] = None,
                meta: Optional[Dict[str, object]] = None) -> object:
        """Run ``fn`` ``repeats`` times under optional env overrides.

        Records the minimum CPU/wall seconds over the repeats and returns
        the last run's result (all repeats must be deterministic — the
        result is what callers cross-check between measurement modes).
        """
        saved = {}
        for key, value in (env or {}).items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
        try:
            best_cpu = best_wall = float("inf")
            result = None
            for _ in range(max(1, repeats)):
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                result = fn()
                best_cpu = min(best_cpu, time.process_time() - cpu0)
                best_wall = min(best_wall, time.perf_counter() - wall0)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        merged = dict(meta or {})
        merged.update(env or {})
        self.measurements.append(Measurement(
            label=label, cpu_seconds=best_cpu, wall_seconds=best_wall,
            repeats=max(1, repeats), meta=merged))
        return result

    def derive(self, key: str, value: object) -> None:
        self.derived[key] = value

    def seconds(self, label: str) -> float:
        for m in self.measurements:
            if m.label == label:
                return m.cpu_seconds
        raise KeyError("no measurement labeled %r" % label)

    def speedup(self, baseline: str, contender: str,
                key: Optional[str] = None) -> float:
        """Record and return baseline/contender CPU-time ratio."""
        ratio = self.seconds(baseline) / self.seconds(contender)
        self.derived[key or "speedup_cpu"] = ratio
        return ratio

    def to_dict(self) -> Dict[str, object]:
        from ..analysis.check import provenance_header
        created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        archs = self.config.get("archs")
        return {
            "name": self.name,
            "created": created,
            "provenance": provenance_header(archs, created=created),
            "host": _host_info(),
            "config": self.config,
            "measurements": [m.to_dict() for m in self.measurements],
            "derived": dict(self.derived),
        }

    def write(self, path: str) -> str:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=False)
            f.write("\n")
        return path
