"""One pass of one workload, in a fresh process (started by ``run.py``).

Usage: ``worker.py WORKLOAD SEED {setup,run} {0,1} T0 TMPDIR OUT``

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, the
workload's set-up (for serve-mix: the daemon until ``/healthz``
answers) and one untimed warm-up request whose tuning key is not in the
timed list. ``setup`` mode stops there. ``run`` mode then times the
seeded request list and writes the raw samples to OUT as JSON; with
tracing on (``1``) it also writes the per-layer metrics.
"""

import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


class _Node:
    __slots__ = ("name", "kids", "attrs")

    def __init__(self, name):
        self.name = name
        self.kids = []
        self.attrs = {}


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python job shaped like compiler work
    (build an object tree, then walk it). It touches no ``repro`` code,
    so it measures only how fast the host runs Python right now."""
    start = time.perf_counter()
    root = _Node("root")
    path = [root]
    for i in range(6000):
        node = _Node("n%d" % (i % 97))
        node.attrs["k"] = i
        path[-1].kids.append(node)
        if i % 7 == 0:
            path.append(node)
        if len(path) > 20:
            path.pop()
    total = 0
    todo = [root]
    while todo:
        node = todo.pop()
        total += len(node.name) + node.attrs.get("k", 0)
        todo.extend(node.kids)
    return time.perf_counter() - start


def _timed_requests(workload, requests, recorder):
    samples = []
    for number, request in enumerate(requests, 1):
        # a request pays for its own garbage only: collect what earlier
        # requests left and exempt the survivors from later collections
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        probe = host_probe()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if recorder is not None:
                ok, problems, data = recorder.request(
                    number, workload.run, request)
            else:
                ok, problems, data = workload.run(request)
        except Exception:  # a failed request is a sample, not a crash
            ok, data = False, {}
            problems = [traceback.format_exc(limit=3).strip()]
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if ok:
            workload.reference(request, data)
        samples.append({"key": list(request["key"]),
                        "warm": request["warm"],
                        "replay": request["replay"], "latency_s": latency,
                        "cpu_s": cpu, "probe_s": probe, "ok": ok,
                        "problems": problems,
                        "service_s": data.get("service_s")})
    return samples


def main(argv) -> int:
    name, seed, mode, trace, t0, tmp, out = argv
    signal.signal(signal.SIGTERM, _terminate)
    workload = workloads.make(name, tmp, trace == "1")
    recorder = None
    try:
        if trace == "1":
            recorder = tracing.Recorder()
            tracing.install(recorder)
        workload.setup()
        if recorder is not None:
            recorder.request(0, workload.warmup)
        else:
            workload.warmup()
        result = {"setup_s": time.monotonic() - float(t0)}
        if mode == "run":
            requests = workloads.request_list(name, int(seed))
            ledger_start = workload.ledger_appends()
            cpu_start = workload.cpu_seconds()
            samples = _timed_requests(workload, requests, recorder)
            result["cpu_s"] = workload.cpu_seconds() - cpu_start + \
                sum(sample["cpu_s"] for sample in samples)
            result["ledger_appends"] = \
                workload.ledger_appends() - ledger_start
            result["samples"] = samples
            result["speedup"] = workload.speedup()
        result["peak_rss_mb"] = workload.teardown()
    finally:
        workload.kill()
    if recorder is not None and mode == "run":
        spans = recorder.spans + workload.daemon_spans()
        layers = tracing.layer_metrics(spans, range(1, len(samples) + 1))
        service = [s["service_s"] for s in samples
                   if s["service_s"] is not None]
        overhead = [s["latency_s"] - s["service_s"] for s in samples
                    if s["service_s"] is not None]
        layers["serve.service_p50_s"] = \
            statistics.median(service) if service else 0.0
        layers["serve.wait_overhead_s"] = \
            statistics.median(overhead) if overhead else 0.0
        layers["serve.ledger_appends"] = result["ledger_appends"]
        result["layers"] = layers
    with open(out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
