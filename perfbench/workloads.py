"""The benchmark's four workloads: seeded request lists and runners.

Every workload is a closed loop with one caller. Its request list is a
pure function of the seed (:func:`request_list`): the seed orders a fixed
set of requests, so every seed times the same work and medians stay
comparable across seeds. A repeat of an earlier request is *warm*, a first
occurrence *cold*. Requests in an in-process workload's replay phase count
for ``warm_p50_s`` and ``correct_ratio`` only; every other request is
primary and counts for the latency median and tail.

Runners execute one request and check its output. A runner returns
``(ok, problems, data)``; ``problems`` names every failed check.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ARCHS = ("a4000", "rx6800", "a100", "mi210")

#: The fixed request sets below are the cheaper part of each population:
#: a run must hold at least 40 primary requests (ten beyond the p75 tail)
#: and still fit in 15-35 s on a 2-vCPU machine.

#: tune-sweep: twenty Fig. 13 launch groups (Rodinia + HeCBench extras,
#: from one to 1023 grids), each swept on one NVIDIA and one AMD model
SWEEP_GROUPS = (
    ("backprop", "adjust_weights"), ("bfs", "bfs_kernel1"),
    ("bfs", "bfs_kernel2"), ("cfd", "cuda_time_step"),
    ("gaussian", "Fan1"), ("gaussian", "Fan2"),
    ("hec-atax", "atax_kernel1"), ("hec-atax", "atax_kernel2"),
    ("hec-gemm", "gemm_tiled"), ("hec-reduction", "reduce_kernel"),
    ("hec-softmax", "softmax_kernel"), ("hec-stencil1d", "stencil_1d"),
    ("hec-transpose", "transpose_tiled"), ("lud", "lud_internal"),
    ("nn", "euclid"), ("particlefilter", "find_index_kernel"),
    ("particlefilter", "normalize_kernel"),
    ("particlefilter", "sum_kernel"), ("streamcluster", "compute_cost"),
    ("srad_v1", "reduce"),
)

#: verify-functional: ten Rodinia ports interpreted at verify size on
#: each of the four models
VERIFY_PROGRAMS = ("backprop", "bfs", "cfd", "hotspot3D", "lavaMD",
                   "myocyte", "nn", "particlefilter", "pathfinder",
                   "streamcluster")

#: serve-mix: six Rodinia ports, each on one NVIDIA and one AMD model ->
#: 12 signatures, each sent once cold (a full composite tune at model
#: size, the paper's retarget flow) and then SERVE_REPEATS times warm ->
#: 192 requests, so that the p90 tail falls among the warm ones
SERVE_SIGNATURES = tuple(
    (program, arch) for i, program in enumerate(
        ("bfs", "gaussian", "lavaMD", "myocyte", "nn", "streamcluster"))
    for arch in (ARCHS[i % 4], ARCHS[(i + 1) % 4]))
SERVE_REPEATS = 15

#: The in-process workloads send their primary (cold) requests first, then
#: a replay phase of a fixed subset (the same for every seed). Replaying one
#: program on all four archs keeps the warm median in a dense cluster.
VERIFY_REPLAYED = ("backprop",)
VERIFY_ROUNDS = 4
SWEEP_REPLAYED = 16


def _phases(cold: List[tuple], replayed: List[tuple], rounds: int,
            rng: random.Random) -> List[dict]:
    """``cold`` in its (seeded) order, then ``rounds`` repeats of each key
    in ``replayed``, shuffled."""
    replays = [key for key in replayed for _ in range(rounds)]
    rng.shuffle(replays)
    return [{"key": key, "warm": False, "replay": False} for key in cold] + \
        [{"key": key, "warm": True, "replay": True} for key in replays]


def request_list(workload: str, seed: int) -> List[dict]:
    """The request list of ``workload`` for ``seed``."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "tune-sweep":
        cold = [(bench, kernel, arch)
                for i, (bench, kernel) in enumerate(SWEEP_GROUPS)
                for arch in (ARCHS[i % 4], ARCHS[(i + 1) % 4])]
        replayed = random.Random(workload).sample(cold, SWEEP_REPLAYED)
        rng.shuffle(cold)
        return _phases(cold, replayed, 1, rng)
    if workload == "verify-functional":
        cold = [(p, a) for p in VERIFY_PROGRAMS for a in ARCHS]
        rng.shuffle(cold)
        return _phases(cold, [(p, a) for p in VERIFY_REPLAYED
                              for a in ARCHS], VERIFY_ROUNDS, rng)
    if workload == "serve-mix":
        tokens = [sig for sig in SERVE_SIGNATURES
                  for _ in range(SERVE_REPEATS + 1)]
        rng.shuffle(tokens)
        seen = set()
        requests = []
        for key in tokens:
            requests.append({"key": key, "warm": key in seen,
                             "replay": False})
            seen.add(key)
        return requests
    raise KeyError("unknown workload %r" % workload)


WORKLOADS = ("tune-sweep", "verify-functional", "serve-mix")


# -- output checks -----------------------------------------------------------


def _is_time(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0


def check_decisions(decisions: List[dict]) -> Tuple[List[str], List[float]]:
    """Check every TDO decision of one request.

    The uncoarsened config must be valid (have a modeled time), and the
    winner must be the fastest valid candidate and no slower than the
    uncoarsened one. Returns ``(problems, speedups)`` where a speedup is
    uncoarsened time over winner time.
    """
    problems: List[str] = []
    speedups: List[float] = []
    if not decisions:
        problems.append("no tuning decision recorded")
    for decision in decisions:
        label = decision["wrapper"]
        alternatives = decision["alternatives"]
        timed = [a["time_seconds"] for a in alternatives
                 if a["time_seconds"] is not None]
        baseline = next((a for a in alternatives
                         if a["config"] is not None and
                         a["config"].get("block_total", 1) == 1 and
                         a["config"].get("thread_total", 1) == 1), None)
        winner = next((a for a in alternatives if a["selected"]), None)
        if baseline is None or baseline["time_seconds"] is None:
            problems.append("%s: uncoarsened config not valid" % label)
            continue
        if winner is None or not _is_time(winner["time_seconds"]):
            problems.append("%s: no winner" % label)
            continue
        if winner["time_seconds"] != min(timed):
            problems.append("%s: winner is not the fastest valid candidate"
                            % label)
        if winner["time_seconds"] > baseline["time_seconds"]:
            problems.append("%s: winner slower than uncoarsened" % label)
        speedups.append(baseline["time_seconds"] / winner["time_seconds"])
    return problems, speedups


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- in-process workloads -----------------------------------------------------


def _fresh_engine():
    from repro.engine import TuningCache, TuningEngine
    return TuningEngine(cache=TuningCache(None), workers=1)


class Workload:
    """Runs one workload's requests in this process."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.speedups: List[float] = []

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, request: dict) -> Tuple[bool, List[str], dict]:
        raise NotImplementedError

    def reference(self, request: dict, data: dict) -> None:
        """Untimed follow-up of a request (feeds the modeled speedup)."""

    def speedup(self) -> float:
        return geomean(self.speedups)

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by processes other than this one
        (the serve daemon); this process's own is taken per request."""
        return 0.0

    def ledger_appends(self) -> int:
        return 0

    def kill(self) -> None:
        """Stops what :meth:`setup` started, on the error path."""

    def daemon_spans(self) -> List[tuple]:
        """Spans recorded outside this process (traced runs)."""
        return []

    def teardown(self) -> float:
        """Stops what :meth:`setup` started; returns the peak RSS in MB of
        the process that compiled."""
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TuneSweep(Workload):
    """sweep_kernel_configs over all 21 paper_sweep_configs, fresh engine
    per request; the eager path caches nothing, so a repeat recomputes."""

    def __init__(self, tmp: str):
        super().__init__(tmp)
        self.sweeps: List[object] = []

    @staticmethod
    def _group(bench_name: str, kernel: str):
        from repro.benchsuite.experiments import (_launch_groups,
                                                  resolve_benchmark)
        bench = resolve_benchmark(bench_name)
        matches = [(block, grids) for (name, block), grids
                   in _launch_groups(bench).items() if name == kernel]
        if len(matches) != 1:
            raise KeyError("%s/%s is not one launch group"
                           % (bench_name, kernel))
        return bench, matches[0]

    def _sweep(self, bench_name, kernel, arch):
        from repro.autotune import paper_sweep_configs
        from repro.benchsuite.experiments import sweep_kernel_configs
        from repro.targets import arch_by_name
        bench, (block, grids) = self._group(bench_name, kernel)
        return sweep_kernel_configs(bench.source, kernel, block, grids,
                                    arch_by_name(arch),
                                    paper_sweep_configs(), bench_name,
                                    engine=_fresh_engine())

    def warmup(self) -> None:
        self._sweep("srad_v1", "extract", "a100")

    def run(self, request):
        sweep = self._sweep(*request["key"])
        problems = []
        baseline = sweep.baseline()
        best = sweep.best()
        valid = [r.seconds for r in sweep.results if r.valid]
        if baseline is None or not _is_time(baseline.seconds):
            problems.append("uncoarsened config not valid")
        elif best is None or best.seconds != min(valid) or \
                best.seconds > baseline.seconds:
            problems.append("best config is not the fastest valid one")
        if any(not _is_time(seconds) for seconds in valid):
            problems.append("non-positive modeled time")
        return not problems, problems, {"sweep": sweep}

    def reference(self, request, data):
        if not request["warm"]:
            self.sweeps.append(data["sweep"])

    def speedup(self) -> float:
        from repro.benchsuite.experiments import (MIN_KERNEL_SECONDS,
                                                  fig13_summary)
        kept = [s for s in self.sweeps
                if s.baseline().seconds >= MIN_KERNEL_SECONDS]
        return fig13_summary(kept)["combined"]


class VerifyFunctional(Workload):
    """verify_benchmark at the polygeist tier and verify size: compile,
    interpret the host driver, compare with the numpy reference."""

    def __init__(self, tmp: str):
        super().__init__(tmp)
        self.engines: Dict[tuple, object] = {}

    def _verify(self, program, arch, engine, size=None):
        from repro.benchsuite.base import verify_benchmark
        from repro.engine import set_default_engine
        from repro.obs import decisions as obs_decisions
        from repro.targets import arch_by_name
        set_default_engine(engine)
        log = obs_decisions.DecisionLog()
        try:
            with obs_decisions.logging_decisions(log):
                result = verify_benchmark(program, arch_by_name(arch),
                                          size=size)
        finally:
            set_default_engine(None)
        return result, log

    def warmup(self) -> None:
        from repro.benchsuite import get_benchmark
        nn = get_benchmark("nn")
        self._verify("nn", "a100", _fresh_engine(), nn.verify_size // 2)

    def run(self, request):
        key = request["key"]
        if not request["warm"]:
            self.engines[key] = _fresh_engine()
        result, log = self._verify(key[0], key[1], self.engines[key])
        problems = []
        if not result.passed:
            problems.append("max relative error %g above rtol"
                            % result.max_error)
        speedups = []
        if request["warm"]:
            if len(log):
                problems.append("repeat re-tuned instead of replaying")
        else:
            decision_problems, speedups = check_decisions(
                log.as_dict()["decisions"])
            problems.extend(decision_problems)
        return not problems, problems, {"speedups": speedups}

    def reference(self, request, data):
        self.speedups.extend(data["speedups"])


# -- serve-mix ----------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from /proc (Linux)."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeMix(Workload):
    """``repro serve --isolation thread --workers 1`` on a fresh cache and
    ledger directory, driven by one blocking client."""

    #: the client polls a running job every POLL_SHARE of the time it has
    #: waited so far, and at least every POLL_MIN_S: 1 ms granularity on
    #: warm replays (5-200 ms of service), 5% on cold tunes, which spares
    #: the daemon a thousand polls a second while it tunes
    POLL_SHARE = 0.05
    POLL_MIN_S = 0.001

    def __init__(self, tmp: str, traced: bool = False):
        super().__init__(tmp)
        self.spans_out = os.path.join(tmp, "daemon-spans.json") \
            if traced else None
        self.process = None
        self.client = None
        self.cold: Dict[tuple, dict] = {}

    def setup(self) -> None:
        from repro.serve import ServeClient
        ready = os.path.join(self.tmp, "ready")
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "serve_host.py")]
        if self.spans_out:
            command += ["--spans", self.spans_out]
        command += ["--", "serve", "--port", "0", "--isolation", "thread",
                    "--workers", "1",
                    "--cache", os.path.join(self.tmp, "cache"),
                    "--ready-file", ready]
        self.log = open(os.path.join(self.tmp, "daemon.log"), "w")
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=self.log,
            stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        url = ""
        while not url:
            if self.process.poll() is not None or \
                    time.monotonic() > deadline:
                raise RuntimeError("daemon did not start (see %s)"
                                   % self.log.name)
            if os.path.exists(ready):
                with open(ready) as handle:
                    url = handle.read().strip()
            if not url:
                time.sleep(0.005)
        self.client = ServeClient(url, timeout=120.0, retries=0)
        while not self.client.alive():
            time.sleep(0.005)

    def _call(self, payload: dict) -> dict:
        return self.wait(self.client.submit(payload)["job"])

    def wait(self, job_id: str) -> dict:
        """Polls ``GET /v1/jobs/<id>/result`` until the job is done."""
        from repro.serve import ServeError
        start = time.monotonic()
        while True:
            payload = self.client.result(job_id)
            if payload["_status"] == 200:
                if payload.get("state") == "failed":
                    raise ServeError("job %s failed: %s"
                                     % (job_id, payload.get("error", "")))
                return payload
            waited = time.monotonic() - start
            if waited > 120.0:
                raise ServeError("timed out waiting for job %s" % job_id)
            time.sleep(max(self.POLL_MIN_S, waited * self.POLL_SHARE))

    def warmup(self) -> None:
        from repro.benchsuite import get_benchmark
        self._call({"benchmark": "nn", "arch": "a100",
                    "size": get_benchmark("nn").model_size // 2})

    def ledger_appends(self) -> int:
        return int(self.client.ledger_stats()["ledger"]["appends"])

    def run(self, request):
        from repro.serve import ServeError
        from repro.targets import arch_by_name
        program, arch = request["key"]
        try:
            result = self._call({"benchmark": program, "arch": arch})
        except ServeError as error:
            return False, ["serve error: %s" % error], {}
        problems = []
        answered = result["request"]
        if answered["benchmark"] != program or \
                answered["arch"] != arch_by_name(arch).name:
            problems.append("answered %s" % result["target"])
        if not _is_time(result["seconds"]):
            problems.append("composite time %r" % (result["seconds"],))
        speedups = []
        if request["warm"]:
            cold = self.cold.get((program, arch))
            if not result["cache_hit"] or result["cache"]["misses"]:
                problems.append("repeat was not a full cache replay")
            if cold is None or result["seconds"] != cold["seconds"]:
                problems.append("replay modeled %r, cold %r" % (
                    result["seconds"], cold and cold["seconds"]))
            if result["decisions"] or result["winners"]:
                problems.append("replay re-tuned")
        else:
            if result["cache_hit"]:
                problems.append("first request hit the cache")
            decision_problems, speedups = check_decisions(
                result["decisions"])
            problems.extend(decision_problems)
            if not result["winners"]:
                problems.append("no winners reported")
            self.cold[(program, arch)] = result
        return not problems, problems, {
            "service_s": result["wall_seconds"], "speedups": speedups}

    def reference(self, request, data):
        self.speedups.extend(data.get("speedups", ()))

    def cpu_seconds(self) -> float:
        return _proc_cpu_seconds(self.process.pid)

    def daemon_spans(self) -> List[tuple]:
        if self.spans_out is None:
            return []
        from tracing import load_spans
        return load_spans(self.spans_out)

    def teardown(self) -> float:
        """Drains the daemon (SIGTERM), reaps it, and returns its peak RSS."""
        if self.process is None:
            return 0.0
        peak = 0.0
        if self.process.returncode is None:
            self.process.terminate()
            try:
                _, status, usage = os.wait4(self.process.pid, 0)
                self.process.returncode = os.waitstatus_to_exitcode(status)
                peak = usage.ru_maxrss / 1024.0
            except ChildProcessError:
                self.process.wait(timeout=60)
        self.log.close()
        if self.process.returncode != 0:
            raise RuntimeError("daemon exited with %s (see %s)"
                               % (self.process.returncode, self.log.name))
        return peak

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


def child_env() -> Dict[str, str]:
    """Environment for processes that import ``repro``: ``src`` on the
    path, no ``REPRO_*`` overrides (cache path, workers, faults), a fixed
    hash seed (set and dict-of-str orders repeat between runs) and no
    bytecode written into the checkout (every run compiles the same)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make(workload: str, tmp: str, traced: bool = False) -> Workload:
    if workload == "tune-sweep":
        return TuneSweep(tmp)
    if workload == "verify-functional":
        return VerifyFunctional(tmp)
    if workload == "serve-mix":
        return ServeMix(tmp, traced)
    raise KeyError("unknown workload %r" % workload)
