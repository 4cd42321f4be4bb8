"""The repository benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune-sweep --seed 1 --seconds 25 \\
        --trace 0

Workloads: ``tune-sweep``, ``verify-functional``, ``serve-mix`` (see
``workloads.py`` and ``README.md``). Each pass runs in
a fresh worker process. With ``--trace 0`` the run makes
:data:`SETUP_PROBES` set-up-only passes and one timed pass and reports
the end-to-end metrics; with ``--trace 1`` it makes one untimed-tracing
pass and one traced pass of the same request list and reports the
per-layer metrics. Every metric is printed by name with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when an
output check failed and 2 when the benchmark could not run.

``--seconds`` is accepted but does not stop a run: every workload runs a
fixed-length request list (15-35 s on a 2-vCPU machine), so both sides of
a comparison do the same work.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("modeled_speedup_geomean", "x", "higher"),
    ("correct_ratio", "ratio", "higher"),
    ("cold_p50_s", "s", "lower"),
    ("warm_p50_s", "s", "lower"),
)

#: set-up-only passes per untraced run, besides the timed pass's own
#: set-up; setup_s is the median of all of them
SETUP_PROBES = 2

#: a worker pass that takes longer than this is killed
PASS_TIMEOUT_S = 150.0

#: scratch space (caches, ledgers, pass results) inside the checkout
TMP_PARENT = ".perfbench-tmp"

#: the host-speed probe's median time on the reference host (an idle
#: 2-vCPU VM). Shared hosts run the same work 10-40% slower or faster from
#: one minute to the next, so every timed metric but setup_s is scaled by
#: PROBE_REFERENCE_S / (the run's median probe time): seconds at
#: reference host speed.
PROBE_REFERENCE_S = 0.008

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99, 90, 75)
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def tail(latencies):
    """``(percentile, value)``: the highest of p99/p90/p75 (nearest rank)
    with at least ten samples beyond it."""
    ordered = sorted(latencies)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1]
    raise BenchError("%d samples are too few for a tail percentile"
                     % len(ordered))


def run_pass(workload, seed, mode, trace, tmp_root):
    """One worker process; returns its result dict."""
    tmp = tempfile.mkdtemp(prefix="%s-%s-" % (workload, mode), dir=tmp_root)
    out = os.path.join(tmp, "result.json")
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload,
               str(seed), mode, str(trace), repr(time.monotonic()), tmp,
               out]
    process = subprocess.Popen(command, env=child_env(),
                               stdout=subprocess.DEVNULL)
    try:
        code = process.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        if process.poll() is None:
            process.terminate()  # lets the worker stop its daemon
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    if code != 0 or not os.path.exists(out):
        raise BenchError("%s %s pass exited with %s" % (workload, mode, code))
    with open(out) as handle:
        result = json.load(handle)
    shutil.rmtree(tmp, ignore_errors=True)
    return result


def host_scale(samples):
    """Factor that turns this run's seconds into reference-host seconds."""
    return PROBE_REFERENCE_S / statistics.median(s["probe_s"]
                                                 for s in samples)


def primary_latencies(samples):
    """Latencies of the primary requests, in reference-host seconds."""
    scale = host_scale(samples)
    return [s["latency_s"] * scale for s in samples if not s["replay"]]


def end_to_end(run, setups):
    samples = run["samples"]
    scale = host_scale(samples)
    latencies = primary_latencies(samples)
    cold = [s["latency_s"] * scale for s in samples if not s["warm"]]
    warm = [s["latency_s"] * scale for s in samples if s["warm"]]
    ok = sum(1 for s in samples if s["ok"])
    _, tail_value = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "cpu_s": run["cpu_s"] * scale,
        "peak_rss_mb": run["peak_rss_mb"],
        "modeled_speedup_geomean": run["speedup"],
        "correct_ratio": ok / len(samples),
        "cold_p50_s": statistics.median(cold),
        "warm_p50_s": statistics.median(warm),
    }


def measure(workload, seed, trace, tmp_root):
    """Returns ``(samples, metrics, units)`` for one run."""
    if trace:
        plain = run_pass(workload, seed, "run", 0, tmp_root)
        traced = run_pass(workload, seed, "run", 1, tmp_root)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        scale = host_scale(traced["samples"])
        metrics = {name: value * scale if units[name] == "s" else value
                   for name, value in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(primary_latencies(traced["samples"])) /
            statistics.median(primary_latencies(plain["samples"])))
        return plain["samples"] + traced["samples"], metrics, units
    setups = [run_pass(workload, seed, "setup", 0, tmp_root)["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = run_pass(workload, seed, "run", 0, tmp_root)
    setups.append(run["setup_s"])
    units = {name: unit for name, unit, _ in END_TO_END}
    return run["samples"], end_to_end(run, setups), units


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not "
              "found in %s)" % os.getcwd(), file=sys.stderr)
        return 2
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        samples, metrics, units = measure(args.workload, args.seed,
                                          args.trace, tmp_root)
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run still uses it
    failed = [s for s in samples if not s["ok"]]
    for sample in failed:
        print("FAILED %s%s: %s" % ("/".join(map(str, sample["key"])),
                                   " (repeat)" if sample["warm"] else "",
                                   "; ".join(sample["problems"])))
    for name, value in metrics.items():
        print("%-44s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
