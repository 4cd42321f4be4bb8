"""Self-test of the benchmark (run from the repository root).

Usage: ``python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]``

Checks, for each workload (all four by default):

* the request list is a pure function of the seed: the same seed gives
  the same list, another seed a different order of the same requests;
* ``BENCHMARK.json`` declares exactly the metrics the code reports, with
  the same units and directions;
* two traced passes at one seed agree exactly on every count
  (:data:`tracing.COUNTS`), on ``modeled_speedup_geomean`` and on the
  outcome of every output check.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def check_lists(name, seed):
    problems = []
    first = workloads.request_list(name, seed)
    if first != workloads.request_list(name, seed):
        problems.append("same seed gave different lists")
    other = workloads.request_list(name, seed + 1)
    if first == other:
        problems.append("seeds %d and %d gave the same list"
                        % (seed, seed + 1))
    if sorted(map(repr, first)) != sorted(map(repr, other)):
        problems.append("the request set depends on the seed")
    return problems


def check_declaration():
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", tracing.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if got != list(table):
            problems.append("BENCHMARK.json %s differs from the code"
                            % key)
    if [w["name"] for w in declared["workloads"]] != \
            list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code")
    return problems


def check_repeatable(name, seed, tmp_root):
    first, second = (run.run_pass(name, seed, "run", 1, tmp_root)
                     for _ in range(2))
    problems = []
    for metric in tracing.COUNTS:
        if first["layers"][metric] != second["layers"][metric]:
            problems.append("%s: %r then %r" % (
                metric, first["layers"][metric], second["layers"][metric]))
    if first["speedup"] != second["speedup"]:
        problems.append("modeled_speedup_geomean: %r then %r"
                        % (first["speedup"], second["speedup"]))
    outcomes = [[s["ok"] for s in result["samples"]]
                for result in (first, second)]
    if outcomes[0] != outcomes[1] or not all(outcomes[0]):
        problems.append("output checks failed or differed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    failures = ["BENCHMARK.json: %s" % p for p in check_declaration()]
    os.makedirs(run.TMP_PARENT, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=run.TMP_PARENT)
    try:
        for name in args.workloads:
            problems = check_lists(name, args.seed) + \
                check_repeatable(name, args.seed, tmp_root)
            print("%-18s %s" % (name, "ok" if not problems
                                else "; ".join(problems)))
            failures.extend("%s: %s" % (name, p) for p in problems)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(run.TMP_PARENT)
        except OSError:
            pass
    for failure in failures:
        print("FAILED %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
