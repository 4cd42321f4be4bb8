"""Scoped cleanup and lazy materialization equivalence.

The autotuning flow cleans only the ``polygeist.alternatives`` regions
(:func:`repro.transforms.cleanup_regions`) instead of re-walking the whole
module, and materializes IR clones only for the configurations that
survive the metadata-level shared-memory filter. Both are pure
performance moves: this file proves, benchsuite-wide, that they change
nothing observable — the printed IR after scoped cleanup equals the
whole-module result, the TDO selection is identical, and the number of
wrapper clones built equals the post-filter survivor count.

Every §VI entry point runs that one flow, so the second half of this file
keeps the eager flow the sweep, figure, and profiling drivers used before
(generate every alternative, re-clean the whole module, time) as a
test-only oracle and pins the drivers' outputs to it.
"""

import numpy as np
import pytest

from repro.autotune import default_configs, paper_sweep_configs
from repro.autotune.tdo import timing_driven_optimization, tune_wrapper
from repro.benchsuite.base import BENCHMARKS, get_benchmark
from repro.dialects import polygeist
from repro.frontend import ModuleGenerator, parse_translation_unit
from repro.ir import print_module
from repro.targets import arch_by_name
from repro.transforms import cleanup_regions, run_cleanup
from repro.transforms.alternatives import (generate_coarsening_alternatives,
                                           plan_coarsening_alternatives)

A100 = arch_by_name("a100")
MI210 = arch_by_name("mi210")


def _launch_groups(bench):
    """(kernel, block) -> grids, at the cheap verification size."""
    groups = {}
    for kernel, grid, block in bench.iter_launches(bench.verify_size):
        groups.setdefault((kernel, tuple(block)), []).append(tuple(grid))
    return groups


def _generate(bench, kernel, block, grid_rank, configs):
    """Parse, pre-clean, and eagerly generate every legal alternative."""
    generator = ModuleGenerator(parse_translation_unit(bench.source))
    name = generator.get_launch_wrapper(kernel, grid_rank, block)
    run_cleanup(generator.module)
    func_op = generator.module.func(name)
    wrapper = polygeist.find_gpu_wrappers(func_op)[0]
    report = generate_coarsening_alternatives(wrapper, configs)
    return generator.module, func_op, report


def _candidate_rows(outcome):
    return [(c.desc, c.time_seconds, c.valid, c.reason)
            for c in outcome.candidates]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_scoped_cleanup_matches_whole_module(name):
    """For every kernel of every benchmark: cleaning just the alternatives
    regions produces byte-identical module IR to re-cleaning the whole
    module, and TDO picks the same winner with the same modeled times."""
    bench = get_benchmark(name)
    configs = paper_sweep_configs()
    compared = 0
    for (kernel, block), grids in _launch_groups(bench).items():
        grid_rank = len(grids[0])
        scoped_mod, scoped_func, scoped = _generate(
            bench, kernel, block, grid_rank, configs)
        full_mod, full_func, full = _generate(
            bench, kernel, block, grid_rank, configs)
        if scoped.op is None:
            assert full.op is None
            continue
        cleanup_regions(list(scoped.op.regions))
        run_cleanup(full_mod)
        assert print_module(scoped_mod) == print_module(full_mod)

        def envs_for(func_op):
            grid_args = func_op.body_block().args[:grid_rank]
            return [dict(zip(grid_args, grid)) for grid in grids]

        chose_scoped = timing_driven_optimization(
            scoped.op, A100, envs_for(scoped_func), select=False)
        chose_full = timing_driven_optimization(
            full.op, A100, envs_for(full_func), select=False)
        assert chose_scoped.selected_desc == chose_full.selected_desc
        assert chose_scoped.selected_time == chose_full.selected_time
        assert _candidate_rows(chose_scoped) == _candidate_rows(chose_full)
        compared += 1
    assert compared > 0, "no kernel of %s produced alternatives" % name


BIG_SHARED_KERNEL = """
__global__ void k(float *in, float *out, int n) {
    __shared__ float tile[4096];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g] * 2.0f;
    __syncthreads();
    out[g] = tile[(t + 1) % 8] + 1.5f;
}
"""


def _build_wrapper(source, kernel="k", block=(8,)):
    generator = ModuleGenerator(parse_translation_unit(source))
    name = generator.get_launch_wrapper(kernel, 1, block)
    run_cleanup(generator.module)
    func_op = generator.module.func(name)
    return func_op, polygeist.find_gpu_wrappers(func_op)[0]


def _capturing_plan(monkeypatch):
    import repro.transforms.alternatives as alternatives_mod
    captured = []

    def capture(wrapper, configs):
        planned = plan_coarsening_alternatives(wrapper, configs)
        captured.append(planned)
        return planned

    monkeypatch.setattr(alternatives_mod, "plan_coarsening_alternatives",
                        capture)
    return captured


def test_clones_built_only_for_filter_survivors(monkeypatch):
    """The 16 KiB tile makes block coarsening overshoot the shared-memory
    limit: those plans must never be cloned at all."""
    captured = _capturing_plan(monkeypatch)
    func_op, wrapper = _build_wrapper(BIG_SHARED_KERNEL)
    env = {func_op.body_block().args[0]: 4}
    configs = [{"thread_total": 1}, {"thread_total": 2},
               {"block_total": 2}, {"block_total": 4}]
    outcome = tune_wrapper(wrapper, A100, env, configs)
    planned = captured[0]
    total = len(planned.alternatives)
    dropped = len(outcome.filters.dropped_shared)
    assert dropped > 0, "expected the shared-memory filter to drop plans"
    assert planned.clones_materialized == total - dropped < total
    # the winner is still one of the shared-memory survivors
    assert outcome.selected_desc in outcome.filters.survivor_descs


def test_clones_built_for_all_when_nothing_filtered(monkeypatch):
    """With no shared-memory pressure every plan is materialized — the
    lazy path degenerates to the eager one."""
    captured = _capturing_plan(monkeypatch)
    source = BIG_SHARED_KERNEL.replace("tile[4096]", "tile[8]")
    func_op, wrapper = _build_wrapper(source)
    env = {func_op.body_block().args[0]: 4}
    configs = [{"thread_total": 1}, {"thread_total": 2},
               {"block_total": 2}]
    outcome = tune_wrapper(wrapper, A100, env, configs)
    planned = captured[0]
    assert not outcome.filters.dropped_shared
    assert planned.clones_materialized == len(planned.alternatives)


def test_materialize_is_one_shot():
    func_op, wrapper = _build_wrapper(
        BIG_SHARED_KERNEL.replace("tile[4096]", "tile[8]"))
    planned = plan_coarsening_alternatives(
        wrapper, [{"thread_total": 1}, {"thread_total": 2}])
    planned.materialize(range(len(planned.alternatives)))
    with pytest.raises(ValueError, match="already materialized"):
        planned.materialize([0])


# -- the eager oracle ----------------------------------------------------------


def _eager_sweep_rows(bench, kernel, block, grids, arch, configs):
    """The eager sweep body: generate every legal alternative, re-clean the
    whole module, apply the measurement cutoff, and time every region
    without selecting. Returns sweep_kernel_configs-shaped rows."""
    from repro.benchsuite.experiments import _apply_measurement_cutoff
    module, func_op, report = _generate(bench, kernel, block,
                                        len(grids[0]), configs)
    rows = []
    if report.op is not None:
        run_cleanup(module)
        grid_args = func_op.body_block().args[:len(grids[0])]
        envs = [dict(zip(grid_args, grid)) for grid in grids]
        envs = _apply_measurement_cutoff(report, arch, envs)
        outcome = timing_driven_optimization(report.op, arch, envs,
                                             select=False)
        rows = _candidate_rows(outcome)
    return rows + [(rejected, float("inf"), False, "illegal coarsening")
                   for rejected in report.rejected]


@pytest.mark.parametrize("arch", [A100, MI210], ids=["a100", "mi210"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_sweep_matches_eager_oracle(name, arch):
    """sweep_kernel_configs (scoped region cleanup) reports exactly the
    eager flow's rows for every launch group of every benchmark."""
    from repro.benchsuite.experiments import sweep_kernel_configs
    bench = get_benchmark(name)
    configs = paper_sweep_configs()
    for (kernel, block), grids in _launch_groups(bench).items():
        sweep = sweep_kernel_configs(bench.source, kernel, block, grids,
                                     arch, configs, name)
        rows = [(r.desc, r.seconds, r.valid, r.reason)
                for r in sweep.results]
        assert rows == _eager_sweep_rows(bench, kernel, block, grids,
                                         arch, configs), (name, kernel)


#: fig15_dimension_sweep() as the eager flow produced it:
#: (block factor x, thread factor x) -> speedup over (1, 1)
FIG15_A100 = [
    ((1, 1), 1.0), ((1, 2), 1.058500310140712), ((1, 4), 1.0903917067335946),
    ((1, 8), 1.107063118955058), ((2, 1), 1.1219363503994912),
    ((2, 2), 1.1799085088678578), ((2, 4), 1.211165376612695),
    ((2, 8), 1.2273464271176382), ((3, 1), 1.1685292758708241),
    ((3, 2), 1.2262580813442858), ((3, 4), 1.2572745057058912),
    ((3, 8), 1.2732863210283398), ((4, 1), 1.1930864862791497),
    ((4, 2), 1.2506224315533643), ((4, 4), 1.2814692812684296),
    ((4, 8), 1.2973729295515977), ((5, 1), 1.2081844925137577),
    ((5, 2), 1.2655895797749046), ((5, 4), 1.2963302596844333),
    ((5, 8), 1.3121256066495894), ((6, 1), 1.2182873919992672),
    ((6, 2), 1.2755898425007808), ((6, 4), 1.3062698142729698),
    ((6, 8), 1.3219734189557837), ((7, 1), 1.2254677860466885),
    ((7, 2), 1.282697209561219), ((7, 4), 1.3133317259113653),
    ((7, 8), 1.3289581305711882), ((8, 1), 1.2307281996601034),
    ((8, 2), 1.2878971796097687), ((8, 4), 1.3184922461957025),
    ((8, 8), 1.1981416342005593), ((9, 1), 1.2348016278333733),
    ((9, 2), 1.2919263561255516), ((9, 4), 1.3224915434671036),
    ((9, 8), 0.7658176596298816), ((10, 1), 1.238008605377),
    ((10, 2), 1.295104036635106), ((10, 4), 1.325650218456848),
    ((10, 8), 0.767280934670766),
]


def test_fig15_pinned_to_eager_flow():
    from repro.benchsuite.experiments import fig15_dimension_sweep
    assert sorted(fig15_dimension_sweep().items()) == FIG15_A100


TILE_REV = """
__global__ void tile_rev(float *in, float *out) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    int g = blockIdx.x * blockDim.x + t;
    tile[t] = in[g];
    __syncthreads();
    out[g] = tile[63 - t];
}
"""

INC = """
__global__ void inc(float *x) {
    x[blockIdx.x * blockDim.x + threadIdx.x] += 1.0f;
}
"""

#: profile_launch's candidates (desc, profiled seconds) as the eager
#: profiling flow produced them; the first one won in both cases
PROFILED = {
    "tile_rev": [
        ("block=1 thread=1", 5.304288566968331e-06),
        ("block=1 thread=2", 5.30715869422035e-06),
        ("block=1 thread=4", 5.312898948724387e-06),
        ("block=2 thread=1", 5.307147611613885e-06),
        ("block=2 thread=2", 5.312865700904993e-06),
        ("block=2 thread=4", 5.324301879487208e-06),
        ("block=4 thread=1", 5.312865700904993e-06),
        ("block=4 thread=2", 5.3242797142742785e-06),
        ("block=4 thread=4", 5.3471077410128495e-06),
    ],
    "inc": [
        ("block=1 thread=1", 5.285139630798118e-06),
        ("block=1 thread=2", 5.2865913183338246e-06),
        ("block=1 thread=4", 5.289494693405238e-06),
        ("block=2 thread=1", 5.2865913183338246e-06),
        ("block=2 thread=2", 5.289483610798774e-06),
        ("block=2 thread=4", 5.29526819572867e-06),
        ("block=4 thread=1", 5.289494693405238e-06),
        ("block=4 thread=2", 5.29526819572867e-06),
        ("block=4 thread=4", 5.306815200375534e-06),
    ],
}


@pytest.mark.parametrize("kernel", sorted(PROFILED))
def test_profile_launch_pinned_to_eager_flow(kernel):
    from repro.engine import TuningCache, TuningEngine
    from repro.pipeline import compile_cuda
    from repro.runtime import GPURuntime
    program = compile_cuda(TILE_REV if kernel == "tile_rev" else INC,
                           arch=A100, autotune_configs=default_configs(4),
                           engine=TuningEngine(cache=TuningCache(None)))
    rt = GPURuntime(A100)
    if kernel == "tile_rev":
        args = [rt.to_device(np.zeros(512, dtype=np.float32)),
                rt.malloc(512, np.float32)]
        grid = 8
    else:
        args = [rt.to_device(np.zeros(256, dtype=np.float32))]
        grid = 4
    program.profile_launch(kernel, grid, 64, args, runtime=rt)
    outcome = program.tuning_outcomes["%s__g1b64" % kernel]
    assert [(c.desc, c.time_seconds) for c in outcome.candidates] == \
        PROFILED[kernel]
    assert all(c.valid for c in outcome.candidates)
    assert (outcome.selected_desc, outcome.selected_time) == \
        PROFILED[kernel][0]
