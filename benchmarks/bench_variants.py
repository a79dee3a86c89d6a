"""EXT-VAR: the stochastic/memory variants on the arc-mask fast path.

The Monte-Carlo variant surveys (hundreds of seeded trials per
parameter point) were the last major workload still running on the
set-based stepper and the per-message engine.  These rows measure the
port onto :mod:`repro.fastpath.variants` on the acceptance workload --
the 10k-node ER scaling family:

* ``lossy_survey`` -- the reference Monte-Carlo survey (synchronous
  engine + counter-based Bernoulli loss) vs
  :func:`repro.fastpath.variant_survey` with the same seed: the two
  summaries are asserted *equal* (same counter RNG coordinates, same
  arithmetic), and the fast path must win by >= 5x on the full
  workload (>= 1.5x on the smoke-sized one -- fixed costs dominate
  small graphs);
* ``parallel`` -- the same survey through a 2-worker pool, asserted
  bit-identical to serial; the speedup ratio is recorded, and asserted
  only on machines with >= 4 usable cores (the 1-core-container
  convention of ``bench_parallel.py``);
* ``kmemory`` -- the deterministic k-memory stepper vs the
  message-passing engine, equality asserted, speedup recorded;
* ``stochastic_lanes`` -- the crossover rows of the two stochastic
  lanes (pure arc-mask stepper, numpy arc-vector stepper): ms/run on
  each lane and on the default selection, for the supercritical survey
  mix on BA1000, lossy floods on the 45x47 torus and on C2047 (mean
  degree 2), and the subcritical 90%-loss survey on the ER family.
  The lanes are asserted bit-identical, and on every run the default
  is asserted within ``DEFAULT_WITHIN`` x the fastest lane (median
  over interleaved repetitions; serial work, so the gate never depends
  on the core count).

The lossy row runs in the *subcritical* regime (90% loss): branching
factor ~0.7, so every trial dies out quickly and the measured cost is
the honest per-trial cost of the survey shape.  (The supercritical
regime self-sustains until the budget on this family -- covered by the
equivalence tests with tight budgets, deliberately not benchmarked at
10k nodes.)

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workload to a smoke-sized batch.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.fastpath import (
    IndexedGraph,
    bernoulli_loss,
    k_memory,
    random_delay,
    select_backend,
    sweep,
    thinning,
    variant_survey,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi, torus_graph
from repro.graphs.random_graphs import barabasi_albert
from repro.parallel import worker_count
from repro.variants import k_memory_trace, lossy_survey

from conftest import record

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
TRIALS = 16 if QUICK else 64
LOSS_RATE = 0.9
SEED = 5
BUDGET = 400
MIN_SPEEDUP = 1.5 if QUICK else 5.0
DEFAULT_WITHIN = 1.25
"""The default lane may cost at most this multiple of the fastest."""


@pytest.fixture(scope="module")
def workload():
    """The acceptance workload: the 10k-node ER scaling family."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    return graph, graph.nodes()[0]


@pytest.fixture(scope="module")
def reference_survey(workload):
    """Best-of-3 reference (engine-based) survey wall time + summary."""
    graph, source = workload
    best = None
    summary = None
    for _ in range(3):
        started = time.perf_counter()
        summary = lossy_survey(
            graph, source, LOSS_RATE, TRIALS, seed=SEED, max_rounds=BUDGET
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, summary


def test_ext_var_lossy_survey_fast_vs_reference(
    benchmark, workload, reference_survey
):
    """The acceptance row: fast-path Monte-Carlo lossy survey.

    Equal summaries (bit-identical floats -- shared counter RNG, same
    summation order) and a serially-asserted speedup over the
    per-message engine.
    """
    graph, source = workload
    reference_seconds, reference = reference_survey
    spec = bernoulli_loss(LOSS_RATE, seed=SEED)

    fast = benchmark.pedantic(
        variant_survey,
        args=(graph, source, spec, TRIALS),
        kwargs={"max_rounds": BUDGET, "workers": None},
        rounds=1,
        iterations=1,
    )
    assert fast.termination_rate == reference.termination_rate
    assert fast.mean_rounds == reference.mean_rounds
    assert fast.mean_messages == reference.mean_messages
    assert fast.coverage == reference.coverage

    fast_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"fast-path lossy survey only {speedup:.2f}x over the reference "
        f"engine on {NODES} nodes x {TRIALS} trials"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant="loss",
        loss_rate=LOSS_RATE,
        batch=TRIALS,
        workers=0,
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_var_lossy_survey_parallel(benchmark, workload):
    """The sharded survey: bit-identical to serial, ratio recorded.

    Pool construction is inside the timed region (the cost a fresh
    parallel survey pays); the >= 2x assertion arms only on >= 4
    usable cores and the full workload, per the repo convention --
    the measured ratio and core count land in the row either way.
    """
    graph, source = workload
    spec = bernoulli_loss(LOSS_RATE, seed=SEED)
    started = time.perf_counter()
    serial = variant_survey(
        graph, source, spec, TRIALS, max_rounds=BUDGET, workers=None
    )
    serial_seconds = time.perf_counter() - started

    sharded = benchmark.pedantic(
        variant_survey,
        args=(graph, source, spec, TRIALS),
        kwargs={"max_rounds": BUDGET, "workers": 2},
        rounds=1,
        iterations=1,
    )
    assert sharded == serial  # bit-identical summary, pool or no pool

    speedup = serial_seconds / benchmark.stats.stats.min
    cores = worker_count()
    if cores >= 4 and not QUICK:
        assert speedup >= 1.0, (
            f"2-worker variant survey regressed to {speedup:.2f}x "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant="loss",
        loss_rate=LOSS_RATE,
        batch=TRIALS,
        workers=2,
        usable_cores=cores,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_var_kmemory_fast_vs_engine(benchmark, workload):
    """The deterministic k-memory stepper vs the per-message engine."""
    graph, source = workload
    k = 2
    budget = 64

    started = time.perf_counter()
    trace = k_memory_trace(graph, source, k, max_rounds=budget)
    engine_seconds = time.perf_counter() - started

    runs = benchmark.pedantic(
        sweep,
        args=(graph, [[source]]),
        kwargs={"max_rounds": budget, "variant": k_memory(k)},
        rounds=1,
        iterations=1,
    )
    fast = runs[0]
    assert fast.terminated == trace.terminated
    assert fast.termination_round == trace.rounds_executed
    assert fast.total_messages == trace.total_messages()

    speedup = engine_seconds / benchmark.stats.stats.min
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant=f"kmemory(k={k})",
        batch=1,
        workers=0,
        serial_seconds=engine_seconds,
        speedup=round(speedup, 2),
    )


# Per family: (graph builder, runs, [(label, variant, budget), ...]).
# The BA1000 mix is the stochastic part of the repository benchmark's
# survey (perfbench/seeded.py SURVEY_MIX); None builds the ER family of
# the rows above.
STOCHASTIC_LANE_FAMILIES = {
    "ba1000-survey-mix": (
        lambda: barabasi_albert(1000, 3, seed=1),
        8 if QUICK else 16,
        [
            ("lossy", bernoulli_loss(0.05, seed=SEED), 12),
            ("thinning", thinning(0.9, seed=SEED), 12),
            ("random_delay", random_delay(0.3, seed=SEED), 24),
        ],
    ),
    "torus45x47": (
        lambda: torus_graph(45, 47),
        8 if QUICK else 16,
        [("lossy", bernoulli_loss(0.05, seed=SEED), 60)],
    ),
    "c2047": (
        lambda: cycle_graph(2047),
        256 if QUICK else 512,
        [("lossy", bernoulli_loss(0.05, seed=SEED), 60)],
    ),
    "er-loss90": (
        None,
        512 if QUICK else 1024,
        [("loss", bernoulli_loss(LOSS_RATE, seed=SEED), BUDGET)],
    ),
}


LANE_REPEATS = 5
"""Interleaved repetitions of every lane and the default per kind."""
SLOW_LANE = 3.0
"""A lane this many times slower than the fastest in the first
repetition cannot be the fastest; it is not timed again."""


def _stats(runs):
    return [
        (
            run.terminated,
            run.round_edge_counts,
            run.total_messages,
            run.reached_count,
        )
        for run in runs
    ]


@pytest.mark.parametrize("family", sorted(STOCHASTIC_LANE_FAMILIES))
def test_ext_var_stochastic_lanes(benchmark, workload, family):
    """Pure vs numpy stochastic lanes vs the default selection.

    Each kind of the family runs the same seeded batch on both lanes
    (asserted bit-identical) and on the default, interleaved within
    every repetition so that host load hits all of them alike.  Per
    repetition, the default's total over the kinds is divided by the
    sum of each kind's fastest lane; the median of those ratios must
    stay within ``DEFAULT_WITHIN``.
    """
    build, runs, kinds = STOCHASTIC_LANE_FAMILIES[family]
    graph = workload[0] if build is None else build()
    index = IndexedGraph.of(graph)
    nodes = graph.nodes()
    sets = [[nodes[(7 * i) % len(nodes)]] for i in range(runs)]
    lanes = ("pure", "numpy") if HAS_NUMPY else ("pure",)
    autos = [select_backend(index, None, variant) for _, variant, _ in kinds]

    def batch(backend):
        return [
            sweep(graph, sets, max_rounds=budget, variant=variant, backend=backend)
            for _, variant, budget in kinds
        ]

    reference = [_stats(out) for out in batch("pure")]  # also warms memos
    best = {lane: [None] * len(kinds) for lane in lanes}
    ratios = []
    live = [set(lanes) for _ in kinds]
    for repeat in range(LANE_REPEATS):
        default_total = fastest_total = 0.0
        for position, (_, variant, budget) in enumerate(kinds):
            timings = {}
            for lane in sorted(live[position]) + [None]:
                started = time.perf_counter()
                out = sweep(
                    graph, sets, max_rounds=budget, variant=variant, backend=lane
                )
                timings[lane] = time.perf_counter() - started
                assert _stats(out) == reference[position], (lane, variant)
                if lane is None:
                    assert {run.backend for run in out} == {autos[position]}
                elif best[lane][position] is None or timings[lane] < best[lane][position]:
                    best[lane][position] = timings[lane]
            default = timings.pop(None)
            fastest = min(timings.values())
            default_total += default
            fastest_total += fastest
            if repeat == 0:
                live[position] -= {
                    lane for lane, took in timings.items() if took > SLOW_LANE * fastest
                }
        ratios.append(default_total / fastest_total)
    ratios.sort()
    ratio = ratios[len(ratios) // 2]
    assert ratio <= DEFAULT_WITHIN, (
        f"default lanes {autos} cost {ratio:.2f}x the fastest lanes on {family} "
        f"(per repetition: {[round(r, 2) for r in ratios]})"
    )

    benchmark.pedantic(batch, args=(None,), rounds=1, iterations=1)
    seconds = {lane: sum(took) for lane, took in best.items()}
    count = len(sets) * len(kinds)
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="+".join(sorted(set(autos))),
        variant="+".join(label for label, _, _ in kinds),
        batch=count,
        workers=0,
        usable_cores=worker_count(),
        auto_backend="+".join(autos),
        fastest_lane=min(seconds, key=seconds.get),
        default_over_fastest=round(ratio, 2),
        gated=True,
        **{
            f"{lane}_ms_per_run": round(1e3 * took / count, 3)
            for lane, took in seconds.items()
        },
    )
