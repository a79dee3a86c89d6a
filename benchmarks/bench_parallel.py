"""EXT-PAR: the sharded sweep pool and the oracle fast lane at scale.

The paper's batch experiment families (all-pairs termination, the
initial-conditions census) are sweeps of hundreds-to-thousands of
independent runs over one graph.  These rows measure the two scaling
levers PR 2 added on the acceptance workload -- a 10k-node ER graph
(mean degree 8, the trajectory's scaling family) with a 256-source-set
batch:

* ``serial`` -- the single-process :func:`repro.fastpath.sweep_specs`
  baseline (spec construction included);
* ``workers=2 / workers=4`` -- ``FloodSession(workers=n).sweep`` over
  real worker pools (pool start-up and close included), asserted
  bit-identical to serial every time;
* ``oracle`` -- ``backend="oracle"``: per-run cost is O(n + m)
  instead of O(m x rounds), asserted equal to the frontier engine on
  every termination round and message count;
* ``oracle_long_floods`` -- on the long-flood families (odd cycle,
  odd and even torus) and a dense ER graph, the default
  ``backend=None`` sweep against every lane, gated at 2x the fastest.

The >= 2x four-worker speedup assertion is gated on the machine
actually having >= 4 usable cores (container CI often pins one); the
measured ratio and the usable-core count are recorded in the row either
way, so the trajectory stays honest about the hardware it ran on.

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workload to a smoke-sized batch.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import FloodSession
from repro.graphs import cycle_graph, erdos_renyi, torus_graph
from repro.parallel import SweepPool, default_chunksize, worker_count

from conftest import record, serial_sweep, spec_batch

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORCE_FAIL = os.environ.get("REPRO_BENCH_FORCE_FAIL", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
BATCH = 64 if QUICK else 256


def test_ext_par_forced_failure(benchmark):
    """Exit-code canary: a benchmark assertion that fails on demand.

    ``REPRO_BENCH_FORCE_FAIL=1`` arms it; the regression test in
    ``tests/integration/test_run_bench_gate.py`` then checks that
    ``run_bench.py --quick`` exits non-zero -- i.e. that a failing
    benchmark assertion actually fails the CI smoke job.  Unarmed (the
    normal case, including CI) it just skips.
    """
    if not FORCE_FAIL:
        pytest.skip("canary unarmed; set REPRO_BENCH_FORCE_FAIL=1 to arm")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert False, "forced benchmark assertion failure (exit-code canary)"


@pytest.fixture(scope="module")
def workload():
    """The acceptance workload: 10k-node ER graph, 256 source sets."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    source_sets = [[v] for v in graph.nodes()[:BATCH]]
    return graph, source_sets


@pytest.fixture(scope="module")
def serial_baseline(workload):
    """Best-of-3 serial wall time plus the reference results."""
    graph, source_sets = workload
    best = None
    runs = None
    for _ in range(3):
        started = time.perf_counter()
        runs = serial_sweep(graph, source_sets)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, runs


def _assert_identical(serial_runs, parallel_runs):
    assert len(serial_runs) == len(parallel_runs)
    for left, right in zip(serial_runs, parallel_runs):
        assert (
            left.sources,
            left.terminated,
            left.termination_round,
            left.total_messages,
            left.round_edge_counts,
        ) == (
            right.sources,
            right.terminated,
            right.termination_round,
            right.total_messages,
            right.round_edge_counts,
        )


def test_ext_par_sweep_serial(benchmark, workload, serial_baseline):
    """The single-process baseline row for the sharded-sweep trajectory."""
    graph, source_sets = workload
    runs = benchmark.pedantic(
        serial_sweep, args=(graph, source_sets), rounds=1, iterations=1
    )
    assert all(run.terminated for run in runs)
    serial_seconds, _ = serial_baseline
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=0,
        serial_seconds=serial_seconds,
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_ext_par_sweep_sharded(benchmark, workload, serial_baseline, workers):
    """Sharded sweeps: bit-identical to serial, speedup recorded.

    Pool construction (fork + one index pickle per worker) and close
    are kept *inside* the timed region -- that is the cost a fresh
    ``FloodSession(workers=n).sweep`` call actually pays.
    """
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline

    def sharded():
        with FloodSession(workers=workers) as session:
            return session.sweep(spec_batch(graph, source_sets))

    results = benchmark.pedantic(sharded, rounds=1, iterations=1)
    runs = [result.raw for result in results]
    _assert_identical(serial_runs, runs)

    parallel_seconds = benchmark.stats.stats.min
    speedup = serial_seconds / parallel_seconds
    cores = worker_count()
    # Arm only on the full workload: the smoke-sized batch is dominated
    # by pool start-up, so on a multi-core CI runner the quick lane
    # would fail without any real regression.  Ratio recorded always.
    if workers == 4 and cores >= 4 and not QUICK:
        assert speedup >= 2.0, (
            f"4-worker sweep only {speedup:.2f}x over serial "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=workers,
        chunksize=default_chunksize(len(source_sets), workers),
        usable_cores=cores,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_par_sweep_warm_pool(benchmark, workload, serial_baseline):
    """The serving shape: batch cost through an already-warm pool."""
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline
    specs = spec_batch(graph, source_sets)
    with SweepPool(graph, workers=2) as pool:
        pool.sweep_specs(specs[:2])  # prime worker state
        runs = benchmark.pedantic(
            pool.sweep_specs, args=(specs,), rounds=1, iterations=1
        )
    _assert_identical(serial_runs, runs)
    speedup = serial_seconds / benchmark.stats.stats.min
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=2,
        usable_cores=worker_count(),
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


LONG_FLOOD_GRAPHS = {
    # name: (builder, gated).  Quick mode shrinks each family but keeps
    # its resolution outcome (pure on the cycles, numpy on ER).
    "C4095": (lambda: cycle_graph(513 if QUICK else 4_095), True),
    "torus45x47": (
        lambda: torus_graph(15, 17) if QUICK else torus_graph(45, 47), True
    ),
    "er2000": (
        lambda: erdos_renyi(
            600 if QUICK else 2_000,
            8 / (600 if QUICK else 2_000),
            seed=2_000,
            connected=True,
        ),
        True,
    ),
    # Mean degree exactly 4: auto picks numpy at ~1.6x pure.  Recorded
    # for the NUMPY_MIN_MEAN_DEGREE re-bench, not gated.
    "torus46x48": (
        lambda: torus_graph(16, 18) if QUICK else torus_graph(46, 48), False
    ),
}
LONG_FLOOD_BATCH = 16
DEFAULT_WITHIN = 2.0
"""The default lane must cost at most this multiple of the fastest lane."""


def _best_of(repeats, call):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


@pytest.mark.parametrize("family", sorted(LONG_FLOOD_GRAPHS))
def test_ext_par_oracle_long_floods(benchmark, family):
    """The default ``backend=None`` sweep against every lane, long floods.

    The cover bound (every flood sends at most one message per cover
    edge) makes a frontier flood's *total* work O(n + m + rounds), so
    the oracle's round-count-free cost buys no speed on the paper's
    long-flood families.  Each row times 16 single-source floods on
    every lane -- pure, numpy, the per-source oracle and the bitset
    oracle batch -- and on the default selection, records ms/run per
    lane, and (for gated families) asserts the default costs at most
    ``DEFAULT_WITHIN`` x the fastest lane on every run.
    """
    from repro.fastpath import IndexedGraph, select_backend
    from repro.fastpath.numpy_backend import HAS_NUMPY

    build, gated = LONG_FLOOD_GRAPHS[family]
    graph = build()
    sets = [[v] for v in graph.nodes()[:LONG_FLOOD_BATCH]]
    auto_backend = select_backend(IndexedGraph.of(graph), None)

    lanes = {
        "pure": lambda: serial_sweep(graph, sets, backend="pure"),
        "oracle": lambda: [
            run
            for one in sets
            for run in serial_sweep(graph, [one], backend="oracle")
        ],
    }
    if HAS_NUMPY:
        lanes["numpy"] = lambda: serial_sweep(graph, sets, backend="numpy")
        lanes["bitset"] = lambda: serial_sweep(graph, sets, backend="oracle")
    lanes["pure"]()  # warm the per-index memo caches before timing
    seconds = {}
    reference = None
    for lane, call in lanes.items():
        seconds[lane], runs = _best_of(3, call)
        stats = [(r.termination_round, r.total_messages) for r in runs]
        assert reference is None or stats == reference, lane
        reference = stats

    runs = benchmark.pedantic(
        serial_sweep, args=(graph, sets), rounds=3, iterations=1
    )
    assert [(r.termination_round, r.total_messages) for r in runs] == reference
    assert all(run.backend == auto_backend for run in runs)
    default_seconds = benchmark.stats.stats.min
    fastest = min(seconds, key=seconds.get)
    ratio = default_seconds / seconds[fastest]
    if gated:
        assert ratio <= DEFAULT_WITHIN, (
            f"default {auto_backend} is {ratio:.2f}x the fastest lane "
            f"({fastest}) on {family}"
        )
    per_run = {
        f"{lane}_ms_per_run": round(1e3 * took / len(sets), 3)
        for lane, took in seconds.items()
    }
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=auto_backend,
        batch=len(sets),
        workers=0,
        usable_cores=worker_count(),
        auto_backend=auto_backend,
        fastest_lane=fastest,
        default_over_fastest=round(ratio, 2),
        gated=gated,
        **per_run,
    )


def test_ext_par_sweep_oracle(benchmark, workload, serial_baseline):
    """The oracle lane on the ER acceptance workload, agreement asserted.

    On this family floods last ~8 rounds, so the vectorised frontier
    engine is the faster choice and the recorded speedup sits below 1;
    ``test_ext_par_oracle_long_floods`` shows the same on long floods.
    """
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline
    runs = benchmark.pedantic(
        serial_sweep,
        args=(graph, source_sets),
        kwargs={"backend": "oracle"},
        rounds=1,
        iterations=1,
    )
    for frontier, oracle in zip(serial_runs, runs):
        assert oracle.termination_round == frontier.termination_round
        assert oracle.total_messages == frontier.total_messages
    speedup = serial_seconds / benchmark.stats.stats.min
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="oracle",
        batch=len(source_sets),
        workers=0,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )
