"""EXT-AP: the word-packed bitset oracle on the all-pairs workload.

PR 7's tentpole floods a whole batch of source sets in **one** sweep
over the implicit double cover, carrying a ``uint64`` bitset column per
cover node -- 64 sources per word pass, all pairs in O(n * (n + m))
words total.  These rows measure the two claims the reroute rests on:

* ``bitset_vs_per_source`` -- the acceptance row: a 2k-node all-pairs
  workload (``all_pairs_termination`` with a pair cap) through the
  bitset lane vs the same pairs through the per-source oracle backend,
  round-for-round identical, **>= 5x** asserted on the full workload;
* ``frontier_crossover`` -- the degree-aware selection evidence: the
  pure and numpy frontier engines timed head-to-head at mean degree
  2 / 8 / 32 past ``NUMPY_ARC_THRESHOLD``.  Arc count alone picks
  numpy on a degree-2 cycle, where O(arcs)-per-round over ~n/2 rounds
  is the catastrophic choice; the recorded ratios justify the
  ``NUMPY_MIN_MEAN_DEGREE`` term ``select_backend`` now carries.

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workloads; the speedup assertions only arm on
the full workload (smoke-sized batches are dominated by fixed costs).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import all_pairs_termination
from repro.fastpath import IndexedGraph, select_backend
from repro.fastpath import oracle_backend
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi
from repro.sync.engine import default_round_budget

from conftest import record, serial_sweep

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 256 if QUICK else 2_000
PAIRS = 128 if QUICK else 2_048


@pytest.fixture(scope="module")
def allpairs_workload():
    """The acceptance workload: 2k-node ER graph, capped pair batch."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=7, connected=True)
    return graph


@pytest.mark.skipif(not HAS_NUMPY, reason="the bitset lane needs numpy")
def test_ext_ap_bitset_vs_per_source(benchmark, allpairs_workload):
    """The bitset lane vs the per-source oracle on the same pair batch.

    The timed region is the real routed API --
    ``all_pairs_termination`` indexes the graph, enumerates the pairs
    and sends the oracle batch down the bitset lane.  The baseline is
    the pre-reroute definition: one ``oracle_backend.run`` per pair
    over the same shared index and budget.  Round-for-round equality is
    asserted before any timing claim.
    """
    graph = allpairs_workload
    result = benchmark.pedantic(
        all_pairs_termination,
        args=(graph,),
        kwargs={"pair_limit": PAIRS},
        rounds=1,
        iterations=1,
    )
    assert len(result) == PAIRS
    bitset_seconds = benchmark.stats.stats.min

    index = IndexedGraph.of(graph)
    budget = default_round_budget(graph)
    started = time.perf_counter()
    baseline = [
        oracle_backend.run(
            index,
            index.resolve_sources(pair),
            budget,
            collect_senders=False,
            collect_receives=False,
        )
        for pair, _ in result
    ]
    per_source_seconds = time.perf_counter() - started

    assert [rounds for _, rounds in result] == [
        len(raw[1]) for raw in baseline
    ]
    assert all(raw[0] for raw in baseline)

    speedup = per_source_seconds / bitset_seconds
    if not QUICK:
        assert speedup >= 5.0, (
            f"bitset lane only {speedup:.2f}x over the per-source oracle "
            f"on {PAIRS} pairs of a {NODES}-node graph"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="oracle",
        batch=PAIRS,
        workers=0,
        serial_seconds=round(per_source_seconds, 4),
        speedup=round(speedup, 2),
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="the crossover needs both engines")
@pytest.mark.parametrize("mean_degree", [2, 8, 32])
def test_ext_ap_frontier_crossover(benchmark, mean_degree):
    """Pure vs numpy frontier head-to-head at fixed mean degree.

    Every graph here sits past ``NUMPY_ARC_THRESHOLD``, so the old
    arc-count-only rule would pick numpy for all three.  The degree-2
    row is the cycle family (floods last ~n/2 rounds; numpy pays
    O(arcs) every round), the dense rows are ER.  The timed region is
    the engine ``select_backend`` actually picks; both engines are
    also timed explicitly and the full-workload assertions pin the
    crossover direction at the extremes (degree 8 is recorded,
    unasserted -- the engines are close there, which is exactly why
    the rule needs the measured rows).
    """
    n = 512 if QUICK else 2_048
    if mean_degree == 2:
        graph = cycle_graph(n + 1)  # odd: single-source floods last n+1
    else:
        graph = erdos_renyi(
            n, min(1.0, mean_degree / n), seed=mean_degree, connected=True
        )
    index = IndexedGraph.of(graph)
    auto = select_backend(index, None)
    source_sets = [[v] for v in graph.nodes()[:8]]

    runs = benchmark.pedantic(
        serial_sweep,
        args=(graph, source_sets),
        kwargs={"backend": auto},
        rounds=1,
        iterations=1,
    )
    assert all(run.terminated for run in runs)

    def timed(backend):
        started = time.perf_counter()
        other = serial_sweep(graph, source_sets, backend=backend)
        elapsed = time.perf_counter() - started
        assert [r.termination_round for r in other] == [
            r.termination_round for r in runs
        ]
        assert [r.total_messages for r in other] == [
            r.total_messages for r in runs
        ]
        return elapsed

    pure_seconds = timed("pure")
    numpy_seconds = timed("numpy")

    if not QUICK:
        if mean_degree == 2:
            assert auto == "pure"
            assert pure_seconds < numpy_seconds, (
                f"pure lost to numpy on the degree-2 family "
                f"({pure_seconds:.4f}s vs {numpy_seconds:.4f}s)"
            )
        elif mean_degree == 32:
            assert auto == "numpy"
            assert numpy_seconds < pure_seconds, (
                f"numpy lost to pure at mean degree 32 "
                f"({numpy_seconds:.4f}s vs {pure_seconds:.4f}s)"
            )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=auto,
        batch=len(source_sets),
        workers=0,
        mean_degree=mean_degree,
        auto_backend=auto,
        pure_seconds=round(pure_seconds, 4),
        numpy_seconds=round(numpy_seconds, 4),
    )
