"""One worker pool per ``FloodSession``, shared by every graph it sweeps.

The session's pool is warmed with the first pooled graph; chunks for
any other graph ship that graph's pickled index, and each worker keeps
a bounded digest-keyed LRU of unpickled indexes.  These tests pin the
process count, bit identity with the serial spec sweep (variant specs
with per-spec stream keys included), correctness past the worker LRU
bound, and clean shutdown.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.api import FloodSession, FloodSpec
from repro.fastpath import IndexedGraph, bernoulli_loss, sweep_specs, thinning
from repro.graphs import cycle_graph, erdos_renyi, torus_graph
from repro.parallel import SweepPool, worker_count
from repro.parallel.pool import MIN_PARALLEL_BATCH, WORKER_INDEX_CACHE

WORKERS = 2


def run_fields(run):
    return (
        run.backend,
        run.sources,
        run.terminated,
        run.termination_round,
        run.total_messages,
        run.round_edge_counts,
        run.sender_ids,
        run.receive_rounds_by_id,
        run.reached_count,
    )


def plain_specs(graph, count=8, **kwargs):
    return [
        FloodSpec(graph=graph, sources=(v,), **kwargs)
        for v in graph.nodes()[:count]
    ]


def variant_specs(graph, variant, count=8):
    # Per-spec streams out of position order: each run must draw from
    # its own spec's stream key wherever its chunk lands.
    return [
        FloodSpec(
            graph=graph,
            sources=(v,),
            max_rounds=40,
            variant=variant,
            stream=3 * position + 1,
        )
        for position, v in enumerate(graph.nodes()[:count])
    ]


GRAPHS = [
    cycle_graph(33),
    torus_graph(7, 9),
    erdos_renyi(60, 0.1, seed=2, connected=True),
]


def new_children(before):
    return [
        child
        for child in multiprocessing.active_children()
        if child.pid not in before
    ]


@pytest.mark.parametrize("workers", [None, WORKERS])
def test_three_graphs_share_one_pool(workers):
    expected = worker_count(workers)
    if workers is None and expected < 2:
        pytest.skip("auto mode stays serial on one usable core")
    before = {child.pid for child in multiprocessing.active_children()}
    session = FloodSession(workers=workers)
    try:
        for graph in GRAPHS:
            session.sweep(plain_specs(graph, count=MIN_PARALLEL_BATCH))
        children = new_children(before)
        assert len(children) == expected
        assert f"pool={expected} workers" in repr(session)
    finally:
        session.close()
    assert not any(child.is_alive() for child in children)
    assert "pool=none" in repr(session)


def test_results_bit_identical_to_serial_per_graph():
    batches = []
    for graph in GRAPHS:
        batches.append(plain_specs(graph, collect_senders=True))
        batches.append(variant_specs(graph, thinning(0.6, seed=9)))
        batches.append(variant_specs(graph, bernoulli_loss(0.2, seed=4)))
    with FloodSession(workers=WORKERS) as session:
        pooled = [session.sweep(batch) for batch in batches]
    for batch, results in zip(batches, pooled):
        serial = sweep_specs(batch)
        assert [run_fields(r.raw) for r in results] == [
            run_fields(run) for run in serial
        ]


def test_more_graphs_than_the_worker_lru_holds():
    graphs = [cycle_graph(2 * k + 5) for k in range(WORKER_INDEX_CACHE + 3)]
    with SweepPool(graphs[0], workers=1) as pool:
        for _ in range(2):  # the second pass re-ships evicted indexes
            for graph in graphs:
                specs = plain_specs(graph, count=4)
                runs = pool.sweep_specs(specs, chunksize=2)
                assert [run_fields(run) for run in runs] == [
                    run_fields(run) for run in sweep_specs(specs)
                ]


def test_foreign_graph_payload_is_pickled_once():
    own, other = cycle_graph(15), torus_graph(5, 7)
    with SweepPool(own, workers=1) as pool:
        first = pool._shipped(IndexedGraph.of(other))
        again = pool._shipped(IndexedGraph.of(other))
        assert pool._shipped(pool.index) is None
    assert first is again
    assert first[0] == other.content_digest()


@pytest.mark.parametrize("workers", [1, 2])
def test_close_reaps_every_worker(workers):
    before = {child.pid for child in multiprocessing.active_children()}
    session = FloodSession(workers=workers)
    for graph in GRAPHS[:2]:
        session.sweep(plain_specs(graph))
    children = new_children(before)
    assert len(children) == workers
    session.close()
    assert not any(child.is_alive() for child in children)
    assert new_children(before) == []


def test_worker_index_lru_is_bounded(monkeypatch):
    # The worker-side lookup, exercised in-process on a fresh LRU.
    from collections import OrderedDict

    import repro.parallel.pool as pool_module

    monkeypatch.setattr(pool_module, "_WORKER_INDEXES", OrderedDict())
    graphs = [cycle_graph(2 * k + 5) for k in range(WORKER_INDEX_CACHE + 2)]
    with SweepPool(graphs[0], workers=1) as pool:
        shipped = [pool._shipped(IndexedGraph.of(g)) for g in graphs[1:]]
    for entry in shipped:
        index = pool_module._worker_index(entry)
        assert index.graph.content_digest() == entry[0]
    assert len(pool_module._WORKER_INDEXES) == WORKER_INDEX_CACHE
    evicted = shipped[0]
    assert evicted[0] not in pool_module._WORKER_INDEXES
    assert pool_module._worker_index(evicted).graph == graphs[1]
    assert next(reversed(pool_module._WORKER_INDEXES)) == evicted[0]
