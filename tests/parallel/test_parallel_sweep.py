"""Worker-pool determinism: the sharded sweep is the serial sweep.

The contract of :mod:`repro.parallel` is that process boundaries are
invisible in the output: for every worker count and chunk size,
``SweepPool.sweep_specs`` (and ``FloodSession.sweep`` over it) returns
exactly what the serial ``repro.fastpath.sweep_specs`` returns -- same
dataclasses, same field values, same input order -- budget cut-offs
and backends included.  These tests hold that contract on real
multi-process pools (worker counts 1, 2 and 4), not just the serial
fallback.
"""

from __future__ import annotations

import pytest

from repro.api import FloodSession
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.fastpath import IndexedGraph, sweep_specs
from repro.graphs import cycle_graph, erdos_renyi, paper_triangle
from repro.parallel import (
    MIN_PARALLEL_BATCH,
    SweepPool,
    default_chunksize,
    worker_count,
)
from tests.conftest import spec_batch

WORKER_COUNTS = (1, 2, 4)
CHUNK_SIZES = (None, 1, 3, 64)


@pytest.fixture(scope="module")
def batch():
    """A medium ER batch with mixed single- and multi-source sets."""
    graph = erdos_renyi(120, 0.06, seed=41, connected=True)
    nodes = graph.nodes()
    source_sets = [[v] for v in nodes[:40]] + [
        list(nodes[:3]),
        list(nodes[50:55]),
        [nodes[0], nodes[-1]],
    ]
    return graph, source_sets


def assert_runs_identical(expected, actual):
    """Field-for-field equality of two IndexedRun lists."""
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.sources == right.sources
        assert left.backend == right.backend
        assert left.terminated == right.terminated
        assert left.termination_round == right.termination_round
        assert left.total_messages == right.total_messages
        assert left.round_edge_counts == right.round_edge_counts
        assert left.sender_ids == right.sender_ids
        assert left.receive_rounds_by_id == right.receive_rounds_by_id


def pooled(graph, specs, workers, chunksize=None):
    """One batch through a fresh ``workers``-process pool."""
    with SweepPool(graph, workers=workers) as pool:
        return pool.sweep_specs(specs, chunksize=chunksize)


class TestDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunksize", CHUNK_SIZES)
    def test_identical_to_serial_sweep(self, batch, workers, chunksize):
        graph, source_sets = batch
        specs = spec_batch(graph, source_sets)
        assert_runs_identical(
            sweep_specs(specs), pooled(graph, specs, workers, chunksize)
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_budget_cutoff_runs_identical(self, batch, workers):
        graph, source_sets = batch
        with SweepPool(graph, workers=workers) as pool:
            for budget in (1, 2, 5):
                specs = spec_batch(graph, source_sets, max_rounds=budget)
                serial = sweep_specs(specs)
                assert any(not run.terminated for run in serial)  # budget bites
                assert_runs_identical(serial, pool.sweep_specs(specs))

    @pytest.mark.parametrize("workers", (2, 4))
    def test_full_collection_crosses_processes(self, batch, workers):
        graph, source_sets = batch
        specs = spec_batch(
            graph, source_sets[:10], collect_senders=True, collect_receives=True
        )
        serial = sweep_specs(specs)
        parallel = pooled(graph, specs, workers)
        assert_runs_identical(serial, parallel)
        assert serial[0].sender_sets() == parallel[0].sender_sets()
        assert serial[0].receive_rounds() == parallel[0].receive_rounds()

    @pytest.mark.parametrize("workers", (2, 4))
    def test_oracle_backend_through_pool(self, batch, workers):
        graph, source_sets = batch
        specs = spec_batch(graph, source_sets, backend="oracle")
        assert_runs_identical(sweep_specs(specs), pooled(graph, specs, workers))

    def test_results_share_parent_index(self, batch):
        graph, source_sets = batch
        runs = pooled(graph, spec_batch(graph, source_sets), 2)
        parent_index = IndexedGraph.of(graph)
        assert all(run.index is parent_index for run in runs)

    def test_session_pools_the_batch(self, batch):
        graph, source_sets = batch
        specs = spec_batch(graph, source_sets)
        with FloodSession(workers=2) as session:
            results = session.sweep(specs)
            assert session._pool is not None
        assert_runs_identical(sweep_specs(specs), [r.raw for r in results])


class TestSerialFallback:
    def test_small_batch_auto_mode_matches(self):
        graph = paper_triangle()
        specs = spec_batch(graph, [["a"], ["b"], ["a", "c"]])
        assert len(specs) < MIN_PARALLEL_BATCH
        with FloodSession() as session:
            results = session.sweep(specs)
        assert_runs_identical(sweep_specs(specs), [r.raw for r in results])

    def test_empty_batch(self):
        with SweepPool(cycle_graph(5), workers=2) as pool:
            assert pool.sweep_specs([]) == []
            assert pool.submit_batch([], None).result() == []
        with FloodSession() as session:
            assert session.sweep([]) == []

    def test_auto_mode_small_batch_never_forks(self, monkeypatch):
        import repro.parallel.pool as pool_module

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("auto mode below the floor must stay serial")

        monkeypatch.setattr(pool_module, "SweepPool", boom)
        graph = cycle_graph(9)
        with FloodSession() as session:
            results = session.sweep(spec_batch(graph, [[0], [4]]))
        assert [result.termination_round for result in results] == [9, 9]

    def test_explicit_workers_one_builds_a_real_pool(self, monkeypatch):
        """workers=1 is an explicit pool request: one worker, real
        process boundary -- the smallest cross-process determinism leg."""
        import repro.parallel.pool as pool_module

        calls = []
        original = pool_module.SweepPool

        class Spy(original):
            def __init__(self, *args, **kwargs):
                calls.append(kwargs.get("workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_module, "SweepPool", Spy)
        graph = cycle_graph(9)
        with FloodSession(workers=1) as session:
            results = session.sweep(spec_batch(graph, [[0], [4]]))
        assert calls == [1]
        assert [result.termination_round for result in results] == [9, 9]


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ConfigurationError):
            SweepPool(cycle_graph(5), workers=0)
        with pytest.raises(ConfigurationError):
            FloodSession(workers=-1)

    def test_bad_chunksize(self):
        graph = cycle_graph(5)
        with SweepPool(graph, workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.sweep_specs(spec_batch(graph, [[0]]), chunksize=0)

    def test_unknown_source_raises_before_dispatch(self):
        with pytest.raises(NodeNotFoundError):
            spec_batch(cycle_graph(5), [[0], [99]])

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            spec_batch(cycle_graph(5), [[0]], max_rounds=0)

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            spec_batch(cycle_graph(5), [[0]], backend="cuda")


class TestSweepPool:
    def test_pool_reuse_across_batches_and_backends(self):
        graph = erdos_renyi(80, 0.08, seed=13, connected=True)
        nodes = graph.nodes()
        first = spec_batch(graph, [[v] for v in nodes[:10]])
        second = spec_batch(graph, [[v] for v in nodes[10:20]], backend="oracle")
        cut = spec_batch(graph, [[v] for v in nodes[:10]], max_rounds=2)
        with SweepPool(graph, workers=2) as pool:
            got = [pool.sweep_specs(specs) for specs in (first, second, cut)]
        for specs, runs in zip((first, second, cut), got):
            assert_runs_identical(sweep_specs(specs), runs)

    def test_pool_label_space(self):
        graph = paper_triangle()
        with SweepPool(graph, workers=2) as pool:
            runs = pool.sweep_specs(spec_batch(graph, [["b"], ["a", "c"]]))
        assert runs[0].sources == ("b",)
        assert [run.termination_round for run in runs] == [3, 2]


class TestHeuristics:
    def test_worker_count_explicit(self):
        assert worker_count(3) == 3
        with pytest.raises(ConfigurationError):
            worker_count(0)

    def test_worker_count_auto_positive(self):
        assert worker_count() >= 1

    def test_default_chunksize_bounds(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1, 4) == 1
        assert default_chunksize(10_000, 4) == 64  # capped
        assert default_chunksize(64, 4) == 4  # ~4 chunks per worker
        for batch in (1, 7, 100, 5000):
            for workers in (1, 2, 8):
                chunk = default_chunksize(batch, workers)
                assert 1 <= chunk <= 64
