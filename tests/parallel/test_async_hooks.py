"""The pool's one dispatch path: futures, not blocking calls.

``SweepPool.submit_batch`` is the bridge the service layer stands on
and the path ``sweep_specs`` blocks on: same determinism, delivered
through a :class:`concurrent.futures.Future` completed off-thread.
``serial_batch_ids`` is the same post-validation loop without
processes.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future

import pytest

from repro.api.spec import BatchKey
from repro.errors import ConfigurationError
from repro.fastpath import IndexedGraph, batch_key_of, sweep_specs
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import SweepPool, serial_batch_ids
from tests.conftest import spec_batch


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


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi(80, 0.08, seed=17, connected=True)
    return graph, [[v] for v in graph.nodes()[:12]]


def resolved(specs):
    """The id lists and BatchKey a spec batch resolves to."""
    index = specs[0].index()
    id_lists = [index.resolve_sources(spec.sources) for spec in specs]
    return index, id_lists, batch_key_of(specs, index)


class TestSubmitBatch:
    def test_future_resolves_to_serial_result(self, workload):
        graph, source_sets = workload
        specs = spec_batch(graph, source_sets)
        _, id_lists, key = resolved(specs)
        with SweepPool(graph, workers=2) as pool:
            future = pool.submit_batch(id_lists, key)
            assert isinstance(future, Future)
            assert_runs_identical(sweep_specs(specs), future.result(timeout=60))

    def test_many_outstanding_futures(self, workload):
        graph, source_sets = workload
        specs = spec_batch(graph, source_sets)
        _, id_lists, key = resolved(specs)
        serial = sweep_specs(specs)
        with SweepPool(graph, workers=2) as pool:
            futures = [pool.submit_batch(id_lists, key) for _ in range(4)]
            for future in futures:
                assert_runs_identical(serial, future.result(timeout=60))

    def test_validation_raises_synchronously(self, workload):
        graph, source_sets = workload
        _, id_lists, key = resolved(spec_batch(graph, source_sets))
        with SweepPool(graph, workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit_batch(id_lists, key, chunksize=0)
            with pytest.raises(ConfigurationError):
                pool.submit_batch(id_lists, key, run_keys=[1])

    def test_empty_batch_resolves_immediately(self, workload):
        graph, source_sets = workload
        _, _, key = resolved(spec_batch(graph, source_sets))
        with SweepPool(graph, workers=1) as pool:
            assert pool.submit_batch([], key).result(timeout=5) == []

    def test_bridges_into_asyncio(self, workload):
        graph, source_sets = workload
        specs = spec_batch(graph, source_sets, backend="oracle")
        _, id_lists, key = resolved(specs)

        async def main(pool):
            return await asyncio.wrap_future(pool.submit_batch(id_lists, key))

        with SweepPool(graph, workers=2) as pool:
            runs = asyncio.run(main(pool))
        assert_runs_identical(sweep_specs(specs), runs)

    def test_foreign_index_wraps_against_that_index(self, workload):
        graph, _ = workload
        other = cycle_graph(11)
        specs = spec_batch(other, [[0], [5]])
        index, id_lists, key = resolved(specs)
        with SweepPool(graph, workers=1) as pool:
            runs = pool.submit_batch(id_lists, key, index=index).result(60)
        assert all(run.index is index for run in runs)
        assert_runs_identical(sweep_specs(specs), runs)

    def test_submit_ids_compatibility_name(self, workload):
        graph, source_sets = workload
        specs = spec_batch(graph, source_sets, max_rounds=3)
        _, id_lists, key = resolved(specs)
        with SweepPool(graph, workers=1) as pool:
            runs = pool.submit_ids(id_lists, key.budget, key.backend).result(60)
        assert_runs_identical(sweep_specs(specs), runs)


class TestSerialBatchIds:
    def test_matches_blocking_sweep(self, workload):
        graph, source_sets = workload
        specs = spec_batch(graph, source_sets)
        index, id_lists, key = resolved(specs)
        runs = serial_batch_ids(index, id_lists, key)
        assert_runs_identical(sweep_specs(specs), runs)

    def test_cycle_statistics(self):
        index = IndexedGraph.of(cycle_graph(9))
        key = BatchKey(100, "pure", False, False, None)
        runs = serial_batch_ids(index, [[0], [4]], key)
        assert [run.termination_round for run in runs] == [9, 9]
