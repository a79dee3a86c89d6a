"""Service backend resolution: the one rule, no rounds probe.

The service resolves every request with ``select_backend`` -- the rule
``FloodSession.run``/``sweep`` use -- so a long flood gets the frontier
auto-selection like any other, explicit backends are always
respected, and the recorded backend is a pure function of the spec and
its graph, never of load or interleaving.  The rounds probe survives as
a diagnostic (``probe_termination_rounds``) and is pinned here too.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.fastpath import (
    IndexedGraph,
    probe_termination_rounds,
    select_backend,
    sweep_specs,
)
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.service import FloodService
from tests.conftest import spec_batch, spec_of

LONG_CYCLE = 129


def auto(graph):
    return select_backend(IndexedGraph.of(graph), None)


def query_backend(graph, sources, **kwargs):
    async def run():
        async with FloodService(workers=0) as service:
            result = await service.query_spec(spec_of(graph, sources, **kwargs))
            return result.backend

    return asyncio.run(run())


class TestProbe:
    def test_probe_is_exact_on_cycles(self):
        # A flood on C_n (n odd) runs exactly n rounds from any source.
        index = IndexedGraph.of(cycle_graph(33))
        rounds = probe_termination_rounds(index)
        assert rounds
        assert all(value == 33 for value in rounds)

    def test_probe_matches_oracle_sweep(self):
        graph = erdos_renyi(40, 0.15, seed=3, connected=True)
        index = IndexedGraph.of(graph)
        rounds = probe_termination_rounds(index, samples=3)
        step = max(1, index.n // 3)
        sample_nodes = [index.labels[i] for i in range(0, index.n, step)][:3]
        reference = sweep_specs(
            spec_batch(graph, [[v] for v in sample_nodes], backend="oracle")
        )
        assert list(rounds) == [run.termination_round for run in reference]

    def test_probe_deterministic(self):
        index = IndexedGraph.of(erdos_renyi(50, 0.1, seed=9, connected=True))
        assert probe_termination_rounds(index) == probe_termination_rounds(
            index
        )


class TestServiceResolution:
    def test_long_floods_resolve_to_frontier_selection(self):
        graph = cycle_graph(LONG_CYCLE)
        assert query_backend(graph, [0]) == auto(graph) != "oracle"

    def test_short_floods_resolve_to_frontier_selection(self):
        graph = complete_graph(12)
        assert query_backend(graph, [0]) == auto(graph)

    def test_explicit_backend_wins(self):
        graph = cycle_graph(LONG_CYCLE)
        assert query_backend(graph, [0], backend="pure") == "pure"
        assert query_backend(graph, [0], backend="oracle") == "oracle"
        graph2 = complete_graph(10)
        assert query_backend(graph2, [0], backend="oracle") == "oracle"

    def test_budget_does_not_change_resolution(self):
        graph = cycle_graph(LONG_CYCLE)
        assert query_backend(graph, [0], max_rounds=2) == auto(graph)

    def test_results_still_match_serial(self):
        """Whatever the rule picks, the statistics equal the serial
        sweep with that backend."""
        graph = cycle_graph(101)
        sets = [[v] for v in graph.nodes()[:6]]

        async def run():
            async with FloodService(workers=0) as service:
                return await asyncio.gather(
                    *(service.query_spec(spec_of(graph, s)) for s in sets)
                )

        results = asyncio.run(run())
        serial = sweep_specs(spec_batch(graph, sets, backend=results[0].backend))
        for expected, actual in zip(serial, results):
            assert expected.backend == actual.backend
            assert expected.termination_round == actual.termination_round
            assert expected.total_messages == actual.total_messages
            assert expected.round_edge_counts == actual.round_edge_counts

    def test_stats_record_backend_mix(self):
        long_cycle = cycle_graph(LONG_CYCLE)
        dense = complete_graph(12)

        async def run():
            async with FloodService(workers=0) as service:
                await service.query_spec(spec_of(long_cycle, [0]))
                await service.query_spec(spec_of(dense, [0]))
                await service.query_spec(spec_of(dense, [1], backend="oracle"))
                return dict(service.stats.backends)

        mix = asyncio.run(run())
        assert mix.get("oracle") == 1
        assert sum(mix.values()) == 3

    @pytest.mark.parametrize("workers", [0, 1])
    def test_service_never_probes(self, monkeypatch, workers):
        """Registration, pool warm-up and queries run no rounds probe."""
        import repro.fastpath.probe as probe_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the service must not probe")

        monkeypatch.setattr(probe_module, "probe_termination_rounds", boom)
        graph = cycle_graph(23)

        async def run():
            async with FloodService(workers=workers) as service:
                service.register(graph)
                cold = await service.query_spec(spec_of(cycle_graph(25), [0]))
                return await service.query_spec(spec_of(graph, [0])), cold

        warm, cold = asyncio.run(run())
        assert warm.termination_round == 23
        assert cold.termination_round == 25

    def test_probe_samples_option_is_gone(self):
        with pytest.raises(TypeError):
            FloodService(workers=0, probe_samples=2)
