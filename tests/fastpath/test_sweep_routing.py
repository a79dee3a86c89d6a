"""Batch sweeps resolve their backend by the single-run rule.

A spec batch with ``backend=None`` auto-selects a frontier engine with
``select_backend(index, None)`` -- exactly what a single run picks --
on every topology, long floods included.  An explicit backend always
wins and the oracle is reached only by name.  Results are
bit-identical whichever lane runs them; only the backend label (and
the cost) moves.
"""

from __future__ import annotations

import pytest

from repro.api import FloodSession
from repro.fastpath import IndexedGraph, select_backend, sweep_specs
from repro.fastpath.engine import routed_sweep_backend
from repro.fastpath.probe import routed_backend
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.sync.engine import default_round_budget
from tests.conftest import spec_batch

LONG_CYCLE = 65
"""An odd cycle: every single-source flood runs 65 rounds."""


def auto(graph):
    return select_backend(IndexedGraph.of(graph), None)


class TestSweepBackendResolution:
    def test_long_floods_keep_frontier_selection(self):
        graph = cycle_graph(LONG_CYCLE)
        runs = sweep_specs(spec_batch(graph, [[0], [5]]))
        assert [run.backend for run in runs] == [auto(graph)] * 2
        assert auto(graph) != "oracle"

    def test_short_floods_keep_frontier_selection(self):
        graph = complete_graph(8)
        runs = sweep_specs(spec_batch(graph, [[0]]))
        assert runs[0].backend == auto(graph)

    def test_explicit_backend_always_wins(self):
        graph = cycle_graph(LONG_CYCLE)
        for backend in ("pure", "oracle"):
            runs = sweep_specs(spec_batch(graph, [[0]], backend=backend))
            assert runs[0].backend == backend

    def test_budget_does_not_change_selection(self):
        graph = cycle_graph(LONG_CYCLE)
        runs = sweep_specs(spec_batch(graph, [[0]], max_rounds=4))
        assert runs[0].backend == auto(graph)
        assert not runs[0].terminated

    def test_oracle_results_identical_to_frontier(self):
        graph = cycle_graph(LONG_CYCLE)
        oracle = sweep_specs(spec_batch(
            graph,
            [[0], [3]],
            backend="oracle",
            collect_senders=True,
            collect_receives=True,
        ))
        frontier = sweep_specs(spec_batch(
            graph, [[0], [3]], collect_senders=True, collect_receives=True
        ))
        for left, right in zip(oracle, frontier):
            assert left.backend != right.backend
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages
            assert left.round_edge_counts == right.round_edge_counts
            assert left.sender_sets() == right.sender_sets()
            assert left.receive_rounds() == right.receive_rounds()

    def test_pooled_session_resolves_identically(self):
        graph = cycle_graph(LONG_CYCLE)
        specs = spec_batch(graph, [[v] for v in range(8)])
        serial = sweep_specs(specs)
        with FloodSession(workers=2) as session:
            sharded = session.sweep(specs)
        for left, right in zip(serial, sharded):
            assert left.backend == right.backend == auto(graph)
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages

    def test_warm_pool_never_probes(self, monkeypatch):
        import repro.fastpath.probe as probe_module
        from repro.parallel import SweepPool

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("backend resolution must not probe")

        monkeypatch.setattr(probe_module, "probe_termination_rounds", boom)
        graph = cycle_graph(LONG_CYCLE)
        with SweepPool(graph, workers=1) as pool:
            runs = pool.sweep_specs(spec_batch(graph, [[0]]))
            runs += pool.sweep_specs(spec_batch(graph, [[3]]))
        assert [run.backend for run in runs] == [auto(graph)] * 2


class TestCompatibilityNames:
    """``routed_sweep_backend`` / ``routed_backend`` delegate to the rule."""

    @pytest.mark.parametrize("probe", [True, False])
    def test_routed_sweep_backend_matches_sweep_choice(self, probe):
        for graph in (cycle_graph(80), erdos_renyi(50, 0.2, seed=1)):
            index = IndexedGraph.of(graph)
            budget = default_round_budget(graph)
            expected = routed_sweep_backend(index, None, budget, probe)
            assert expected == select_backend(index, None)
            runs = sweep_specs(spec_batch(graph, [[graph.nodes()[0]]]))
            assert runs[0].backend == expected

    def test_routed_sweep_backend_keeps_explicit_names(self):
        index = IndexedGraph.of(cycle_graph(LONG_CYCLE))
        assert routed_sweep_backend(index, "oracle", 10) == "oracle"
        assert routed_sweep_backend(index, "pure", 10, False) == "pure"

    @pytest.mark.parametrize("budget", [None, 2, 10_000])
    def test_routed_backend_ignores_probe_and_budget(self, budget):
        index = IndexedGraph.of(cycle_graph(4 * LONG_CYCLE + 1))
        assert routed_backend(index, (261,), budget) == select_backend(
            index, None
        )
