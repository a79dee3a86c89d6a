"""``FloodSession.plan`` names the backend that executes, on every tier.

Backend resolution is one rule (``select_backend``), so the plan of a
spec -- whatever batch size it is planned for -- is the backend every
execution tier reports on its results: a single ``run``, a serial or
pooled ``sweep``, ``SweepPool.sweep_specs`` and the service's
``query_spec`` and ``query_batch_specs``.  The graphs cover the resolution outcomes
that matter: long floods on an odd cycle and an odd torus, a dense
Erdos-Renyi graph past the numpy crossover, and K8.  Variant specs
resolve through the same rule: supercritical stochastic floods on the
dense graph take the numpy lane, subcritical ones, deterministic kinds
and small graphs the pure stepper.  A cached session consequently
stores one blob per spec across ``run`` and ``sweep``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import FloodSession, FloodSpec, ResultCache
from repro.fastpath import (
    IndexedGraph,
    bernoulli_loss,
    k_memory,
    random_delay,
    select_backend,
    thinning,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import complete_graph, cycle_graph, erdos_renyi, torus_graph
from repro.parallel import SweepPool
from repro.service import FloodService

GRAPHS = {
    "odd-cycle": cycle_graph(65),
    "torus": torus_graph(33, 35),
    "dense-er": erdos_renyi(600, 0.02, seed=5, connected=True),
    "k8": complete_graph(8),
}
BATCH = 8


NUMPY_OR_PURE = "numpy" if HAS_NUMPY else "pure"
VARIANT_CASES = {
    # name: (graph, variant, the backend the rule must pick)
    "lossy-dense": (GRAPHS["dense-er"], bernoulli_loss(0.05, seed=3), NUMPY_OR_PURE),
    "delay-dense": (GRAPHS["dense-er"], random_delay(0.3, seed=3), NUMPY_OR_PURE),
    "subcritical-dense": (GRAPHS["dense-er"], bernoulli_loss(0.95, seed=3), "pure"),
    "kmemory-dense": (GRAPHS["dense-er"], k_memory(2), "pure"),
    "thinning-k8": (GRAPHS["k8"], thinning(0.9, seed=3), "pure"),
}
VARIANT_BUDGET = 10


def specs_of(graph, variant=None):
    if variant is None:
        return [FloodSpec(graph=graph, sources=(v,)) for v in graph.nodes()[:BATCH]]
    return [
        FloodSpec(
            graph=graph,
            sources=(v,),
            variant=variant,
            stream=position,
            max_rounds=VARIANT_BUDGET,
        )
        for position, v in enumerate(graph.nodes()[:BATCH])
    ]


def run_tier(tier, specs):
    """Execute ``specs`` on ``tier``; returns (results, planning session)."""
    graph = specs[0].graph
    if tier == "run":
        session = FloodSession(workers=0)
        return [session.run(spec) for spec in specs], session
    if tier == "serial-sweep":
        session = FloodSession(workers=0)
        return session.sweep(specs), session
    if tier == "pooled-sweep":
        session = FloodSession(workers=2)
        try:
            return session.sweep(specs), session
        finally:
            session.close()
    planner = FloodSession(workers=0)
    if tier == "pool-sweep-specs":
        with SweepPool(graph, workers=1) as pool:
            return pool.sweep_specs(specs), planner
    assert tier in ("service-query-spec", "service-query-batch-specs")

    async def serve():
        async with FloodService(workers=0) as service:
            if tier == "service-query-batch-specs":
                return await service.query_batch_specs(specs)
            return await asyncio.gather(
                *(service.query_spec(spec) for spec in specs)
            )

    return asyncio.run(serve()), planner


TIERS = [
    "run",
    "serial-sweep",
    "pooled-sweep",
    "pool-sweep-specs",
    "service-query-spec",
    "service-query-batch-specs",
]


SESSION_MODES = {"run": "serial", "serial-sweep": "serial", "pooled-sweep": "pool"}
"""The plan mode of the tiers a session executes itself."""


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("tier", TIERS)
def test_plan_is_what_runs(tier, graph_name):
    specs = specs_of(GRAPHS[graph_name])
    results, session = run_tier(tier, specs)
    batch_size = 1 if tier in ("run", "service-query-spec") else len(specs)
    expected = select_backend(IndexedGraph.of(specs[0].graph), None)
    for spec, result in zip(specs, results):
        plan = session.plan(spec, batch_size)
        assert plan.backend == expected
        assert session.plan(spec, 1).backend == expected
        assert result.backend == expected
        if tier in SESSION_MODES:
            assert plan.mode == SESSION_MODES[tier]


@pytest.mark.parametrize("case", sorted(VARIANT_CASES))
@pytest.mark.parametrize("tier", TIERS)
def test_variant_plan_is_what_runs(tier, case):
    graph, variant, expected = VARIANT_CASES[case]
    assert select_backend(IndexedGraph.of(graph), None, variant) == expected
    specs = specs_of(graph, variant)
    results, session = run_tier(tier, specs)
    batch_size = 1 if tier in ("run", "service-query-spec") else len(specs)
    serial = FloodSession(workers=0).sweep(
        [spec.replace(backend="pure") for spec in specs]
    )
    for spec, result, pure in zip(specs, results, serial):
        assert session.plan(spec, batch_size).backend == expected
        assert session.plan(spec, 1).backend == expected
        assert result.backend == expected
        assert result.round_edge_counts == pure.round_edge_counts
        assert result.reached_count == pure.reached_count


class TestOneCacheEntryPerSpec:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    def test_run_then_sweep_is_all_hits(self, graph_name):
        spec = specs_of(GRAPHS[graph_name])[0]
        cache = ResultCache()
        with FloodSession(workers=0, cache=cache) as session:
            first = session.run(spec)
            swept = session.sweep([spec] * 4)
        stats = cache.stats()
        assert stats.stores == 1
        assert stats.misses == 1
        assert stats.hits == 4
        for result in swept:
            assert result.backend == first.backend
            assert result.termination_round == first.termination_round
            assert result.round_edge_counts == first.round_edge_counts

    def test_sweep_then_run_is_a_hit(self):
        spec = specs_of(GRAPHS["odd-cycle"])[0]
        cache = ResultCache()
        with FloodSession(workers=0, cache=cache) as session:
            session.sweep([spec] * 4)
            session.run(spec)
        stats = cache.stats()
        assert stats.stores == 1
        assert stats.hits == 1
