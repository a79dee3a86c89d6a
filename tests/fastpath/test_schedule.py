"""The arc-diff schedule format: validation, digests, round views.

An :class:`~repro.fastpath.schedule.ArcSchedule` is the cacheable,
picklable form of a dynamic graph -- these tests pin its validation
rules, the 1-based ``mask_at`` extension semantics (hold-last vs
cyclic), the content digest that keys the result cache (including a
cross-process hex pin re-run under several PYTHONHASHSEED values in
the CI lint job), and the ``GraphSchedule`` view the set-based
reference consumes.
"""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.schedule import ArcSchedule
from repro.graphs import cycle_graph, path_graph
from repro.variants.dynamic import (
    EdgeFlipSchedule,
    PeriodicSchedule,
    StaticSchedule,
    export_arc_schedule,
)

GRAPH = cycle_graph(5)
INDEX = IndexedGraph.of(GRAPH)
FULL = (1 << INDEX.num_arcs) - 1

# SHA-256 of (cycle_graph(5) content, cycle_from=None, mask=FULL): the
# digest is a pure function of schedule *content*, so it must agree
# across processes, platforms and hash seeds.  The CI lint job re-runs
# this file under PYTHONHASHSEED=0/1/12345.
PINNED_DIGEST = "ffe441d8f3ef5f5ccb293f4470cc76d6cae1630d41a39b18911137ee86e0c1ef"


def edge_mask(*edges):
    mask = 0
    for u, v in edges:
        mask |= 1 << INDEX.arc_slot(u, v)
        mask |= 1 << INDEX.arc_slot(v, u)
    return mask


class TestValidation:
    def test_empty_masks_raise(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ArcSchedule(GRAPH, ())
        with pytest.raises(ConfigurationError, match="non-empty"):
            ArcSchedule(GRAPH, [FULL])  # a list is not canonical

    def test_out_of_range_mask_raises(self):
        with pytest.raises(ConfigurationError, match="arc slots"):
            ArcSchedule(GRAPH, (FULL + 1,))
        with pytest.raises(ConfigurationError, match="arc slots"):
            ArcSchedule(GRAPH, (-1,))

    def test_asymmetric_mask_raises(self):
        lone_arc = 1 << INDEX.arc_slot(0, 1)
        with pytest.raises(ConfigurationError, match="asymmetric"):
            ArcSchedule(GRAPH, (lone_arc,))

    def test_cycle_from_must_index_the_masks(self):
        for bad in (-1, 2, 7):
            with pytest.raises(ConfigurationError, match="cycle_from"):
                ArcSchedule(GRAPH, (FULL, 0), cycle_from=bad)


class TestMaskAt:
    def test_rounds_are_one_based(self):
        schedule = ArcSchedule(GRAPH, (FULL,))
        with pytest.raises(ConfigurationError, match="1-based"):
            schedule.mask_at(0)

    def test_hold_last_beyond_horizon(self):
        thinned = edge_mask((0, 1), (1, 2))
        schedule = ArcSchedule(GRAPH, (FULL, thinned))
        assert schedule.mask_at(1) == FULL
        assert schedule.mask_at(2) == thinned
        for round_number in (3, 10, 1000):
            assert schedule.mask_at(round_number) == thinned

    def test_cyclic_extension(self):
        a, b, c = FULL, edge_mask((0, 1)), edge_mask((2, 3))
        schedule = ArcSchedule(GRAPH, (a, b, c), cycle_from=1)
        # Rounds 1..3 literal, then (b, c) repeat forever.
        expected = [a, b, c, b, c, b, c]
        got = [schedule.mask_at(r) for r in range(1, 8)]
        assert got == expected

    def test_full_cycle_from_zero(self):
        a, b = edge_mask((0, 1)), edge_mask((2, 3))
        schedule = ArcSchedule(GRAPH, (a, b), cycle_from=0)
        assert [schedule.mask_at(r) for r in range(1, 6)] == [a, b, a, b, a]


class TestDigest:
    def test_pinned_cross_process_digest(self):
        assert ArcSchedule(GRAPH, (FULL,)).content_digest() == PINNED_DIGEST

    def test_digest_covers_masks_and_extension_rule(self):
        base = ArcSchedule(GRAPH, (FULL, 0))
        assert base.content_digest() != ArcSchedule(
            GRAPH, (FULL, edge_mask((0, 1)))
        ).content_digest()
        assert base.content_digest() != ArcSchedule(
            GRAPH, (FULL, 0), cycle_from=0
        ).content_digest()
        assert base.content_digest() != ArcSchedule(
            path_graph(5), ((1 << IndexedGraph.of(path_graph(5)).num_arcs) - 1,)
        ).content_digest()

    def test_repr_embeds_the_digest(self):
        schedule = ArcSchedule(GRAPH, (FULL,))
        assert PINNED_DIGEST in repr(schedule)

    def test_spec_digest_distinguishes_schedules(self):
        from repro.api import FloodSpec
        from repro.fastpath.variants import dynamic_schedule

        one = FloodSpec(
            graph=GRAPH,
            sources=(0,),
            variant=dynamic_schedule(ArcSchedule(GRAPH, (FULL,))),
        )
        other = one.replace(
            variant=dynamic_schedule(ArcSchedule(GRAPH, (FULL, 0)))
        )
        assert one.digest() != other.digest()

    def test_pickle_round_trip_preserves_identity(self):
        schedule = ArcSchedule(GRAPH, (FULL, edge_mask((0, 1))), cycle_from=0)
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert hash(clone) == hash(schedule)
        assert clone.content_digest() == schedule.content_digest()


class TestGraphView:
    def test_view_round_trips_the_masks(self):
        thinned = edge_mask((0, 1), (2, 3))
        schedule = ArcSchedule(GRAPH, (FULL, thinned))
        view = schedule.as_graph_schedule()
        assert set(view.graph_at(1).edges()) == set(GRAPH.edges())
        round2 = view.graph_at(2)
        assert sorted(tuple(sorted(e)) for e in round2.edges()) == [
            (0, 1),
            (2, 3),
        ]
        # Isolated nodes survive: the node set is schedule-wide.
        assert set(round2.nodes()) == set(GRAPH.nodes())
        # Memoised per distinct mask value.
        assert view.graph_at(2) is view.graph_at(50)


class TestExporter:
    def test_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            export_arc_schedule(StaticSchedule(GRAPH), 0)

    def test_static_schedule_is_one_cyclic_mask(self):
        schedule = export_arc_schedule(StaticSchedule(GRAPH), 40)
        assert schedule.masks == (FULL,)
        assert schedule.cycle_from == 0

    def test_periodic_schedule_exports_one_period_exactly(self):
        graphs = [GRAPH, GRAPH.without_edge(0, 1)]
        schedule = export_arc_schedule(PeriodicSchedule(graphs), 3)
        assert schedule.cycle_from == 0
        assert len(schedule.masks) == 2
        view = schedule.as_graph_schedule()
        for round_number in range(1, 12):
            want = graphs[(round_number - 1) % 2]
            assert set(view.graph_at(round_number).edges()) == set(
                want.edges()
            )

    def test_edge_flip_schedule_round_trips_within_horizon(self):
        flips = EdgeFlipSchedule(GRAPH, 2, seed=11)
        horizon = 12
        schedule = export_arc_schedule(flips, horizon)
        view = schedule.as_graph_schedule()
        for round_number in range(1, horizon + 1):
            want = flips.graph_at(round_number)
            got = view.graph_at(round_number)
            assert set(got.nodes()) == set(want.nodes())
            assert {frozenset(e) for e in got.edges()} == {
                frozenset(e) for e in want.edges()
            }

    def test_mismatched_node_sets_raise(self):
        with pytest.raises(ConfigurationError, match="node set"):
            export_arc_schedule(_TwoNodeSets(), 2)


class _TwoNodeSets:
    """A schedule whose round-2 graph drops a node (invalid)."""

    def graph_at(self, round_number):
        return GRAPH if round_number == 1 else path_graph(3)


class _ViaGraphAt:
    """Hides an EdgeFlipSchedule's type: export takes the generic path,
    materialising one Graph per round through ``graph_at``."""

    def __init__(self, schedule):
        self.schedule = schedule

    def graph_at(self, round_number):
        return self.schedule.graph_at(round_number)


class TestEdgeFlipExport:
    """The replayed edge-flip export equals the generic graph_at path."""

    @staticmethod
    def bases():
        from repro.graphs import Graph, petersen_graph
        from repro.graphs.random_graphs import barabasi_albert

        return {
            "c5": GRAPH,
            "petersen": petersen_graph(),
            "single-node": Graph({0: []}),
            "edge": path_graph(2),
            "ba60": barabasi_albert(60, 2, seed=3),
        }

    @staticmethod
    def assert_same_export(flips, seed, base, horizon):
        fast = export_arc_schedule(EdgeFlipSchedule(base, flips, seed), horizon)
        generic = export_arc_schedule(
            _ViaGraphAt(EdgeFlipSchedule(base, flips, seed)), horizon
        )
        assert fast == generic
        assert fast.content_digest() == generic.content_digest()
        assert fast.graph == generic.graph
        assert fast.graph.content_digest() == generic.graph.content_digest()

    @pytest.mark.parametrize("flips", [0, 1, 2, 50])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize(
        "name", ["c5", "petersen", "single-node", "edge", "ba60"]
    )
    def test_equals_generic_export(self, name, seed, flips):
        base = self.bases()[name]
        for horizon in (1, 2, 3, 5, 13, 40):
            self.assert_same_export(flips, seed, base, horizon)

    def test_every_horizon_up_to_40(self):
        from repro.graphs import petersen_graph

        for horizon in range(1, 41):
            self.assert_same_export(2, 11, petersen_graph(), horizon)

    def test_export_does_not_advance_the_schedule(self):
        # Replaying from the recorded seed leaves graph_at untouched.
        schedule = EdgeFlipSchedule(GRAPH, 2, seed=5)
        before = schedule.graph_at(4)
        export_arc_schedule(schedule, 20)
        assert schedule.graph_at(4) is before
        fresh = EdgeFlipSchedule(GRAPH, 2, seed=5)
        assert schedule.graph_at(9) == fresh.graph_at(9)

    @pytest.mark.parametrize("flips", [2, 50])
    def test_superset_shares_untouched_neighbour_sets(self, flips):
        from repro.graphs.random_graphs import barabasi_albert

        base = barabasi_albert(300, 3, seed=1)
        superset = export_arc_schedule(EdgeFlipSchedule(base, flips, 9), 13).graph
        added = set(superset.edges()) - set(base.edges())
        touched = {node for edge in added for node in edge}
        assert added  # the flips added at least one edge
        for node in base.nodes():
            if node in touched:
                assert superset.neighbors(node) > base.neighbors(node)
            else:
                assert superset.neighbors(node) is base.neighbors(node)

    def test_no_added_edge_reuses_the_base_graph(self):
        # Zero flips: every round is the base topology.
        base = cycle_graph(7)
        schedule = export_arc_schedule(EdgeFlipSchedule(base, 0, 3), 6)
        assert schedule.graph is base
        assert set(schedule.masks) == {(1 << 14) - 1}


class TestDynamicDecodeMemo:
    def test_no_superset_index_keeps_a_memo_after_a_sweep(self):
        from repro.api import FloodSession, FloodSpec
        from repro.graphs.random_graphs import barabasi_albert

        graph = barabasi_albert(80, 2, seed=6)
        specs = [
            FloodSpec.from_scenario("dynamic:2", graph, [v], seed=seed, max_rounds=12)
            for seed in range(3)
            for v in graph.nodes()[:5]
        ]
        with FloodSession(workers=0) as session:
            results = session.sweep(specs)
            again = [session.run(spec) for spec in specs[:3]]
        assert [r.round_edge_counts for r in results[:3]] == [
            r.round_edge_counts for r in again
        ]
        for spec in specs:
            superset = spec.variant.schedule.graph
            assert superset != graph
            assert IndexedGraph.of(superset)._send_cache is None
