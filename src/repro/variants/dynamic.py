"""Amnesiac flooding on dynamic (time-varying) graphs.

The paper poses flooding through evolving networks as a natural setting
(social feeds change between forwarding rounds).  This variant runs the
amnesiac rule over a *schedule* of graphs: a message sent in round
``r`` traverses an edge only if the edge exists in the round-``r``
graph, and receivers forward over the round-``r+1`` topology.

Termination is no longer guaranteed -- a periodically appearing edge
can re-inject the message indefinitely -- so runs carry an explicit
budget and report whether they terminated, and the experiments chart
which dynamics preserve termination.
"""

from __future__ import annotations

import random  # repro-lint: disable=REP003 -- schedule *generation* only: EdgeFlipSchedule replays a recorded fresh_seed; flood execution draws nothing from it
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graphs.graph import Edge, Graph, Node, _normalise_edge
from repro.rng import fresh_seed
from repro.sync.engine import default_round_budget


class GraphSchedule(Protocol):
    """A time-varying topology: one graph per round (1-based)."""

    def graph_at(self, round_number: int) -> Graph:
        """The topology in effect during ``round_number``."""
        ...


class StaticSchedule:
    """A constant topology; dynamic flooding then equals static flooding."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    def graph_at(self, round_number: int) -> Graph:
        return self.graph


class PeriodicSchedule:
    """Cycle through a fixed list of graphs, one per round.

    All graphs must share the same node set so that node identity is
    stable across rounds.
    """

    def __init__(self, graphs: Sequence[Graph]) -> None:
        if not graphs:
            raise ConfigurationError("PeriodicSchedule needs at least one graph")
        nodes = set(graphs[0].nodes())
        for graph in graphs[1:]:
            if set(graph.nodes()) != nodes:
                raise ConfigurationError(
                    "all graphs in a schedule must share one node set"
                )
        self.graphs = list(graphs)

    def graph_at(self, round_number: int) -> Graph:
        return self.graphs[(round_number - 1) % len(self.graphs)]


class EdgeFlipSchedule:
    """Seeded random dynamics: each round, flip a few random node pairs.

    Starting from ``base``, each round flips ``flips_per_round``
    uniformly random pairs (edge appears/disappears).  Deterministic per
    seed -- ``seed=None`` draws one :func:`repro.rng.fresh_seed` and
    records it in ``.seed``, so even an unseeded schedule is replayable
    -- and rounds are materialised lazily then cached so repeated
    queries agree.
    """

    def __init__(
        self, base: Graph, flips_per_round: int, seed: Optional[int] = None
    ) -> None:
        if flips_per_round < 0:
            raise ConfigurationError("flips_per_round must be >= 0")
        self.base = base
        self.flips_per_round = flips_per_round
        self.seed = fresh_seed() if seed is None else seed
        self._rng = random.Random(self.seed)
        self._cache: List[Graph] = [base]

    def graph_at(self, round_number: int) -> Graph:
        while len(self._cache) < round_number:
            self._cache.append(self._flip(self._cache[-1]))
        return self._cache[round_number - 1]

    # Pickling: the cache and the advanced rng state are process-local
    # couplings of (base, flips, seed); ship only the recipe and replay
    # from round 1 on the other side -- same seed, same schedule.

    def __getstate__(self) -> Tuple[Graph, int, int]:
        return (self.base, self.flips_per_round, self.seed)

    def __setstate__(self, state: Tuple[Graph, int, int]) -> None:
        base, flips_per_round, seed = state
        self.__init__(base, flips_per_round, seed)  # type: ignore[misc]

    def arc_schedule(self, rounds: int):
        """The first ``rounds`` topologies as an ``ArcSchedule``.

        Equal to the generic :func:`export_arc_schedule` path over
        :meth:`graph_at` (same superset graph, same masks), without
        building a :class:`Graph` per flip: the flips are replayed from
        ``seed`` -- the same ``random.Random`` draws and the same
        has-edge test as :meth:`_flip` -- on neighbour sets, each
        round's net flips become an XOR of arc bits, and the superset
        graph shares ``base``'s frozen neighbour sets for every node no
        added edge touches.
        """
        from repro.fastpath.indexed import IndexedGraph
        from repro.fastpath.schedule import ArcSchedule

        base = self.base
        nodes = list(base.nodes())
        base_adj = base._adj
        current: Dict[Node, Set[Node]] = {}  # neighbour sets of touched nodes
        extra: Dict[Edge, None] = {}  # non-base edges live in some round
        round_flips: List[List[Edge]] = []
        if len(nodes) >= 2:
            rng = random.Random(self.seed)  # repro-lint: disable=REP003 -- replays the recorded schedule seed, as _flip does
            for _ in range(2, rounds + 1):
                toggled: Dict[Edge, None] = {}  # net flips of the round
                for _ in range(self.flips_per_round):
                    u, v = rng.sample(nodes, 2)
                    for node in (u, v):
                        if node not in current:
                            current[node] = set(base_adj[node])
                    if v in current[u]:
                        current[u].discard(v)
                        current[v].discard(u)
                    else:
                        current[u].add(v)
                        current[v].add(u)
                    edge = _normalise_edge(u, v)
                    if edge in toggled:
                        del toggled[edge]
                    else:
                        toggled[edge] = None
                for u, v in toggled:
                    if v in current[u] and v not in base_adj[u]:
                        extra[(u, v)] = None
                round_flips.append(list(toggled))

        if extra:
            grown: Dict[Node, Set[Node]] = {}
            for u, v in extra:
                grown.setdefault(u, set()).add(v)
                grown.setdefault(v, set()).add(u)
            adjacency = dict(base_adj)
            for node, added in grown.items():
                adjacency[node] = base_adj[node] | added
            superset = Graph._from_frozen(
                adjacency, base.nodes(), base.num_edges + len(extra)
            )
        else:
            superset = base
        index = IndexedGraph.of(superset)

        def arc_bits(u: Node, v: Node) -> int:
            return (1 << index.arc_slot(u, v)) | (1 << index.arc_slot(v, u))

        mask = (1 << index.num_arcs) - 1
        for u, v in extra:
            mask ^= arc_bits(u, v)
        masks = [mask]
        for flips in round_flips:
            for u, v in flips:
                mask ^= arc_bits(u, v)
            masks.append(mask)
        while len(masks) < rounds:
            masks.append(mask)
        return ArcSchedule(superset, tuple(masks), None)

    def _flip(self, graph: Graph) -> Graph:
        nodes = list(graph.nodes())
        if len(nodes) < 2:
            return graph
        current = graph
        for _ in range(self.flips_per_round):
            u, v = self._rng.sample(nodes, 2)
            if current.has_edge(u, v):
                current = current.without_edge(u, v)
            else:
                current = current.with_edge(u, v)
        return current


def export_arc_schedule(schedule: GraphSchedule, rounds: int):
    """Freeze a ``GraphSchedule`` into a fast-path ``ArcSchedule``.

    Materialises the schedule's first ``rounds`` topologies, builds the
    **superset graph** (every edge live in any sampled round, over the
    shared node set) and encodes each round as an activation mask over
    the superset's CSR arc slots -- the
    :class:`repro.fastpath.schedule.ArcSchedule` format the
    ``dynamic`` variant stepper executes.

    ``rounds`` must cover the run: round ``r`` of the flood consults
    the round-``r + 1`` topology for forwarding, so export
    ``budget + 1`` rounds for a budget-``budget`` run.  Beyond the
    horizon the frozen schedule holds its last mask -- exact for
    :class:`StaticSchedule` and :class:`PeriodicSchedule`, which
    instead export one full period with ``cycle_from=0`` (their frozen
    form is exact for *every* round, any horizon).
    """
    # Local import: fastpath depends on graphs/rng only; variants
    # depending on fastpath.schedule here keeps the layering acyclic.
    from repro.fastpath.indexed import IndexedGraph
    from repro.fastpath.schedule import ArcSchedule

    if rounds < 1:
        raise ConfigurationError("export_arc_schedule needs rounds >= 1")
    if isinstance(schedule, EdgeFlipSchedule):
        return schedule.arc_schedule(rounds)
    cycle_from: Optional[int] = None
    if isinstance(schedule, StaticSchedule):
        graphs = [schedule.graph]
        cycle_from = 0
    elif isinstance(schedule, PeriodicSchedule):
        graphs = list(schedule.graphs)
        cycle_from = 0
    else:
        graphs = [schedule.graph_at(r) for r in range(1, rounds + 1)]

    nodes = set(graphs[0].nodes())
    for graph in graphs[1:]:
        if set(graph.nodes()) != nodes:
            raise ConfigurationError(
                "all graphs in a schedule must share one node set"
            )

    edge_lists = [graph.edges() for graph in graphs]
    union_edges: List[Tuple[Node, Node]] = []
    seen: Set[frozenset] = set()
    for edge_list in edge_lists:
        for u, v in edge_list:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                union_edges.append((u, v))
    superset = Graph.from_edges(union_edges, isolated=graphs[0].nodes())
    index = IndexedGraph.of(superset)

    # One pass over the CSR arrays builds the directed-arc bit table;
    # per-edge ``arc_slot`` lookups (a bisect each) would dominate the
    # export on large schedules.
    labels, offsets, targets = index.labels, index.offsets, index.targets
    arc_bit: Dict[Tuple[Node, Node], int] = {}
    for position, u in enumerate(labels):
        for slot in range(offsets[position], offsets[position + 1]):
            arc_bit[(u, labels[targets[slot]])] = 1 << slot

    masks: List[int] = []
    for edge_list in edge_lists:
        mask = 0
        for u, v in edge_list:
            mask |= arc_bit[(u, v)] | arc_bit[(v, u)]
        masks.append(mask)
    return ArcSchedule(superset, tuple(masks), cycle_from)


@dataclass
class DynamicRun:
    """Result of a dynamic amnesiac flood.

    ``receive_rounds`` and counters mirror
    :class:`repro.core.amnesiac.FloodingRun`; ``terminated`` may
    genuinely be ``False`` here.
    """

    sources: Tuple[Node, ...]
    terminated: bool
    termination_round: int
    total_messages: int
    receive_rounds: Dict[Node, Tuple[int, ...]]
    round_edge_counts: List[int] = field(default_factory=list)

    def nodes_reached(self) -> Set[Node]:
        reached = {n for n, rounds in self.receive_rounds.items() if rounds}
        reached.update(self.sources)
        return reached


def simulate_dynamic(
    schedule: GraphSchedule,
    sources: Sequence[Node],
    max_rounds: Optional[int] = None,
) -> DynamicRun:
    """Run the amnesiac rule over a graph schedule.

    The complement rule uses the *current* round's topology: a receiver
    forwards to its current neighbours minus this round's senders.
    Messages whose edge vanished mid-flight (sent in round ``r`` over a
    round-``r`` edge) are still delivered -- the edge existed when the
    send happened; sends towards departed neighbours simply cannot be
    expressed, matching a node that only knows its current neighbour
    list.

    Budget semantics are the core rule: ``max_rounds=None`` selects
    :func:`repro.sync.engine.default_round_budget` of the round-1
    topology (schedules share one node set, so the ``4n + 8`` bound is
    schedule-wide), and the run is cut off -- ``terminated=False`` --
    only when round ``budget + 1`` actually carries messages.
    """
    first = schedule.graph_at(1)
    if max_rounds is None:
        max_rounds = default_round_budget(first)
    if max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")
    for source in sources:
        if not first.has_node(source):
            raise NodeNotFoundError(source)

    receive_rounds: Dict[Node, List[int]] = {node: [] for node in first.nodes()}
    round_edge_counts: List[int] = []
    total_messages = 0

    frontier: Set[Tuple[Node, Node]] = {
        (source, neighbour)
        for source in dict.fromkeys(sources)
        for neighbour in first.neighbors(source)
    }
    round_number = 1
    terminated = True
    while frontier:
        if round_number > max_rounds:
            terminated = False
            break
        round_edge_counts.append(len(frontier))
        total_messages += len(frontier)
        heard_from: Dict[Node, Set[Node]] = defaultdict(set)
        # repro-lint: disable=REP002 -- order-free: set adds plus a per-round dedup guard on the rounds list
        for sender, receiver in frontier:
            heard_from[receiver].add(sender)
            rounds = receive_rounds[receiver]
            if not rounds or rounds[-1] != round_number:
                rounds.append(round_number)
        next_graph = schedule.graph_at(round_number + 1)
        frontier = {
            (receiver, neighbour)
            for receiver, senders in heard_from.items()
            if next_graph.has_node(receiver)
            for neighbour in next_graph.neighbors(receiver)
            if neighbour not in senders
        }
        round_number += 1

    return DynamicRun(
        sources=tuple(dict.fromkeys(sources)),
        terminated=terminated,
        termination_round=len(round_edge_counts) if terminated else round_number - 1,
        total_messages=total_messages,
        receive_rounds={
            node: tuple(rounds) for node, rounds in receive_rounds.items()
        },
        round_edge_counts=round_edge_counts,
    )
