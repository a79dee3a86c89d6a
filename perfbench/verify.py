"""Correctness checks run by every benchmark invocation.

* every deterministic flood terminated;
* on a bipartite graph the termination round equals e(source); on any
  other graph it is at most 2D + 1 (Hussak and Trehan);
* a seeded sample is bit-identical to ``FloodSession.run(spec,
  reference=True)``, the pinned set-based engines;
* served answers equal a serial run of the same request.

Eccentricities come from an all-sources bitset BFS written here, so the
check shares no code with the flood engines; it is cross-checked
against :func:`repro.graphs.traversal.eccentricity` on sampled nodes.
Any mismatch is recorded as a problem and counts as a failed request.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.properties import is_bipartite
from repro.graphs.traversal import eccentricity


def eccentricities(graph: Graph) -> Dict[object, int]:
    """Every node's eccentricity, by one word-packed BFS from all sources.

    Row ``v`` of ``reach`` holds, one bit per source, the sources within
    the current level of ``v``; a source's eccentricity is the last
    level at which its bit reached a new node.  Assumes a connected
    graph without isolated nodes.
    """
    nodes = graph.nodes()
    n = len(nodes)
    ids = {node: i for i, node in enumerate(nodes)}
    offsets = [0]
    targets: List[int] = []
    for node in nodes:
        targets.extend(ids[u] for u in graph.neighbors(node))
        offsets.append(len(targets))
    words = (n + 63) // 64
    reach = np.zeros((n, words), dtype="<u8")
    rows = np.arange(n)
    reach[rows, rows // 64] = np.left_shift(np.uint64(1), (rows % 64).astype("<u8"))
    target_arr = np.asarray(targets, dtype=np.int64)
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    ecc = np.zeros(n, dtype=np.int64)
    level = 0
    while True:
        grown = np.bitwise_or.reduceat(reach[target_arr], starts, axis=0) | reach
        fresh = np.bitwise_or.reduce(grown & ~reach, axis=0)
        if not fresh.any():
            break
        level += 1
        bits = np.unpackbits(fresh.view(np.uint8), bitorder="little")[:n]
        ecc[bits.astype(bool)] = level
        reach = grown
    return {node: int(ecc[i]) for i, node in enumerate(nodes)}


class GraphFacts:
    """Bipartiteness, eccentricities and diameter of one graph."""

    def __init__(self, graph: Graph, rng: random.Random) -> None:
        self.bipartite = is_bipartite(graph)
        self.ecc = eccentricities(graph)
        self.diameter = max(self.ecc.values())
        for node in rng.sample(graph.nodes(), 2):
            expected = eccentricity(graph, node)
            if self.ecc[node] != expected:
                raise AssertionError(
                    f"bitset eccentricity {self.ecc[node]} != traversal "
                    f"{expected} at node {node!r}"
                )


def headline_fields(result) -> Tuple:
    """The fields every tier reports, the per-round counts uncopied."""
    return (
        result.terminated,
        result.termination_round,
        result.total_messages,
        result.round_edge_counts,
        result.reached_count,
    )


def comparable(fields: Tuple) -> Tuple:
    """:func:`headline_fields` with the per-round counts as a list."""
    terminated, rounds, messages, counts, reached = fields
    return terminated, rounds, messages, list(counts), reached


def headline(result) -> Tuple:
    """The fields every tier reports, for bit-for-bit comparison."""
    return comparable(headline_fields(result))


def reference_mismatch(fast, reference) -> Optional[str]:
    """Field-for-field comparison with a reference-engine result.

    Compares everything both records report (the thinning reference
    keeps no per-round counts, so there only the totals are compared).
    """
    if (fast.terminated, fast.termination_round, fast.total_messages) != (
        reference.terminated,
        reference.termination_round,
        reference.total_messages,
    ):
        return "terminated/rounds/messages differ from the reference engine"
    if reference.round_edge_counts:
        if list(fast.round_edge_counts) != list(reference.round_edge_counts):
            return "per-round message counts differ from the reference engine"
    elif sum(fast.round_edge_counts) != reference.total_messages:
        return "per-round counts do not sum to the reference total"
    if (
        fast.reached_count is not None
        and reference.reached_count is not None
        and fast.reached_count != reference.reached_count
    ):
        return "reached-node count differs from the reference engine"
    return None


class Checker:
    """Accumulates correctness problems for one benchmark run."""

    def __init__(self, graphs: Sequence[Tuple[str, Graph]], seed: int) -> None:
        rng = random.Random(seed)
        self.facts = {graph: GraphFacts(graph, rng) for _, graph in graphs}
        self.problems: List[str] = []
        self.failed = 0
        self.checked = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def theory(self, spec, result) -> None:
        """Termination and the paper's round bound for a plain flood."""
        self.checked += 1
        if result.spec != spec:
            self.fail(f"answer for {spec!r} carries another spec")
            return
        if not result.terminated:
            self.fail(f"{spec!r} did not terminate")
            return
        facts = self.facts[spec.graph]
        rounds = result.termination_round
        if facts.bipartite and len(spec.sources) == 1:
            expected = facts.ecc[spec.sources[0]]
            if rounds != expected:
                self.fail(f"{spec!r}: {rounds} rounds on a bipartite graph, e(v)={expected}")
        elif rounds > 2 * facts.diameter + 1:
            self.fail(f"{spec!r}: {rounds} rounds > 2D+1 = {2 * facts.diameter + 1}")

    def against_reference(self, session, spec, result) -> None:
        self.checked += 1
        problem = reference_mismatch(result, session.run(spec, reference=True))
        if problem is not None:
            self.fail(f"{spec!r}: {problem}")

    def same(self, spec, got, expected, what: str) -> None:
        self.same_fields(spec, headline_fields(got), expected, what)

    def same_fields(self, spec, fields: Tuple, expected, what: str) -> None:
        """Like :meth:`same`, for fields kept by :func:`headline_fields`."""
        self.checked += 1
        if comparable(fields) != headline(expected):
            self.fail(f"{spec!r}: {what}")
