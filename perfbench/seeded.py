"""Seeded inputs for the benchmark workloads.

``--seed`` is the only workload input: every graph, spec sequence and
arrival schedule below is a pure function of it (and of a set-up
repetition number, so repeated set-ups build distinct but equally sized
graphs that no equality-keyed cache in the program can recognise).
The program under test receives only the generated values.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from bisect import bisect_left
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.api import FloodSpec
from repro.graphs import barabasi_albert, cycle_graph, torus_graph
from repro.graphs.graph import Graph

HELD_OUT_SEED = 90210
"""Seed reserved for checking later claims; never used while tuning."""

# sweep_long: long-flood graphs, batches of distinct single sources.
SWEEP_GRAPHS = (
    ("cycle2047", lambda: cycle_graph(2047)),
    ("torus45x47", lambda: torus_graph(45, 47)),
    ("torus46x48", lambda: torus_graph(46, 48)),
)
SWEEP_BATCH = 128

# survey_variants: (scenario, explicit budget or None, trials per round,
# sources per trial).  Stochastic kinds share one variant seed and vary
# the stream; dynamic trials vary the schedule seed.
SURVEY_NODES, SURVEY_ATTACH = 1000, 3
SURVEY_MIX = (
    ("lossy:0.05", 12, 32, 1),
    ("thinning:0.9", 12, 32, 1),
    ("random_delay:0.3", 24, 32, 1),
    ("kmemory:2", None, 32, 1),
    ("periodic:3,3", None, 32, 1),
    ("multi_message", None, 32, 2),
    ("dynamic:2", 12, 2, 1),
)

# serve_zipf: a Zipf-popular universe of single-source specs.  The
# torus is the long-flood graph (resolved to the oracle); at 31x33 a
# miss on it costs about 7 ms on a 2-core x86-64 machine.  With the
# 45x47 torus (about 13 ms a miss) those misses alone kept the two pool
# workers about half busy in the open loop, the p99 was made of a few
# queueing episodes, and it varied by 0.38 (quartile spread over median)
# between runs.
SERVE_NODES, SERVE_ATTACH = 5000, 4
SERVE_TORUS = (31, 33)
ZIPF_EXPONENT = 1.0
OPEN_RATE = 350.0
"""Mean open-loop arrival rate (queries/s), bursts excluded.

With the bursts the open loop offers 400 queries/s.  The closed-loop
saturation rate of a 2-core x86-64 machine was 6,000-7,500 queries/s
when its host was quiet and fell to 1,700-3,500 queries/s when a busy
host slowed it down; at 1,100 queries/s such slowdowns pushed the open
loop close to saturation (p50 up to 18 ms, p99 up to 290 ms).  400
queries/s stays below a quarter of the lowest rate observed."""
BURST_EVERY = 0.2
BURST_SIZE = 10
CLOSED_CALLERS = 8


def derive(seed: int, *labels: object) -> int:
    """A 63-bit integer derived from ``seed`` and ``labels``."""
    text = repr((seed,) + labels).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


def rng_for(seed: int, *labels: object) -> random.Random:
    return random.Random(derive(seed, *labels))


def relabelled(graph: Graph, rng: random.Random) -> Callable[[], Graph]:
    """A build function for ``graph`` with its nodes renamed by a seeded
    permutation of 0..n-1.

    The permutation is drawn and the edges renamed now; the function only
    constructs the graph, the program's part of the work.
    """
    nodes = graph.nodes()
    names = list(range(len(nodes)))
    rng.shuffle(names)
    mapping = dict(zip(nodes, names))
    edges = [(mapping[u], mapping[v]) for u, v in graph.edges()]
    return lambda: Graph.from_edges(edges, isolated=names)


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
# A recipe names a graph and holds a build function that runs only program
# code, so set-up timings measure graph construction, not input
# generation.

Recipe = Tuple[str, Callable[[], Graph]]


def sweep_recipes(seed: int, rep: int) -> List[Recipe]:
    return [
        (name, relabelled(build(), rng_for(seed, "sweep_long", rep, name)))
        for name, build in SWEEP_GRAPHS
    ]


def survey_recipes(seed: int, rep: int) -> List[Recipe]:
    graph_seed = derive(seed, "survey", rep)
    return [("ba1000", lambda: barabasi_albert(SURVEY_NODES, SURVEY_ATTACH, seed=graph_seed))]


def serve_recipes(seed: int, rep: int) -> List[Recipe]:
    graph_seed = derive(seed, "serve", rep)
    return [
        ("ba5000", lambda: barabasi_albert(SERVE_NODES, SERVE_ATTACH, seed=graph_seed)),
        ("torus31x33", relabelled(torus_graph(*SERVE_TORUS), rng_for(seed, "serve", rep))),
    ]


RECIPES = {
    "sweep_long": sweep_recipes,
    "survey_variants": survey_recipes,
    "serve_zipf": serve_recipes,
}


def build_graphs(recipes: Sequence[Recipe]) -> List[Tuple[str, Graph]]:
    return [(name, build()) for name, build in recipes]


def workload_graphs(workload: str, seed: int, rep: int) -> List[Tuple[str, Graph]]:
    return build_graphs(RECIPES[workload](seed, rep))


# ----------------------------------------------------------------------
# Spec sequences
# ----------------------------------------------------------------------


def sweep_batch(seed: int, round_no: int, name: str, graph: Graph) -> List[FloodSpec]:
    """One batch of distinct single-source deterministic specs."""
    sources = rng_for(seed, "sweep_long", "batch", round_no, name).sample(
        graph.nodes(), SWEEP_BATCH
    )
    return [FloodSpec(graph=graph, sources=(v,)) for v in sources]


def survey_plan(seed: int, round_no: int, graph: Graph) -> List[Tuple[str, list]]:
    """One survey round: per scenario, the ``from_scenario`` arguments.

    Returns ``(scenario, [kwargs...])`` pairs; building the specs from
    them is timed work of the round (``dynamic`` binding exports a
    schedule), so it stays with the caller.
    """
    rng = rng_for(seed, "survey_variants", "round", round_no)
    variant_seed = derive(seed, "survey_variants", "variant_seed") % (1 << 31)
    nodes = graph.nodes()
    plan = []
    for scenario, budget, trials, width in SURVEY_MIX:
        calls = []
        for trial in range(trials):
            sources = rng.sample(nodes, width)
            if scenario.startswith("dynamic"):
                trial_seed = derive(seed, "survey_variants", round_no, trial) % (1 << 31)
                stream = 0
            else:
                trial_seed = variant_seed
                stream = round_no * trials + trial
            calls.append(
                dict(
                    scenario=scenario,
                    graph=graph,
                    sources=sources,
                    seed=trial_seed,
                    stream=stream,
                    max_rounds=budget,
                )
            )
        plan.append((scenario, calls))
    return plan


def build_survey_specs(calls: Sequence[dict]) -> List[FloodSpec]:
    return [
        FloodSpec.from_scenario(
            call["scenario"],
            call["graph"],
            call["sources"],
            seed=call["seed"],
            stream=call["stream"],
            max_rounds=call["max_rounds"],
        )
        for call in calls
    ]


def serve_universe(seed: int, graphs: Sequence[Tuple[str, Graph]]) -> List[FloodSpec]:
    """Every single-source spec on the serving graphs, in seeded
    popularity order (position 0 is the most popular).

    Each graph's specs are shuffled by the seed, then interleaved in
    proportion to the graphs' sizes, so every popularity band holds the
    same mix of cheap and expensive floods whatever the seed.
    """
    pools = []
    for name, graph in graphs:
        specs = [FloodSpec(graph=graph, sources=(v,)) for v in graph.nodes()]
        rng_for(seed, "serve_zipf", "popularity", name).shuffle(specs)
        pools.append(specs)
    taken = [0] * len(pools)
    universe: List[FloodSpec] = []
    for _ in range(sum(len(pool) for pool in pools)):
        lane = min(
            (i for i in range(len(pools)) if taken[i] < len(pools[i])),
            key=lambda i: (taken[i] + 1) / len(pools[i]),
        )
        universe.append(pools[lane][taken[lane]])
        taken[lane] += 1
    return universe


class ZipfPicker:
    """Draws universe positions with probability proportional to
    ``1 / (rank + 1) ** ZIPF_EXPONENT``."""

    def __init__(self, size: int) -> None:
        weights = (1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(size))
        self._cumulative = list(itertools.accumulate(weights))

    def pick(self, rng: random.Random) -> int:
        target = rng.random() * self._cumulative[-1]
        return min(bisect_left(self._cumulative, target), len(self._cumulative) - 1)


def open_schedule(seed: int, duration: float, size: int) -> List[Tuple[float, int]]:
    """The open-loop arrivals: ``(due offset in s, universe position)``.

    A Poisson process at ``OPEN_RATE`` plus a burst of ``BURST_SIZE``
    simultaneous arrivals every ``BURST_EVERY`` seconds, sorted by due
    time.
    """
    rng = rng_for(seed, "serve_zipf", "arrivals")
    picker = ZipfPicker(size)
    times: List[float] = []
    now = 0.0
    while True:
        now += rng.expovariate(OPEN_RATE)
        if now >= duration:
            break
        times.append(now)
    burst = BURST_EVERY / 2
    while burst < duration:
        times.extend([burst] * BURST_SIZE)
        burst += BURST_EVERY
    times.sort()
    return [(due, picker.pick(rng)) for due in times]


def closed_requests(seed: int, phase: str, caller: int, size: int) -> Iterator[int]:
    """Caller ``caller``'s endless sequence of universe positions in
    ``phase`` (``"warm"`` or ``"closed"``)."""
    rng = rng_for(seed, "serve_zipf", phase, caller)
    picker = ZipfPicker(size)
    while True:
        yield picker.pick(rng)


DIGEST_ROUNDS = 2
"""Rounds of the batch workloads' spec sequences the input digest covers."""


def input_digest(seed: int, workload: str) -> str:
    """A digest over the graphs, spec sequences and schedules ``seed``
    generates for ``workload`` (equal seeds give equal digests)."""
    h = hashlib.sha256()
    graphs = workload_graphs(workload, seed, 0)
    for name, graph in graphs:
        h.update(f"{name}:{graph.content_digest()}".encode())
    if workload == "sweep_long":
        for r in range(DIGEST_ROUNDS):
            for name, graph in graphs:
                for spec in sweep_batch(seed, r, name, graph):
                    h.update(repr(spec.sources).encode())
    elif workload == "survey_variants":
        for r in range(DIGEST_ROUNDS):
            for scenario, calls in survey_plan(seed, r, graphs[0][1]):
                for call in calls:
                    h.update(
                        repr(
                            (scenario, call["sources"], call["seed"], call["stream"])
                        ).encode()
                    )
    else:
        universe = serve_universe(seed, graphs)
        h.update(repr([spec.sources for spec in universe[:64]]).encode())
        schedule = open_schedule(seed, 2.0, len(universe))
        h.update(repr([(round(due, 9), pos) for due, pos in schedule]).encode())
        calls = closed_requests(seed, "closed", 0, len(universe))
        h.update(repr([next(calls) for _ in range(64)]).encode())
    return h.hexdigest()
