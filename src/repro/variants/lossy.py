"""Amnesiac flooding under message loss.

The paper's model assumes "No messages are lost in transit".  This
variant relaxes that assumption to probe robustness, and the answer is
striking: **message loss can destroy the termination guarantee**.

Theorem 3.1's proof hinges on the parity structure of round-sets (a
node never holds the message at two rounds of equal parity).  A lost
message breaks the symmetric wave cancellation that structure encodes,
and what remains behaves like a branching process: each delivery to a
degree-``d`` node spawns up to ``d - 1`` forwards, each surviving with
probability ``1 - loss_rate``.

* **Subcritical** regimes terminate: low-degree graphs (on cycles each
  message begets at most one successor, so loss strictly shrinks the
  run) and high loss rates on any graph.
* **Supercritical** regimes self-sustain: on ``K6`` at 25% loss the
  flood runs for (at least) thousands of rounds with a steady message
  population -- every sampled seed survives any budget we give it.

The LOSSY experiments chart this phase transition and the coverage
degradation (how many nodes never hear the message) as loss grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph, Node
from repro.core.amnesiac import AmnesiacFlooding
from repro.fastpath.indexed import IndexedGraph
from repro.rng import derive_key, fresh_seed
from repro.sync.engine import run_algorithm
from repro.sync.faults import CounterBernoulliLoss
from repro.sync.trace import ExecutionTrace


def lossy_flood(
    graph: Graph,
    source: Node,
    loss_rate: float,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
    trial_index: int = 0,
) -> ExecutionTrace:
    """One amnesiac flood where each message is lost with ``loss_rate``.

    Randomness is counter-based (:mod:`repro.rng`): the run draws from
    the stream ``derive_key(seed, trial_index)`` and every message's
    fate is a pure hash of its round and arc, so the outcome is stable
    under any execution order and bit-identical to the arc-mask fast
    path (a ``FloodSpec(..., variant=bernoulli_loss(loss_rate, seed),
    stream=trial_index)``).  ``seed
    None`` draws a fresh random seed.
    """
    if seed is None:
        seed = fresh_seed()
    faults = CounterBernoulliLoss(
        loss_rate,
        derive_key(seed, trial_index),
        IndexedGraph.of(graph).arc_slot,
    )
    return run_algorithm(
        graph,
        AmnesiacFlooding(),
        initiators=[source],
        max_rounds=max_rounds,
        faults=faults,
    )


@dataclass(frozen=True)
class LossySummary:
    """Aggregate of repeated lossy floods at one loss rate.

    ``coverage`` is the mean fraction of the source's component that
    received the message; ``termination_rate`` the fraction of runs
    that terminated within budget; round/message means are over all
    runs (terminated or not).
    """

    loss_rate: float
    trials: int
    termination_rate: float
    mean_rounds: float
    mean_messages: float
    coverage: float


def lossy_survey(
    graph: Graph,
    source: Node,
    loss_rate: float,
    trials: int,
    seed: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> LossySummary:
    """Monte-Carlo summary of amnesiac flooding at one loss rate.

    Trial ``i`` draws from the counter-derived stream ``(seed, i)``, so
    adding trials or resharding the batch never perturbs earlier
    trials, and the fast-path survey
    (:func:`repro.fastpath.variant_survey` with
    ``bernoulli_loss(loss_rate, seed)``) reproduces this summary
    trial for trial.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    from repro.graphs.traversal import bfs_distances

    component = set(bfs_distances(graph, source))
    if seed is None:
        seed = fresh_seed()

    terminated = 0
    rounds_total = 0
    messages_total = 0
    coverage_total = 0.0
    for trial_index in range(trials):
        trace = lossy_flood(
            graph,
            source,
            loss_rate,
            seed=seed,
            max_rounds=max_rounds,
            trial_index=trial_index,
        )
        if trace.terminated:
            terminated += 1
        rounds_total += trace.rounds_executed
        messages_total += trace.total_messages()
        coverage_total += len(trace.nodes_reached() & component) / len(component)

    return LossySummary(
        loss_rate=loss_rate,
        trials=trials,
        termination_rate=terminated / trials,
        mean_rounds=rounds_total / trials,
        mean_messages=messages_total / trials,
        coverage=coverage_total / trials,
    )


def loss_sweep(
    graph: Graph,
    source: Node,
    loss_rates: List[float],
    trials: int,
    seed: Optional[int] = None,
) -> List[LossySummary]:
    """Survey a list of loss rates with counter-derived per-rate streams.

    Rate ``i`` owns the sub-seed ``derive_key(seed, i)``: reordering,
    inserting or removing rates never changes another rate's trials.
    """
    if seed is None:
        seed = fresh_seed()
    return [
        lossy_survey(
            graph, source, rate, trials, seed=derive_key(seed, rate_index)
        )
        for rate_index, rate in enumerate(loss_rates)
    ]
