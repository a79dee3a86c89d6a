"""Backend dispatch, spec execution (``run_spec``/``sweep_specs``) and arc-mask orbits.

This module is the public face of the fast path.  It validates inputs
with the same errors as the reference simulators, picks a backend, and
wraps the raw backend output in :class:`IndexedRun`, whose fields are
bit-for-bit identical to the statistics of
:func:`repro.core.amnesiac.simulate` (the equivalence-matrix tests
assert this on every engine pair).

Backend selection
-----------------
* ``"pure"`` -- per-node integer bitmasks; always available; cost per
  round is O(messages).  Best for small graphs and sparse frontiers.
* ``"numpy"`` -- vectorised boolean arc arrays; available when numpy
  imports; cost per round is O(arcs) regardless of frontier size.  Best
  for large dense floods.
* ``"oracle"`` -- no frontier at all: one BFS over the implicit double
  cover predicts every statistic the frontier engines report
  (termination round, message totals, per-round counts, sender sets,
  receive rounds) in O(n + m) total.  Always available; reached only
  by name.

:func:`select_backend` is the one resolution rule, and every tier
(``run_spec``, :func:`batch_key_of`/:func:`sweep_specs`, the worker
pool, ``FloodSession`` and the service) calls it,
so a spec resolves to the same backend -- and the same cache key --
whichever tier runs it.  ``backend=None`` picks a frontier engine:
numpy when it is importable *and* the graph has at least
:data:`NUMPY_ARC_THRESHOLD` directed arcs *and* mean degree at least
:data:`NUMPY_MIN_MEAN_DEGREE` (sparse graphs run long floods, which
punish the O(arcs)-per-round engine), else pure.  Variant specs
resolve to the numpy arc-vector steppers when the kind is stochastic
(``thinning``, ``loss``, ``random_delay``), the graph passes the same
frontier rule and the flood is supercritical (survival ``q`` times
``mean degree - 1`` above 1; ``random_delay`` loses nothing and always
qualifies); every other variant spec resolves to the pure arc-mask
stepper.  ``docs/architecture.md`` records the lane table behind the
rule.

The oracle is never auto-selected.  The cover bound (one message per
cover edge) already caps a frontier flood's *total* work at
O(n + m + rounds), so the oracle's round-count-free cost buys no
measured speed: on odd cycles, odd and even tori and dense
Erdos-Renyi graphs the frontier auto-selection beats both the
per-source oracle and its word-packed batch lane (``docs/architecture.md``
records the lane table).  Batches that request the oracle by name
ride the word-packed bitset sweep (:mod:`repro.fastpath.bitset_oracle`)
when they are deterministic and at least :data:`BITSET_MIN_BATCH`
runs -- an execution strategy, not a backend name: results still
report ``backend="oracle"`` and stay bit-identical to the per-source
oracle, which the equivalence matrix holds equal to the executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.spec import BatchKey, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath import bitset_oracle, numpy_backend, oracle_backend, pure_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import (
    DELAY,
    VariantSpec,
    run_variants,
    validate_variant_backend,
)
from repro.graphs.graph import Graph, Node

PURE = "pure"
NUMPY = "numpy"
ORACLE = "oracle"

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def _popcount(value: int) -> int:
        return bin(value).count("1")

NUMPY_ARC_THRESHOLD = 4096
"""Auto-selection considers numpy from this many directed arcs."""

NUMPY_MIN_MEAN_DEGREE = 4
"""Auto-selection also requires this mean degree before picking numpy.

Arc count alone is the wrong crossover signal: the numpy engine pays
O(arcs) *per round*, so on sparse long-flood families the rounds
multiply a small per-round win into a large total loss.  The committed
trajectory rows (``BENCH_fastpath.json``) make this concrete -- on the
degree-2 cycle ``C4095`` (8190 arcs, past the arc threshold) the numpy
engine runs the 4096-round flood ~20x slower than pure, while on
mean-degree >= 8 graphs of the same arc count it wins.  The
``bench_allpairs.py`` crossover rows record the measurement per mean
degree; auto-selection therefore takes numpy only when the graph is
both large (arc threshold) *and* dense enough
(``num_arcs >= NUMPY_MIN_MEAN_DEGREE * n``, i.e. mean degree >= 4)
that floods stay short relative to the arc work."""

BITSET_MIN_BATCH = 16
"""Batch size at which oracle batches switch to the bitset sweep.

Below this the word-packed pass cannot amortise its numpy setup over
enough runs to beat the per-source Python BFS; at 16+ runs a single
word sweep replaces 16+ full passes.  Chunked tiers shard at
:data:`repro.parallel.pool.MAX_CHUNK` = 64 = one full word, so pool
chunks of eligible batches arrive word-aligned."""


def available_backends() -> Tuple[str, ...]:
    """The backends runnable in this process (pure is always first).

    Pure and the double-cover oracle are dependency-free and always
    present; numpy appears when it is importable.
    """
    if numpy_backend.HAS_NUMPY:
        return (PURE, NUMPY, ORACLE)
    return (PURE, ORACLE)


def validate_backend_name(backend: Optional[str]) -> None:
    """Name-level backend validation, no index required.

    The part of :func:`select_backend` that depends only on the name
    and the process (numpy importability), split out so request
    validation (:class:`~repro.api.spec.FloodSpec`) can run it without
    touching -- or building -- the graph's CSR index.
    """
    if backend in (None, PURE, ORACLE):
        return
    if backend == NUMPY:
        if not numpy_backend.HAS_NUMPY:
            raise ConfigurationError(
                "numpy backend requested but numpy is not importable"
            )
        return
    raise ConfigurationError(
        f"unknown fastpath backend {backend!r}; expected one of "
        f"{(PURE, NUMPY, ORACLE)}"
    )


def select_backend(
    index: IndexedGraph,
    backend: Optional[str] = None,
    variant: Optional[VariantSpec] = None,
) -> str:
    """Resolve a backend name: the one rule every tier applies.

    Explicit names win (validated).  ``backend=None`` auto-selects a
    frontier engine (pure or numpy) from the graph's arc count and mean
    degree; the oracle must be requested by name.  A ``variant`` run
    auto-selects numpy only when its kind is stochastic, the graph
    passes the same frontier rule and the flood is supercritical
    (:func:`_supercritical`); every other variant run resolves to the
    pure stepper.
    """
    if variant is not None:
        validate_variant_backend(backend, variant)
        if backend is None:
            if (
                variant.stochastic
                and _numpy_frontier(index)
                and _supercritical(index, variant)
            ):
                return NUMPY
            return PURE
        return backend
    validate_backend_name(backend)
    if backend is None:
        return NUMPY if _numpy_frontier(index) else PURE
    return backend


def _numpy_frontier(index: IndexedGraph) -> bool:
    """The frontier rule: numpy imports and the graph is large and dense."""
    return (
        numpy_backend.HAS_NUMPY
        and index.num_arcs >= NUMPY_ARC_THRESHOLD
        and index.num_arcs >= NUMPY_MIN_MEAN_DEGREE * index.n
    )


def _supercritical(index: IndexedGraph, variant: VariantSpec) -> bool:
    """Whether a stochastic flood keeps branching on this graph.

    A forwarded message fans out to ``mean degree - 1`` arcs, each of
    which survives with probability ``q``: the flood is supercritical
    when ``q * (mean degree - 1) > 1``, written here without the
    division.  A subcritical flood dies in a few sparse rounds, where
    the O(arcs) vector round loses to the per-message loop.
    ``random_delay`` holds messages but loses none, so it always
    counts as supercritical.
    """
    if variant.kind == DELAY:
        return True
    return variant.probability * (index.num_arcs - index.n) > index.n


@dataclass
class IndexedRun:
    """Result of one fast-path flood, in id space with label accessors.

    ``termination_round``, ``total_messages`` and ``round_edge_counts``
    carry exactly the semantics of
    :class:`repro.core.amnesiac.FloodingRun`; ``sender_sets()`` and
    ``receive_rounds()`` convert the id-space payloads back to node
    labels (and are only available when the run collected them --
    sweeps skip collection for speed).
    """

    index: IndexedGraph
    sources: Tuple[Node, ...]
    backend: str
    terminated: bool
    termination_round: int
    total_messages: int
    round_edge_counts: List[int]
    sender_ids: Optional[List[List[int]]] = None
    receive_rounds_by_id: Optional[List[List[int]]] = None
    variant: Optional[VariantSpec] = None
    reached_count: Optional[int] = None

    @property
    def graph(self) -> Graph:
        return self.index.graph

    def coverage(self, component_size: int) -> float:
        """Fraction of a component of ``component_size`` nodes reached.

        Available on variant runs (their steppers count reached nodes
        for free) and on any run collected with
        ``collect_receives=True``.
        """
        if component_size <= 0:
            return 1.0
        reached = self.reached_count
        if reached is None:
            if self.receive_rounds_by_id is None:
                raise ConfigurationError(
                    "reached nodes were not collected for this run "
                    "(pass collect_receives=True or run a variant)"
                )
            source_ids = {self.index.ids[label] for label in self.sources}
            reached = sum(
                1
                for node_id, rounds in enumerate(self.receive_rounds_by_id)
                if rounds or node_id in source_ids
            )
        return reached / component_size

    def sender_sets(self) -> List[FrozenSet[Node]]:
        """Per round, the frozenset of sending node labels."""
        if self.sender_ids is None:
            raise ConfigurationError(
                "sender sets were not collected for this run "
                "(pass collect_senders=True)"
            )
        labels = self.index.labels
        return [
            frozenset(labels[sender] for sender in senders)
            for senders in self.sender_ids
        ]

    def receive_rounds(self) -> Dict[Node, Tuple[int, ...]]:
        """Per node label, the ascending rounds it received the message."""
        if self.receive_rounds_by_id is None:
            raise ConfigurationError(
                "receive rounds were not collected for this run "
                "(pass collect_receives=True)"
            )
        labels = self.index.labels
        return {
            labels[node_id]: tuple(rounds)
            for node_id, rounds in enumerate(self.receive_rounds_by_id)
        }

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "cut off"
        return (
            f"IndexedRun(rounds={self.termination_round}, "
            f"messages={self.total_messages}, backend={self.backend}, {status})"
        )


def _dispatch(
    index: IndexedGraph,
    source_ids: Sequence[int],
    key: BatchKey,
) -> pure_backend.RawRun:
    """Run one deterministic flood described by a resolved :class:`BatchKey`.

    The per-run leg of :func:`dispatch_batch`, with the same key object
    the batch was resolved to -- so "batchable together" and "runs
    identically" are one definition.
    """
    if key.backend == NUMPY:
        runner = numpy_backend.run
    elif key.backend == ORACLE:
        runner = oracle_backend.run
    else:
        runner = pure_backend.run
    return runner(
        index,
        source_ids,
        key.budget,
        collect_senders=key.collect_senders,
        collect_receives=key.collect_receives,
    )


def dispatch_batch(
    index: IndexedGraph,
    id_lists: Sequence[Sequence[int]],
    key: BatchKey,
    run_keys: Optional[Sequence[int]] = None,
) -> List[pure_backend.RawRun]:
    """Run one resolved batch of source-id lists; one RawRun per list.

    The batch-granular execution funnel over the backends:
    the serial spec sweep, the worker pool's chunk bodies and the
    service's serial executor all run their batches through this
    function.  Variant batches go to
    :func:`~repro.fastpath.variants.run_variants` on their resolved
    backend, run ``i`` on the stream ``run_keys[i]``.  Deterministic
    oracle batches of at least :data:`BITSET_MIN_BATCH` runs take the
    word-packed bitset sweep (:mod:`repro.fastpath.bitset_oracle`) when
    numpy is importable -- bit-identical to the per-run loop, 64 floods
    per cover pass; everything else (frontier backends, small batches,
    no numpy) falls through to the per-run ``_dispatch`` loop.
    """
    if key.variant is not None:
        return run_variants(
            index,
            id_lists,
            key.budget,
            key.variant,
            run_keys if run_keys is not None else [0] * len(id_lists),
            backend=key.backend,
            collect_senders=key.collect_senders,
            collect_receives=key.collect_receives,
        )
    if (
        key.backend == ORACLE
        and bitset_oracle.HAS_NUMPY
        and len(id_lists) >= BITSET_MIN_BATCH
    ):
        return bitset_oracle.run_batch(
            index,
            id_lists,
            key.budget,
            collect_senders=key.collect_senders,
            collect_receives=key.collect_receives,
        )
    return [_dispatch(index, ids, key) for ids in id_lists]


def wrap_raw_run(
    index: IndexedGraph,
    source_ids: Sequence[int],
    backend: str,
    raw: pure_backend.RawRun,
    variant: Optional[VariantSpec] = None,
) -> IndexedRun:
    """Build an :class:`IndexedRun` from a backend's raw statistics tuple.

    The single place the ``RawRun`` shape is interpreted: the serial
    entry points below and the worker pool's result rehydration
    (:mod:`repro.parallel.pool`) all construct results here, so serial
    and sharded runs cannot drift apart field by field.  Variant
    steppers append a reached-node count as a sixth element
    (:data:`~repro.fastpath.variants.VariantRawRun`).
    """
    terminated, round_counts, total, sender_ids, receives = raw[:5]
    reached = raw[5] if len(raw) > 5 else None
    return IndexedRun(
        index=index,
        sources=tuple(index.labels[source] for source in source_ids),
        backend=backend,
        terminated=terminated,
        termination_round=len(round_counts),
        total_messages=total,
        round_edge_counts=round_counts,
        sender_ids=sender_ids,
        receive_rounds_by_id=receives,
        variant=variant,
        reached_count=reached,
    )


def raw_run_of(run: IndexedRun) -> pure_backend.RawRun:
    """Project an :class:`IndexedRun` back to its backend raw tuple.

    The inverse of :func:`wrap_raw_run`, and the only other place the
    ``RawRun`` shape is spelled out: the result cache
    (:mod:`repro.cache`) persists this projection -- everything the
    wrap funnel interprets, nothing process-local (no index, no label
    tuples) -- so a cached entry rehydrates through the same funnel as
    a fresh backend result and the two cannot drift apart field by
    field.  Variant runs round-trip their reached-node count as the
    sixth element, exactly as their steppers emit it.
    """
    raw = (
        run.terminated,
        run.round_edge_counts,
        run.total_messages,
        run.sender_ids,
        run.receive_rounds_by_id,
    )
    if run.reached_count is not None:
        return raw + (run.reached_count,)  # type: ignore[return-value]
    return raw


def run_spec(spec: FloodSpec, index: Optional[IndexedGraph] = None) -> IndexedRun:
    """One flood from a validated :class:`FloodSpec`, serially.

    A one-spec :func:`sweep_specs` batch -- the same backend and the
    same bits as the spec in any batch; the paper-facing
    ``core.simulate`` runs here.  Pass ``index`` to reuse a prebuilt
    :class:`IndexedGraph`.
    """
    return sweep_specs([spec], index)[0]


def routed_sweep_backend(
    index: IndexedGraph,
    backend: Optional[str],
    budget: int,
    probe: bool = True,
) -> str:
    """Compatibility name for :func:`select_backend`.

    The name and signature remain because the repository benchmark
    (``perfbench/layers.py``) imports them; ``budget`` and ``probe``
    are ignored.
    """
    return select_backend(index, backend)


def ensure_homogeneous_specs(specs: Sequence[FloodSpec]) -> FloodSpec:
    """Check a spec batch agrees on everything execution-relevant.

    Specs of one batch may differ only in sources and RNG ``stream``;
    anything that changes how the backend must run them (graph, budget,
    backend request, variant, collection flags) must
    match, because the whole batch resolves to a single
    :class:`BatchKey`.  Returns the lead spec.
    """
    head = specs[0]
    for spec in specs:
        if spec.scenario is not None:
            raise ConfigurationError(
                f"scenario {spec.scenario!r} runs on the reference engines; "
                f"use FloodSession.run (the fast path has no stepper for it)"
            )
        if spec is not head and (
            spec.graph != head.graph
            or spec.max_rounds != head.max_rounds
            or spec.backend != head.backend
            or spec.variant != head.variant
            or spec.collect_senders != head.collect_senders
            or spec.collect_receives != head.collect_receives
        ):
            raise ConfigurationError(
                "sweep_specs requires a homogeneous batch (same graph, "
                "max_rounds, backend, variant and collection "
                "flags); FloodSession.sweep groups heterogeneous specs"
            )
    return head


def batch_key_of(specs: Sequence[FloodSpec], index: IndexedGraph) -> BatchKey:
    """Resolve one homogeneous spec batch to its executable BatchKey.

    The shared front half of every batch tier (serial
    :func:`sweep_specs`, the worker pool, the service's batch path):
    checks the specs agree on everything execution-relevant
    (:func:`ensure_homogeneous_specs`), then resolves the backend once
    through :func:`select_backend`.
    """
    head = ensure_homogeneous_specs(specs)
    return head.batch_key(select_backend(index, head.backend, head.variant))


def sweep_specs(
    specs: Sequence[FloodSpec], index: Optional[IndexedGraph] = None
) -> List[IndexedRun]:
    """Run a homogeneous batch of specs serially, indexing once.

    All specs must share their graph and execution-relevant fields
    (they may differ in sources and RNG ``stream``); the CSR freeze and
    backend resolution are hoisted out of the loop, and each run draws
    from its *own* spec's stream key, so any resharding of the batch
    (the worker pool, the service) reproduces it bit for bit.  Results
    come back in input order as plain picklable dataclasses.

    >>> from repro.api import FloodSpec
    >>> from repro.fastpath import sweep_specs
    >>> from repro.graphs import cycle_graph
    >>> graph = cycle_graph(9)
    >>> specs = [FloodSpec(graph=graph, sources=s) for s in [(0,), (3,), (0, 4)]]
    >>> [run.termination_round for run in sweep_specs(specs)]
    [9, 9, 7]
    >>> oracle = [spec.replace(backend="oracle") for spec in specs]
    >>> [run.termination_round for run in sweep_specs(oracle)]
    [9, 9, 7]
    """
    specs = list(specs)
    if not specs:
        return []
    if index is None:
        index = specs[0].index()
    key = batch_key_of(specs, index)
    id_lists = [index.resolve_sources(spec.sources) for spec in specs]
    run_keys = (
        [spec.run_key() for spec in specs] if key.variant is not None else None
    )
    raw_runs = dispatch_batch(index, id_lists, key, run_keys)
    return [
        wrap_raw_run(index, source_ids, key.backend, raw, key.variant)
        for source_ids, raw in zip(id_lists, raw_runs)
    ]


# ----------------------------------------------------------------------
# Arc-mask configurations (arbitrary initial conditions)
# ----------------------------------------------------------------------
#
# A configuration -- any set of in-transit directed messages, not just
# the source-style states the paper starts from -- packs into a single
# arbitrary-precision int with one bit per arc slot.  Ints are hashable
# and compare in O(words), so orbit detection over the exponential
# configuration space runs on machine integers instead of frozensets of
# label tuples.


def arc_mask_of(
    index: IndexedGraph, configuration: Iterable[Tuple[Node, Node]]
) -> int:
    """Pack labelled directed messages into an arc bitmask."""
    mask = 0
    for sender, receiver in configuration:
        mask |= 1 << index.arc_slot(sender, receiver)
    return mask


def configuration_of_mask(
    index: IndexedGraph, mask: int
) -> FrozenSet[Tuple[Node, Node]]:
    """Unpack an arc bitmask back into labelled directed messages."""
    arcs = []
    while mask:
        low = mask & -mask
        arcs.append(index.arc_of_slot(low.bit_length() - 1))
        mask ^= low
    return frozenset(arcs)


def step_arc_mask(index: IndexedGraph, mask: int) -> int:
    """One synchronous round of amnesiac flooding on an arc bitmask.

    The integer-space twin of :func:`repro.core.amnesiac.step_frontier`:
    every receiver forwards along the complement of the slots it heard
    along.
    """
    targets = index.targets
    reverse_bit = index.reverse_bit
    heard: Dict[int, int] = {}
    remaining = mask
    while remaining:
        low = remaining & -remaining
        slot = low.bit_length() - 1
        remaining ^= low
        receiver = targets[slot]
        heard[receiver] = heard.get(receiver, 0) | reverse_bit[slot]
    offsets = index.offsets
    full_masks = index.full_masks
    next_mask = 0
    for receiver, heard_mask in heard.items():
        send = full_masks[receiver] & ~heard_mask
        if send:
            next_mask |= send << offsets[receiver]
    return next_mask


def evolve_arc_mask(
    index: IndexedGraph, mask: int
) -> Tuple[bool, int, Optional[int], int]:
    """Decide termination of a configuration by exact orbit detection.

    Returns ``(terminates, steps_to_outcome, cycle_length, peak_size)``
    with the semantics of
    :class:`repro.core.initial_conditions.EvolutionResult`.
    """
    seen: Dict[int, int] = {mask: 0}
    current = mask
    peak = _popcount(mask)
    step = 0
    while current:
        current = step_arc_mask(index, current)
        step += 1
        size = _popcount(current)
        if size > peak:
            peak = size
        first_seen = seen.get(current)
        if first_seen is not None:
            return False, first_seen, step - first_seen, peak
        seen[current] = step
    return True, step, None, peak
