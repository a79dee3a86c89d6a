"""Arc-mask steppers for every non-deterministic flooding variant.

The flooding variants of :mod:`repro.variants` (probabilistic thinning,
Bernoulli message loss, ``k``-memory windows, periodic re-injection,
concurrent multi-message floods, random-delay asynchrony, dynamic
graphs) all started life on set-based reference steppers.  This module
ports them onto the CSR index and the per-node bitmask frontier of
:mod:`repro.fastpath.pure_backend`, so every registered scenario --
Monte-Carlo surveys, injection phase diagrams, metastability sweeps --
runs at fast-path cost, batches through :mod:`repro.parallel`, serves
through :mod:`repro.service` and keys the result cache, all as plain
:class:`VariantSpec` requests.  The set-based engines stay in the tree
as the pinned references the equivalence matrix checks against.

Randomness
----------
Stochastic steppers draw nothing sequentially.  Every keep/drop
decision is a counter-based hash of its coordinates (:mod:`repro.rng`):

    ``survive(arc) = slot_draw(round_key(run_key, round), slot) < p``

with ``run_key = derive_key(spec.seed, run_index)``; the step-granular
``random_delay`` stepper draws per-(run, step, arc) the same way, with
the async step index as the round coordinate.  The consequences are
the contract of this module:

* a run's outcome depends only on ``(spec.seed, run_index)`` -- not on
  execution order, worker count, chunk size, or batch composition;
* the set-based reference implementations in :mod:`repro.variants` and
  :mod:`repro.asynchrony` consume the *same* coordinates through the
  same functions, so the equivalence matrices
  (``tests/variants/test_fastpath_equivalence.py``,
  ``tests/variants/test_scenario_fastpath_equivalence.py``) hold fast
  and reference runs bit-for-bit equal per variant.

Backends
--------
Every kind runs on the pure arc-mask stepper of this module, which is
the reference and the lane used when numpy is absent.  The stochastic
kinds (``thinning``, ``loss``, ``random_delay``) also run on the numpy
arc-vector steppers of :mod:`repro.fastpath.numpy_backend`, which draw
the same counter coordinates in batches (:func:`repro.rng.gamma_draws`)
and return the same :data:`VariantRawRun`, field for field.
:func:`repro.fastpath.engine.select_backend` (and :func:`variant_backend`,
which delegates to it) picks numpy for a stochastic run when numpy is
importable, the graph passes the frontier rule
(``NUMPY_ARC_THRESHOLD`` arcs and mean degree at least
``NUMPY_MIN_MEAN_DEGREE``), and the flood is *supercritical*: survival
``q`` times ``mean degree - 1`` above 1 for thinning/loss, always for
``random_delay``, which loses nothing.  A subcritical flood dies in a
few sparse rounds, where the O(arcs) vector round loses to the
per-message loop.  ``backend="numpy"`` may be named for the stochastic
kinds only; the double-cover oracle predicts the deterministic process
and is never valid for a variant.

Entry points
------------
:class:`VariantSpec` (build with :func:`thinning`,
:func:`bernoulli_loss`, :func:`k_memory`, :func:`periodic_injection`,
:func:`multi_message`, :func:`random_delay`,
:func:`dynamic_schedule`) plugs into ``fastpath.sweep(...,
variant=spec)``, ``parallel_sweep``, ``SweepPool.sweep`` and
``FloodService.query``; :func:`variant_survey` is the Monte-Carlo
aggregation over a trial batch.  :func:`run_variants` is the raw
batch dispatch the engine and the worker pool call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.fastpath import numpy_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import _BYTE_BITS, _decode, _decoders
from repro.fastpath.schedule import ArcSchedule
from repro.graphs.graph import Graph, Node
from repro.rng import (
    derive_key,
    mask_hold_split,
    round_key,
    slot_draw,
    survival_threshold,
)

THINNING = "thinning"
LOSS = "loss"
KMEMORY = "kmemory"
PERIODIC = "periodic"
MULTI = "multi_message"
DELAY = "random_delay"
DYNAMIC = "dynamic"

VARIANT_KINDS = (THINNING, LOSS, KMEMORY, PERIODIC, MULTI, DELAY, DYNAMIC)
STOCHASTIC_KINDS = (THINNING, LOSS, DELAY)
"""The kinds that consume randomness; each also has a numpy lane."""

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def _popcount(value: int) -> int:
        return bin(value).count("1")


VariantRawRun = Tuple[
    bool,  # terminated within budget
    List[int],  # per-round message counts (round 1 first)
    int,  # total messages
    Optional[List[List[int]]],  # per-round sender ids (None when not collected)
    Optional[List[List[int]]],  # per-node-id ascending receive rounds
    int,  # nodes that ever held the message (sources included)
]
"""The :data:`~repro.fastpath.pure_backend.RawRun` tuple plus a trailing
reached-node count (coverage is a headline variant statistic and too
cheap to recompute from full receive collection)."""


@dataclass(frozen=True)
class VariantSpec:
    """One variant of the flooding process, as a picklable value.

    ``kind`` selects the stepper; ``probability`` is the per-message
    *survival* probability of the ``thinning``/``loss`` kinds (the two
    share dynamics -- a dropped forward and a lost message are the same
    event in the synchronous model -- and differ only in how callers
    parameterise them) or the per-message *hold* probability of
    ``random_delay``; ``k`` is the memory window of ``kmemory``;
    ``period``/``injections`` parameterise ``periodic``; ``schedule``
    is the frozen :class:`~repro.fastpath.schedule.ArcSchedule` of
    ``dynamic``; ``seed`` owns the randomness (run ``i`` of a batch
    draws from the stream ``derive_key(seed, i)``; the deterministic
    kinds ignore it).

    The stochastic kinds (:data:`STOCHASTIC_KINDS`) run on the pure
    stepper or the bit-identical numpy lane, chosen by
    :func:`repro.fastpath.engine.select_backend` or named with
    ``backend="numpy"``; the other kinds run on the pure stepper only.

    Frozen and hashable: specs ride in pool task tuples and service
    micro-batch keys unchanged.  Build through :func:`thinning`,
    :func:`bernoulli_loss`, :func:`k_memory`,
    :func:`periodic_injection`, :func:`multi_message`,
    :func:`random_delay` or :func:`dynamic_schedule`.
    """

    kind: str
    probability: Optional[float] = None
    k: Optional[int] = None
    seed: int = 0
    period: Optional[int] = None
    injections: Optional[int] = None
    schedule: Optional[ArcSchedule] = None

    def __post_init__(self) -> None:
        if self.kind not in VARIANT_KINDS:
            raise ConfigurationError(
                f"unknown variant kind {self.kind!r}; expected one of "
                f"{VARIANT_KINDS}"
            )
        if self.kind == KMEMORY:
            if self.k is None or self.k < 0:
                raise ConfigurationError("kmemory requires k >= 0")
            self._reject_fields("probability", "period", "injections", "schedule")
        elif self.kind in (THINNING, LOSS):
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise ConfigurationError(
                    f"{self.kind} requires a survival probability in [0, 1]"
                )
            self._reject_fields("k", "period", "injections", "schedule")
        elif self.kind == DELAY:
            # Strict upper bound: p = 1 would hold everything forever
            # and the all-held fallback would degenerate into a
            # deterministic single-delivery schedule nobody asked for.
            if self.probability is None or not 0.0 <= self.probability < 1.0:
                raise ConfigurationError(
                    "random_delay requires a hold probability in [0, 1)"
                )
            self._reject_fields("k", "period", "injections", "schedule")
        elif self.kind == PERIODIC:
            if self.period is None or self.period < 1:
                raise ConfigurationError("periodic requires period >= 1")
            if self.injections is None or self.injections < 1:
                raise ConfigurationError("periodic requires injections >= 1")
            self._reject_fields("probability", "k", "schedule")
        elif self.kind == MULTI:
            self._reject_fields(
                "probability", "k", "period", "injections", "schedule"
            )
        else:  # DYNAMIC
            if not isinstance(self.schedule, ArcSchedule):
                raise ConfigurationError(
                    "dynamic requires an ArcSchedule (see "
                    "repro.variants.dynamic.export_arc_schedule)"
                )
            self._reject_fields("probability", "k", "period", "injections")

    def _reject_fields(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is not None:
                raise ConfigurationError(f"{self.kind} takes no {name}")

    @property
    def stochastic(self) -> bool:
        """Whether runs of this variant consume randomness."""
        return self.kind in STOCHASTIC_KINDS

    def run_key(self, run_index: int) -> int:
        """The RNG stream key owned by run ``run_index`` of this spec."""
        return derive_key(self.seed, run_index)


def thinning(forward_probability: float, seed: int = 0) -> VariantSpec:
    """Probabilistic amnesiac flooding: forward each copy w.p. ``q``."""
    return VariantSpec(THINNING, probability=forward_probability, seed=seed)


def bernoulli_loss(loss_rate: float, seed: int = 0) -> VariantSpec:
    """Amnesiac flooding where each message is lost w.p. ``loss_rate``."""
    if not 0.0 <= loss_rate <= 1.0:
        raise ConfigurationError("loss_rate must be within [0, 1]")
    return VariantSpec(LOSS, probability=1.0 - loss_rate, seed=seed)


def k_memory(k: int) -> VariantSpec:
    """``k``-round memory windows (``k = 1`` is amnesiac flooding)."""
    return VariantSpec(KMEMORY, k=k)


def periodic_injection(period: int, injections: int = 3) -> VariantSpec:
    """The source re-floods every ``period`` rounds, ``injections`` times."""
    return VariantSpec(PERIODIC, period=period, injections=injections)


def multi_message() -> VariantSpec:
    """Every source floods its own distinct payload concurrently."""
    return VariantSpec(MULTI)


def random_delay(delay_probability: float, seed: int = 0) -> VariantSpec:
    """Oblivious asynchrony: hold each message w.p. ``delay_probability``.

    Step-granular: the budget counts asynchronous delivery steps, not
    synchronous rounds (an unset ``FloodSpec.max_rounds`` resolves to
    :func:`~repro.sync.engine.default_step_budget`).
    """
    return VariantSpec(DELAY, probability=delay_probability, seed=seed)


def dynamic_schedule(schedule: ArcSchedule) -> VariantSpec:
    """Amnesiac flooding over a time-varying topology.

    ``schedule`` is the arc-diff form of a dynamic graph; freeze any
    :class:`~repro.variants.dynamic.GraphSchedule` into one with
    :func:`repro.variants.dynamic.export_arc_schedule`.
    """
    return VariantSpec(DYNAMIC, schedule=schedule)


def variant_default_budget(variant: VariantSpec, graph: Graph) -> int:
    """The budget an unset ``max_rounds`` resolves to for a variant.

    The uniform budget rule, per granularity: the step-granular
    ``random_delay`` kind counts sub-round asynchronous steps and gets
    :func:`~repro.sync.engine.default_step_budget` (floored well above
    the round budget -- dense graphs are metastable at step
    granularity); every round-granular kind gets
    :func:`~repro.sync.engine.default_round_budget`.
    """
    from repro.sync.engine import default_round_budget, default_step_budget

    if variant.kind == DELAY:
        return default_step_budget(graph)
    return default_round_budget(graph)


def variant_backend(
    index: IndexedGraph, backend: Optional[str], spec: VariantSpec
) -> str:
    """Resolve the backend for a variant run.

    The same rule as ``select_backend(index, backend, spec)`` (see
    :func:`repro.fastpath.engine.select_backend`), to which this
    delegates: ``None`` picks numpy for supercritical stochastic runs
    on graphs past the frontier thresholds, else ``"pure"``.
    """
    from repro.fastpath.engine import select_backend

    return select_backend(index, backend, spec)


def validate_variant_backend(backend: Optional[str], spec: VariantSpec) -> None:
    """Name-level backend validation for a variant, no index required.

    Request validation (:class:`~repro.api.spec.FloodSpec`) runs this
    without touching the CSR index: ``None`` and ``"pure"`` are always
    valid, ``"numpy"`` only for the stochastic kinds (and when numpy
    imports), the oracle never.
    """
    if backend is None or backend == "pure":
        return
    if backend == "oracle":
        raise ConfigurationError(
            f"the double-cover oracle predicts the deterministic process; "
            f"{spec.kind!r} variant runs never route to it "
            f"(backend must be 'pure', 'numpy' or None)"
        )
    if backend == "numpy":
        if not spec.stochastic:
            raise ConfigurationError(
                f"the numpy kernel runs the deterministic process and the "
                f"stochastic variants only; {spec.kind!r} variant runs use "
                f"backend='pure'"
            )
        if not numpy_backend.HAS_NUMPY:
            raise ConfigurationError(
                "numpy backend requested but numpy is not importable"
            )
        return
    raise ConfigurationError(
        f"unknown fastpath backend {backend!r} for variant {spec.kind!r}; "
        f"expected 'pure', 'numpy' or None"
    )


def run_variants(
    index: IndexedGraph,
    id_lists: Sequence[Sequence[int]],
    budget: int,
    spec: VariantSpec,
    run_keys: Sequence[int],
    backend: str = "pure",
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> List[VariantRawRun]:
    """One batch of variant floods; one raw statistics tuple per id list.

    ``run_keys[i]`` is the already-derived RNG stream key of run ``i``
    (:meth:`VariantSpec.run_key`); it is threaded explicitly so sharded
    callers can key runs by their *global* batch position.  Ignored by
    the deterministic kinds (``kmemory``, ``periodic``,
    ``multi_message``, ``dynamic``).  ``backend`` is the resolved
    backend: ``"numpy"`` runs the stochastic kinds on the arc-vector
    steppers of :mod:`repro.fastpath.numpy_backend`.

    A ``dynamic`` batch shares one decode memo across its runs (they
    share the schedule) and drops it on return, so no memo outlives
    the batch on the cached superset index.
    """
    kind = spec.kind
    if kind in STOCHASTIC_KINDS:
        threshold = survival_threshold(spec.probability)
        if backend == "numpy":
            runner = (
                numpy_backend.run_delay if kind == DELAY else numpy_backend.run_thinned
            )
        else:
            runner = _run_delay if kind == DELAY else _run_stochastic
        return [
            runner(
                index,
                ids,
                budget,
                threshold,
                run_key,
                collect_senders,
                collect_receives,
            )
            for ids, run_key in zip(id_lists, run_keys)
        ]
    if kind == DYNAMIC:
        memo = _ScheduleMemo(index, spec.schedule)
        return [
            _run_dynamic(memo, ids, budget, collect_senders, collect_receives)
            for ids in id_lists
        ]
    if kind == KMEMORY:
        return [
            _run_kmemory(index, ids, budget, spec.k, collect_senders, collect_receives)
            for ids in id_lists
        ]
    if kind == PERIODIC:
        return [
            _run_periodic(
                index,
                ids,
                budget,
                spec.period,
                spec.injections,
                collect_senders,
                collect_receives,
            )
            for ids in id_lists
        ]
    return [
        _run_multi(index, ids, budget, collect_senders, collect_receives)
        for ids in id_lists
    ]


def _run_stochastic(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    threshold: int,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Survival-thinned amnesiac flooding (thinning and loss variants).

    The loop is :func:`repro.fastpath.pure_backend.run` with one
    insertion: every send-mask is thinned through the counter-based
    draws before it enters the frontier, so the arcs that exist in
    round ``r`` are exactly the messages *delivered* in round ``r``
    (the complement rule and the statistics then see only survivors,
    matching the reference fault model).
    """
    full_masks = index.full_masks
    offsets = index.offsets
    n = index.n

    masks = [0] * n
    heard = [0] * n
    reached = bytearray(n)
    reached_count = len(source_ids)
    for source in source_ids:
        reached[source] = 1

    active: List[int] = []
    rkey = round_key(run_key, 1)
    for source in source_ids:
        thinned = _thin_mask(offsets[source], full_masks[source], rkey, threshold)
        if thinned:
            masks[source] = thinned
            active.append(source)

    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True
    round_number = 1

    while active:
        if round_number > budget:
            terminated = False
            break
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks[sender]
            masks[sender] = 0
            count += _popcount(mask)
            for receiver, rbit in _decode(index, sender, mask):
                if not heard[receiver]:
                    touch(receiver)
                    if not reached[receiver]:
                        reached[receiver] = 1
                        reached_count += 1
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard[receiver] = heard[receiver] | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(active))
        rkey = round_key(run_key, round_number + 1)
        next_active: List[int] = []
        for receiver in touched:
            send = full_masks[receiver] & ~heard[receiver]
            heard[receiver] = 0
            if send:
                send = _thin_mask(offsets[receiver], send, rkey, threshold)
                if send:
                    masks[receiver] = send
                    next_active.append(receiver)
        active = next_active
        round_number += 1

    return (
        terminated,
        round_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


def _thin_mask(base: int, mask: int, rkey: int, threshold: int) -> int:
    """Keep each set bit (arc ``base + position``) independently.

    Iterates low-to-high, but the kept set is order-free: each arc's
    draw is a pure function of its slot and the round key.
    """
    kept = 0
    position = 0
    while mask:
        if mask & 1 and slot_draw(rkey, base + position) < threshold:
            kept |= 1 << position
        mask >>= 1
        position += 1
    return kept


def _run_kmemory(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    k: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """``k``-memory flooding on per-node heard-mask windows.

    A receiver's next send-mask is the complement of the *union* of its
    heard-masks over the last ``k`` rounds (``k = 1`` keeps only the
    current round -- amnesiac flooding, bit-identical to the pure
    backend; ``k = 0`` forgets even that and ping-pongs until the
    budget cuts it off).  Windows live in a sparse dict keyed by node
    id -- only nodes with history in range pay for it.
    """
    full_masks = index.full_masks
    n = index.n

    masks = [0] * n
    heard = [0] * n
    windows: Dict[int, List[Tuple[int, int]]] = {}
    reached = bytearray(n)
    reached_count = len(source_ids)

    active: List[int] = []
    for source in source_ids:
        reached[source] = 1
        if full_masks[source]:
            masks[source] = full_masks[source]
            active.append(source)

    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True
    round_number = 1

    while active:
        if round_number > budget:
            terminated = False
            break
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks[sender]
            masks[sender] = 0
            count += _popcount(mask)
            for receiver, rbit in _decode(index, sender, mask):
                if not heard[receiver]:
                    touch(receiver)
                    if not reached[receiver]:
                        reached[receiver] = 1
                        reached_count += 1
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard[receiver] = heard[receiver] | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(active))
        next_active: List[int] = []
        for receiver in touched:
            heard_mask = heard[receiver]
            heard[receiver] = 0
            if k == 0:
                avoid = 0
            elif k == 1:
                avoid = heard_mask
            else:
                window = windows.setdefault(receiver, [])
                window.append((round_number, heard_mask))
                cutoff = round_number - k
                while window and window[0][0] <= cutoff:
                    window.pop(0)
                avoid = 0
                for _, remembered in window:
                    avoid |= remembered
            send = full_masks[receiver] & ~avoid
            if send:
                masks[receiver] = send
                next_active.append(receiver)
        active = next_active
        round_number += 1

    return (
        terminated,
        round_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


def _run_periodic(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    period: int,
    injections: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Periodic re-injection on per-node send masks.

    Mirrors :func:`repro.variants.periodic.periodic_injection_flood`
    round for round: injection ``i`` ORs the source's full out-mask
    into its pending sends at round ``1 + i * period`` (every round of
    the injection phase is counted, including empty ones -- the clock
    ticks whether or not messages fly); after the last injection the
    orbit is evolved to an exact verdict by configuration memoisation
    -- the key is the sorted ``(sender, mask)`` profile of the active
    nodes, one dict slot per distinct configuration -- under the
    settle budget (cut off only when settle round ``budget + 1`` would
    still send, the core rule).  ``len(round_counts)`` equals the
    reference's ``total_rounds`` in all three outcomes (terminated,
    limit cycle, cut off); a limit cycle reports ``terminated=False``
    exactly like the reference.
    """
    if len(source_ids) != 1:
        raise ConfigurationError(
            f"the periodic variant re-injects from a single source; "
            f"got {len(source_ids)} sources"
        )
    source = source_ids[0]
    full_masks = index.full_masks
    offsets = index.offsets
    decoders = _decoders(index)
    n = index.n

    masks = [0] * n
    heard = [0] * n
    active: List[int] = []
    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    reached = bytearray(n)
    reached[source] = 1
    total = 0

    def step(round_number: int) -> None:
        """Count, deliver and advance the pending send masks."""
        nonlocal active, total
        masks_l, heard_l, reached_l = masks, heard, reached
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks_l[sender]
            masks_l[sender] = 0
            decoder = decoders[sender]
            send_list = decoder.get(mask)
            if send_list is None:
                send_list = _decode(index, sender, mask)
                # The pure backend's memo cap: flooding shows each node
                # only ~degree distinct masks.
                if len(decoder) <= 2 * (offsets[sender + 1] - offsets[sender]) + 16:
                    decoder[mask] = send_list
            count += len(send_list)
            for receiver, rbit in send_list:
                heard_mask = heard_l[receiver]
                if not heard_mask:
                    touch(receiver)
                    # Branchless reached marking; counted once at the end.
                    reached_l[receiver] = 1
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard_l[receiver] = heard_mask | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(active))
        next_active: List[int] = []
        for receiver in touched:
            send = full_masks[receiver] & ~heard_l[receiver]
            heard_l[receiver] = 0
            if send:
                masks_l[receiver] = send
                next_active.append(receiver)
        active = next_active

    def profile() -> FrozenSet[Tuple[int, int]]:
        """The configuration, as a canonical hashable key.

        A frozenset of ``(sender, mask)`` pairs: senders are distinct,
        so set equality is exactly configuration equality, with no sort
        over the (potentially graph-sized) active list.  The key is
        only hashed and compared, never iterated.
        """
        return frozenset((v, masks[v]) for v in active)

    last_injection = 1 + (injections - 1) * period
    for round_number in range(1, last_injection + 1):
        if (round_number - 1) % period == 0:
            if not masks[source] and full_masks[source]:
                active.append(source)
            masks[source] |= full_masks[source]
        step(round_number)

    seen: Dict[FrozenSet[Tuple[int, int]], int] = {profile(): 0}
    settle = 0
    terminated = True
    while active:
        if settle + 1 > budget:
            terminated = False
            break
        step(last_injection + settle + 1)
        settle += 1
        key = profile()
        if key in seen:
            terminated = False
            break
        seen[key] = settle

    return (
        terminated,
        round_counts,
        total,
        sender_rounds,
        receives,
        sum(reached),
    )


def _run_multi(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Concurrent distinct-payload floods: independent masks, one fold.

    Amnesia means payloads cannot interfere (the independence invariant
    of :mod:`repro.variants.multi_message`), so the stepper runs one
    plain pure-backend flood per source/payload and superimposes the
    statistics: per-round counts add (payloads never collapse into one
    message -- they are distinct), senders and receive rounds union
    with per-round dedup, the run terminates when every payload does,
    and the combined length is the last round in which *any* payload
    still sent.  Bit-identical to
    :func:`~repro.variants.multi_message.concurrent_floods` of one
    payload per source.
    """
    full_masks = index.full_masks
    offsets = index.offsets
    decoders = _decoders(index)
    n = index.n

    combined_counts: List[int] = []
    sender_sets: Optional[List[Set[int]]] = [] if collect_senders else None
    receive_sets: Optional[List[Set[int]]] = (
        [set() for _ in range(n)] if collect_receives else None
    )
    reached = bytearray(n)
    reached_count = 0
    for source in source_ids:
        if not reached[source]:
            reached[source] = 1
            reached_count += 1
    total = 0
    terminated = True

    for source in source_ids:
        masks = [0] * n
        heard = [0] * n
        active: List[int] = []
        if full_masks[source]:
            masks[source] = full_masks[source]
            active.append(source)
        round_number = 1
        while active:
            if round_number > budget:
                terminated = False
                break
            count = 0
            touched: List[int] = []
            touch = touched.append
            for sender in active:
                mask = masks[sender]
                masks[sender] = 0
                decoder = decoders[sender]
                send_list = decoder.get(mask)
                if send_list is None:
                    send_list = _decode(index, sender, mask)
                    if len(decoder) <= 2 * (offsets[sender + 1] - offsets[sender]) + 16:
                        decoder[mask] = send_list
                count += len(send_list)
                for receiver, rbit in send_list:
                    if not heard[receiver]:
                        touch(receiver)
                        if not reached[receiver]:
                            reached[receiver] = 1
                            reached_count += 1
                        if receive_sets is not None:
                            receive_sets[receiver].add(round_number)
                    heard[receiver] = heard[receiver] | rbit
            if round_number > len(combined_counts):
                combined_counts.append(count)
            else:
                combined_counts[round_number - 1] += count
            total += count
            if sender_sets is not None:
                while len(sender_sets) < round_number:
                    sender_sets.append(set())
                sender_sets[round_number - 1].update(active)
            next_active: List[int] = []
            for receiver in touched:
                send = full_masks[receiver] & ~heard[receiver]
                heard[receiver] = 0
                if send:
                    masks[receiver] = send
                    next_active.append(receiver)
            active = next_active
            round_number += 1

    sender_rounds = (
        [sorted(senders) for senders in sender_sets]
        if sender_sets is not None
        else None
    )
    receives = (
        [sorted(rounds) for rounds in receive_sets]
        if receive_sets is not None
        else None
    )
    return (
        terminated,
        combined_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


def _run_delay(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    threshold: int,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Step-granular random-delay asynchrony on per-node send masks.

    The arc-mask form of :func:`repro.asynchrony.engine.run_async`
    under the counter-keyed delay adversary
    (:class:`repro.asynchrony.adversary.CounterDelayAdversary`, which
    consumes the *same* coordinates): each step draws
    ``slot_draw(round_key(run_key, step), slot)`` per in-transit arc
    and holds the arc iff the draw falls below ``threshold``
    (:func:`~repro.rng.survival_threshold` of the hold probability);
    if the coins held everything,
    the single arc with the smallest ``(draw, slot)`` is delivered so
    time progresses.  Delivered arcs apply the amnesiac rule (forward
    to the complement of this step's senders); forwards merge with held
    arcs by mask OR, exactly as the set union of
    :func:`~repro.asynchrony.configurations.apply_delivery`.
    ``round_counts`` holds per-*step* delivered-message counts, so
    ``len(round_counts)`` is the async run's step count.
    """
    offsets = index.offsets
    full_masks = index.full_masks
    n = index.n

    masks = [0] * n
    heard = [0] * n
    queued = bytearray(n)
    active: List[int] = []
    reached = bytearray(n)
    reached_count = 0
    for source in source_ids:
        if not reached[source]:
            reached[source] = 1
            reached_count += 1
        if full_masks[source]:
            masks[source] = full_masks[source]
            active.append(source)

    step_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True

    for step_number in range(1, budget + 1):
        if not active:
            break
        rkey = round_key(run_key, step_number)
        # Draw per in-transit arc, splitting each sender's mask into a
        # held and a delivered half.  The forced-delivery fallback
        # tracks the global minimum (draw, slot) with strict
        # comparisons, so it is independent of iteration order.
        deliveries: List[Tuple[int, int]] = []
        best_draw = -1
        best_slot = -1
        best_sender = -1
        best_bit = 0
        for sender in active:
            mask = masks[sender]
            base = offsets[sender]
            held, position, draw = mask_hold_split(rkey, base, mask, threshold)
            slot = base + position
            if (
                best_draw < 0
                or draw < best_draw
                or (draw == best_draw and slot < best_slot)
            ):
                best_draw = draw
                best_slot = slot
                best_sender = sender
                best_bit = 1 << position
            delivered = mask & ~held
            masks[sender] = held
            if delivered:
                deliveries.append((sender, delivered))
        if not deliveries:
            masks[best_sender] ^= best_bit
            deliveries.append((best_sender, best_bit))

        count = 0
        touched: List[int] = []
        touch = touched.append
        owners: List[int] = []
        for sender, delivered in deliveries:
            owners.append(sender)
            count += _popcount(delivered)
            for receiver, rbit in _decode(index, sender, delivered):
                if not heard[receiver]:
                    touch(receiver)
                    if not reached[receiver]:
                        reached[receiver] = 1
                        reached_count += 1
                    if receives is not None:
                        receives[receiver].append(step_number)
                heard[receiver] = heard[receiver] | rbit
        step_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(owners))
        for receiver in touched:
            send = full_masks[receiver] & ~heard[receiver]
            heard[receiver] = 0
            if send:
                masks[receiver] = masks[receiver] | send
        next_active: List[int] = []
        for node in active:
            if masks[node]:
                queued[node] = 1
                next_active.append(node)
        for node in touched:
            if masks[node] and not queued[node]:
                queued[node] = 1
                next_active.append(node)
        for node in next_active:
            queued[node] = 0
        active = next_active
    else:
        if active:
            terminated = False

    return (
        terminated,
        step_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


class _ScheduleMemo:
    """The decode and split memos of one ``dynamic`` batch.

    Built per :func:`run_variants` call and dropped when it returns:
    the runs of a batch share one schedule, so they share the superset
    index's per-node decoders and the per-node splits of each distinct
    round mask, while the superset index -- a one-off in the index LRU
    -- keeps no memo of its own.
    """

    __slots__ = ("sindex", "schedule", "decoders", "splits")

    def __init__(self, index: IndexedGraph, schedule: ArcSchedule) -> None:
        sindex = IndexedGraph.of(schedule.graph)
        if sindex.labels != index.labels:
            raise ConfigurationError(
                "the dynamic variant's schedule must share the spec graph's "
                "node set (the superset graph adds edges, never nodes)"
            )
        self.sindex = sindex
        self.schedule = schedule
        self.decoders: List[Dict[int, tuple]] = [{} for _ in range(sindex.n)]
        self.splits: Dict[int, List[int]] = {}

    def live(self, round_number: int) -> List[int]:
        """Round ``round_number``'s activation, as per-node send masks."""
        gmask = self.schedule.mask_at(round_number)
        split = self.splits.get(gmask)
        if split is None:
            split = _split_mask(self.sindex, gmask)
            self.splits[gmask] = split
        return split


def _run_dynamic(
    memo: _ScheduleMemo,
    source_ids: Sequence[int],
    budget: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Amnesiac flooding over an arc-diff schedule.

    Runs entirely in the *superset* graph's slot space: round ``r``
    delivers the pending sends (live by construction), and receivers
    forward to the complement of this round's senders masked by round
    ``r + 1``'s activation -- the arc-mask form of "forward over the
    next round's topology", matching
    :func:`repro.variants.dynamic.simulate_dynamic` round for round.
    The schedule's global round masks are split into per-node CSR
    blocks once per *distinct* mask per batch (``memo``), so a round's
    topology costs one AND per forwarding node.  The spec's graph must
    share the superset's node set (ids then align, both being
    sorted-label orders).
    """
    sindex = memo.sindex
    full_masks = sindex.full_masks
    soffsets = sindex.offsets
    decoders = memo.decoders
    n = sindex.n
    live = memo.live

    masks = [0] * n
    heard = [0] * n
    active: List[int] = []
    reached = bytearray(n)
    reached_count = 0
    first_live = live(1)
    for source in source_ids:
        if not reached[source]:
            reached[source] = 1
            reached_count += 1
        send = full_masks[source] & first_live[source]
        if send:
            masks[source] = send
            active.append(source)

    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True
    round_number = 1

    while active:
        if round_number > budget:
            terminated = False
            break
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks[sender]
            masks[sender] = 0
            decoder = decoders[sender]
            send_list = decoder.get(mask)
            if send_list is None:
                send_list = _decode(sindex, sender, mask)
                if len(decoder) <= 2 * (soffsets[sender + 1] - soffsets[sender]) + 16:
                    decoder[mask] = send_list
            count += len(send_list)
            for receiver, rbit in send_list:
                if not heard[receiver]:
                    touch(receiver)
                    if not reached[receiver]:
                        reached[receiver] = 1
                        reached_count += 1
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard[receiver] = heard[receiver] | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(active))
        next_live = live(round_number + 1)
        next_active: List[int] = []
        for receiver in touched:
            send = full_masks[receiver] & ~heard[receiver] & next_live[receiver]
            heard[receiver] = 0
            if send:
                masks[receiver] = send
                next_active.append(receiver)
        active = next_active
        round_number += 1

    return (
        terminated,
        round_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


def _split_mask(index: IndexedGraph, gmask: int) -> List[int]:
    """Split a global arc mask into per-node CSR-block send masks.

    Exports the big int to bytes once and walks the set bits with the
    byte table, so the cost is O(arcs / 8 + set bits) -- never the
    quadratic low-bit walk over the whole mask.
    """
    offsets = index.offsets
    out = [0] * index.n
    data = gmask.to_bytes((index.num_arcs + 7) // 8, "little")
    byte_bits = _BYTE_BITS
    node = 0
    for byte_index, byte in enumerate(data):
        if not byte:
            continue
        base = byte_index * 8
        for k in byte_bits[byte]:
            slot = base + k
            while slot >= offsets[node + 1]:
                node += 1
            out[node] |= 1 << (slot - offsets[node])
    return out


# ----------------------------------------------------------------------
# Monte-Carlo aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSummary:
    """Aggregate of a seeded trial batch of one variant.

    Field semantics follow the reference surveys
    (:class:`repro.variants.lossy.LossySummary`): rates and means are
    over *all* trials, terminated or not; ``coverage`` is the mean
    fraction of the source's component that ever held the message.
    """

    variant: VariantSpec
    trials: int
    termination_rate: float
    mean_rounds: float
    mean_messages: float
    coverage: float


def variant_survey(
    graph: Graph,
    source: Node,
    variant: VariantSpec,
    trials: int,
    max_rounds: Optional[int] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> VariantSummary:
    """Monte-Carlo summary of a variant from one source, on the fast path.

    Trial ``i`` draws from the stream ``derive_key(variant.seed, i)``,
    so the summary is bit-identical for every ``workers`` /
    ``chunksize`` choice (the pool shards the batch; the keys do not
    move) and matches the counter-seeded reference surveys trial for
    trial.  ``workers=None`` auto-sizes exactly like
    :func:`repro.parallel.parallel_sweep`.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    from repro.graphs.traversal import bfs_distances
    from repro.parallel import parallel_sweep

    component = len(bfs_distances(graph, source))
    runs = parallel_sweep(
        graph,
        [[source]] * trials,
        max_rounds=max_rounds,
        variant=variant,
        workers=workers,
        chunksize=chunksize,
    )
    terminated = 0
    rounds_total = 0
    messages_total = 0
    coverage_total = 0.0
    for run in runs:
        if run.terminated:
            terminated += 1
        rounds_total += run.termination_round
        messages_total += run.total_messages
        coverage_total += run.reached_count / component
    return VariantSummary(
        variant=variant,
        trials=trials,
        termination_rate=terminated / trials,
        mean_rounds=rounds_total / trials,
        mean_messages=messages_total / trials,
        coverage=coverage_total / trials,
    )
