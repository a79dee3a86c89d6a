"""``FloodSpec``: one declarative request object for every execution tier.

The repo grew four ways to run a flood -- ``core.amnesiac.simulate``,
``fastpath.sweep``/``simulate_indexed``, ``parallel_sweep``/``SweepPool``
and ``FloodService.query`` -- and every new capability (backends,
variants, per-request RNG keys) had to be hand-threaded through
all of them as parallel kwarg pipelines.  This module collapses the
request shape into a single frozen dataclass, validated **once** at
construction:

* :class:`FloodSpec` -- graph + sources + round budget + backend +
  :class:`~repro.fastpath.variants.VariantSpec` + RNG
  stream position + collection flags + optional scenario string.  It is
  frozen, hashable and picklable, so the same object rides from the
  caller through the micro-batcher, the pool task queue and the worker
  processes without translation.
* :class:`BatchKey` -- the execution-relevant projection of a spec
  (everything that changes *how* a batch must run: budget, resolved
  backend, collection flags, variant).  Requests with equal batch keys
  may share a pool task or a service micro-batch; this object replaces
  the ad-hoc key tuples the pool and the service each used to build.
* :meth:`FloodSpec.from_scenario` -- the string scenario registry
  (``"lossy:0.1"``, ``"kmemory:2"``, ``"periodic:3,4"``,
  ``"random_delay:0.5"``, ``"dynamic:2"`` ...).  Every built-in
  scenario canonicalises into a ``VariantSpec`` (or the plain
  deterministic process) and executes on the arc-mask fast path; see
  :mod:`repro.api.scenarios`.

Validation errors are :class:`~repro.errors.ConfigurationError` (or
:class:`~repro.errors.NodeNotFoundError` for unknown sources) and always
name the offending field, so a spec that constructed successfully is
runnable on every tier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, NodeNotFoundError
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import VariantSpec
from repro.graphs.graph import Graph, Node
from repro.sync.engine import default_round_budget

BACKEND_NAMES = ("pure", "numpy", "oracle")
"""The concrete fast-path backend names a spec may pin."""

CACHE_MODES = ("use", "bypass", "refresh")
"""Cache policies a spec may carry (:mod:`repro.cache`).

``"use"`` (the default) serves a cached result when one exists and
stores fresh results; ``"bypass"`` never reads or writes the cache
(benchmarks measuring raw execution stay honest); ``"refresh"``
always executes and overwrites whatever the cache held.  The policy
deliberately does **not** participate in :meth:`FloodSpec.digest` --
it says how to treat the cache entry, not which entry the request
names."""

DIGEST_EXCLUDED = frozenset({"cache"})
"""The :class:`FloodSpec` fields deliberately absent from :meth:`FloodSpec.digest`.

Read by the ``REP201`` digest-coverage lint rule: every dataclass field
must either appear in the digest payload or be listed here with its
reason.  ``cache`` is the transport *policy* -- how to treat the cache
entry, never which entry the request names (see :data:`CACHE_MODES`);
putting it in the digest would split identical results across three
cache addresses."""

BATCH_KEY_EXCLUDED = frozenset(
    {"graph", "sources", "backend", "probe", "scenario", "stream"}
)
"""Digest-participating fields deliberately absent from :meth:`FloodSpec.batch_key`.

Read by the ``REP202`` batch-key-coverage lint rule: every field the
digest covers must either split the coalescing bucket (be read by
``batch_key()``) or be declared bucket-irrelevant here.  The reasons:

* ``graph`` / ``sources`` -- batching is *per graph entry* (the bucket
  key pairs the entry with the ``BatchKey``) and a batch is exactly a
  set of source lists sharing everything else, so neither belongs in
  the shared projection.
* ``backend`` -- reaches :class:`BatchKey` as the *resolved* backend
  parameter; the raw field still contains ``None`` (auto) after
  routing decided.
* ``probe`` -- has no effect on execution (see the field's
  documentation); it stays in the digest only so existing cache
  addresses keep their value.
* ``scenario`` -- extension-scenario specs run on the reference
  engines and are rejected by the batching service before any bucket
  is chosen.
* ``stream`` -- the per-request RNG position; requests on different
  streams batch together by design, each carrying its own
  ``run_key()`` into the pool."""


@dataclass(frozen=True)
class BatchKey:
    """The execution-relevant projection of a :class:`FloodSpec`.

    Two requests with equal batch keys run identically apart from their
    source sets and RNG stream keys, so they may share a pool task and
    a service micro-batch.  The pool ships this object in its task
    tuples and the service keys its coalescing buckets on it -- one
    definition of "batchable together" instead of two hand-maintained
    key tuples.

    ``backend`` here is always a *resolved* concrete name (routing has
    already happened); ``budget`` is the resolved round budget.
    """

    budget: int
    backend: str
    collect_senders: bool
    collect_receives: bool
    variant: Optional[VariantSpec] = None


@dataclass(frozen=True)
class FloodSpec:
    """One flood request, as a frozen, hashable, picklable value.

    Fields
    ------
    graph:
        The topology (immutable and hashable; the spec hashes with it).
    sources:
        Node labels holding the message in round 0.  Canonicalised at
        construction: validated against ``graph``, deduplicated in
        first-seen order, stored as a tuple.
    max_rounds:
        The round budget.  ``None`` resolves to
        :func:`~repro.sync.engine.default_round_budget` at
        construction, so equal specs always carry equal concrete
        budgets (the budget is part of the batch key).
    backend:
        ``None`` (auto / routed) or one of :data:`BACKEND_NAMES`.
        Validated at construction, including numpy availability and
        variant compatibility.
    probe:
        No effect: backend resolution is one rule
        (:func:`~repro.fastpath.engine.select_backend`) for every
        tier.  The field stays in :meth:`digest` because removing it
        changes every cache address and needs a codec bump.
    variant:
        Optional :class:`~repro.fastpath.variants.VariantSpec` running
        the stochastic/memory stepper instead of the deterministic
        process.
    scenario:
        Scenario string input.  Every built-in scenario string is
        canonicalised *into* ``variant`` at construction (so
        ``FloodSpec(scenario="lossy:0.1", ...)`` equals
        ``FloodSpec(variant=bernoulli_loss(0.1), ...)`` and the field
        ends up ``None``); only extension scenarios registered with a
        set-based runner keep their canonical string here and execute
        through :func:`repro.api.scenarios.run_scenario`.
    stream:
        The RNG stream position of this request within
        ``variant.seed`` (the run executes on
        ``derive_key(variant.seed, stream)``).  Canonicalised to 0 for
        deterministic requests -- including the deterministic variant
        kinds (``kmemory``, ``periodic``, ``multi_message``,
        ``dynamic``), which consume no randomness -- so such specs
        differing only by ``stream`` batch (and cache) together.
    collect_senders / collect_receives:
        Per-round sender sets and per-node receive rounds are collected
        only on request (sweep-shaped work skips them for speed).
    cache:
        Cache policy for the content-addressed result cache, one of
        :data:`CACHE_MODES`.  Excluded from :meth:`digest` -- two specs
        differing only in policy name the same cached result.

    The class is a frozen dataclass: equality and ``hash()`` cover
    every field, so a spec is directly usable as a dict key, a service
    micro-batch key, or a pool task payload.  For *cross-process*
    pinning (Python's ``hash()`` of strings is salted per process) use
    :meth:`digest`.
    """

    graph: Graph
    sources: Tuple[Node, ...]
    max_rounds: Optional[int] = None
    backend: Optional[str] = None
    probe: bool = True
    variant: Optional[VariantSpec] = None
    scenario: Optional[str] = None
    stream: int = 0
    collect_senders: bool = False
    collect_receives: bool = False
    cache: str = "use"

    def __post_init__(self) -> None:
        if not isinstance(self.graph, Graph):
            raise ConfigurationError(
                f"graph must be a repro Graph, got {type(self.graph).__name__}"
            )
        # Sources: validate against the graph and canonicalise to a
        # first-seen-ordered label tuple.  Deliberately index-free --
        # construction must stay O(sources), never O(graph): legacy
        # shims build one spec per source set, and touching the CSR
        # index LRU here can cost a full graph-equality compare per
        # spec when an equal-but-distinct graph occupies the cache slot.
        seen = set()
        canonical = []
        for label in self.sources:
            if not self.graph.has_node(label):
                raise NodeNotFoundError(label)
            if label not in seen:
                seen.add(label)
                canonical.append(label)
        if not canonical:
            raise ConfigurationError("at least one source is required")
        object.__setattr__(self, "sources", tuple(canonical))
        if self.variant is not None and not isinstance(self.variant, VariantSpec):
            raise ConfigurationError(
                f"variant must be a VariantSpec, got {type(self.variant).__name__}"
            )
        # Scenario strings canonicalise here: variant-backed ones fold
        # into the variant field, set-based ones normalise their string.
        # Binding happens before budget resolution because a scenario
        # may own its own default budget scale (random_delay counts
        # sub-round async steps, floored well above the round budget).
        if self.scenario is not None:
            from repro.api.scenarios import bind_scenario

            if self.variant is not None:
                raise ConfigurationError(
                    "scenario and variant are mutually exclusive; the "
                    "scenario string already names the variant"
                )
            bound_variant, canonical_scenario = bind_scenario(self.scenario, self)
            object.__setattr__(self, "variant", bound_variant)
            object.__setattr__(self, "scenario", canonical_scenario)
        # Budget: resolve None once so equal requests carry equal keys.
        # Variants own their budget granularity (random_delay counts
        # async steps); extension scenario strings may register one.
        if self.max_rounds is None:
            if self.scenario is not None:
                from repro.api.scenarios import scenario_default_budget

                budget = scenario_default_budget(self.scenario, self.graph)
            elif self.variant is not None:
                from repro.fastpath.variants import variant_default_budget

                budget = variant_default_budget(self.variant, self.graph)
            else:
                budget = default_round_budget(self.graph)
            object.__setattr__(self, "max_rounds", budget)
        elif self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.scenario is not None and self.backend is not None:
            raise ConfigurationError(
                f"scenario {self.scenario!r} runs on the reference engines; "
                f"backend must be None"
            )
        self._validate_backend()
        if self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {CACHE_MODES}, got {self.cache!r}"
            )
        if not isinstance(self.stream, int) or self.stream < 0:
            raise ConfigurationError("stream must be an int >= 0")
        if (
            self.stream
            and self.scenario is None
            and (self.variant is None or not self.variant.stochastic)
        ):
            # Deterministic runs consume no randomness: canonicalise the
            # stream away so such specs batch (and hash) together.
            # (Extension scenario strings keep theirs -- their runners
            # may fold it into a trial key.)
            object.__setattr__(self, "stream", 0)

    def _validate_backend(self) -> None:
        """Backend-name validation with the engine's exact error texts.

        Index-free on purpose (see ``__post_init__``): the engines'
        name-level validators are split out so construction never
        builds or probes a CSR index.
        """
        if self.backend is None:
            return
        if self.variant is not None:
            from repro.fastpath.variants import validate_variant_backend

            validate_variant_backend(self.backend, self.variant)
            return
        from repro.fastpath.engine import validate_backend_name

        validate_backend_name(self.backend)

    # ------------------------------------------------------------------
    # Constructors and derived views
    # ------------------------------------------------------------------

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        graph: Graph,
        sources: Iterable[Node],
        *,
        seed: int = 0,
        max_rounds: Optional[int] = None,
        stream: int = 0,
        collect_senders: bool = False,
        collect_receives: bool = False,
    ) -> "FloodSpec":
        """Build a spec from a registry scenario string.

        ``scenario`` is ``"name"`` or ``"name:arg[,arg...]"`` -- see
        :mod:`repro.api.scenarios` for the built-in names.  ``seed``
        feeds the stochastic scenarios (it becomes the variant seed, or
        folds into a set-based scenario's canonical string); the
        deterministic ones ignore it.
        """
        from repro.api.scenarios import seeded_scenario

        return cls(
            graph=graph,
            sources=tuple(sources),
            max_rounds=max_rounds,
            scenario=seeded_scenario(scenario, seed),
            stream=stream,
            collect_senders=collect_senders,
            collect_receives=collect_receives,
        )

    def replace(self, **changes: object) -> "FloodSpec":
        """A copy with ``changes`` applied, re-validated at construction."""
        return replace(self, **changes)

    def index(self) -> IndexedGraph:
        """The (cached) CSR index of this spec's graph."""
        return IndexedGraph.of(self.graph)

    def source_ids(self) -> list:
        """The sources as CSR node ids (first-seen order, deduplicated)."""
        return self.index().resolve_sources(self.sources)

    def run_key(self) -> int:
        """The RNG stream key this request's run draws from (0 when
        deterministic): ``derive_key(variant.seed, stream)``."""
        if self.variant is None:
            return 0
        return self.variant.run_key(self.stream)

    def batch_key(self, resolved_backend: str) -> BatchKey:
        """The :class:`BatchKey` of this spec under a resolved backend."""
        assert self.max_rounds is not None  # resolved in __post_init__
        return BatchKey(
            budget=self.max_rounds,
            backend=resolved_backend,
            collect_senders=self.collect_senders,
            collect_receives=self.collect_receives,
            variant=self.variant,
        )

    def digest(self) -> str:
        """A process-independent content digest of this spec.

        ``hash()`` on a spec is salted per interpreter (string hashing),
        which is fine for dict keys but useless for pinning identity
        across workers or sessions.  The digest is a SHA-256 over a
        canonical structural encoding -- the graph through its memoised
        :meth:`~repro.graphs.graph.Graph.content_digest`, node labels
        through their ``repr`` -- so two processes building the same
        spec agree on it (the cross-process regression test pins this).
        It is the content address of the result cache
        (:mod:`repro.cache`); the ``cache`` policy field is therefore
        deliberately absent from the payload.
        """
        payload = "|".join(
            (
                "floodspec",
                self.graph.content_digest(),
                repr(self.sources),
                repr(self.max_rounds),
                repr(self.backend),
                repr(self.probe),
                repr(self.variant),
                repr(self.scenario),
                repr(self.stream),
                repr(self.collect_senders),
                repr(self.collect_receives),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        parts = [
            f"graph={self.graph!r}",
            f"sources={self.sources!r}",
            f"max_rounds={self.max_rounds}",
        ]
        for name in ("backend", "variant", "scenario"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value!r}")
        if self.stream:
            parts.append(f"stream={self.stream}")
        if not self.probe:
            parts.append("probe=False")
        for flag in ("collect_senders", "collect_receives"):
            if getattr(self, flag):
                parts.append(f"{flag}=True")
        if self.cache != "use":
            parts.append(f"cache={self.cache!r}")
        return f"FloodSpec({', '.join(parts)})"
