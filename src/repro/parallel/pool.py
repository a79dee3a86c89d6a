"""The sharded sweep pool: one graph, many floods, all cores.

A sweep (:func:`repro.fastpath.sweep`) is embarrassingly parallel
across source sets: every run reads the same frozen CSR index and
writes an independent result.  This module shards a batch across
``multiprocessing`` workers with exactly one expensive transfer:

* the parent pickles the pool's own
  :class:`~repro.fastpath.indexed.IndexedGraph` **once** into a bytes
  payload (the index's pickle support drops its process-local memo
  caches), and every worker unpickles it **once** in its pool
  initializer -- never per run, never per chunk;
* tasks are ``(position, [source-id lists], BatchKey, [stream keys],
  shipped index)`` chunks -- a few dozen bytes each on the pool's own
  graph, carrying the *same*
  :class:`~repro.api.spec.BatchKey` the batch was resolved to (the
  execution projection of the requests' :class:`~repro.api.spec.FloodSpec`)
  -- and results stream back as raw statistic tuples
  (:data:`~repro.fastpath.pure_backend.RawRun`), which the parent wraps
  into :class:`~repro.fastpath.engine.IndexedRun` against its own copy
  of the index;
* one pool serves any number of graphs: a chunk for a graph other than
  the pool's own ships that graph's pickled index (pickled once per
  graph in the parent) next to its content digest, and each worker
  keeps the last :data:`WORKER_INDEX_CACHE` such indexes unpickled in
  an LRU keyed by :meth:`~repro.graphs.graph.Graph.content_digest`, so
  a warm worker unpickles a foreign index once, not once per chunk;
* ordered ``imap`` keeps results streaming back in deterministic input
  order regardless of which worker finishes first, so parallel output
  is **bit-identical** to the serial sweep -- same dataclasses, same
  field values, same ordering (the determinism tests assert this across
  worker counts and chunk sizes, budget cut-offs included).

Entry points
------------

:func:`parallel_sweep`
    One-shot drop-in for :func:`repro.fastpath.sweep`.  Auto-sizes the
    pool to the usable cores, falls back to the serial loop for small
    batches or single-core machines (identical results either way), and
    accepts the same ``backend=`` names, including ``"oracle"``.

:class:`SweepPool`
    The reusable form for serving workloads: keep one pool of warm
    workers and push many batches through it, paying worker start-up
    once per pool instead of once per call.  :meth:`SweepPool.sweep_specs`
    is the spec-native batch form the
    :class:`~repro.api.session.FloodSession` facade drives; it accepts
    specs of any graph, so one session keeps one pool.

Usage::

    from repro.graphs import erdos_renyi
    from repro.parallel import SweepPool, parallel_sweep

    graph = erdos_renyi(10_000, 8 / 10_000, seed=1, connected=True)
    sets = [[v] for v in graph.nodes()[:512]]

    runs = parallel_sweep(graph, sets)            # auto workers/chunks
    runs = parallel_sweep(graph, sets, workers=4) # pin the pool size

    with SweepPool(graph, workers=4) as pool:     # serving shape
        first = pool.sweep(sets)
        again = pool.sweep(sets, backend="oracle")
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from collections import OrderedDict
from concurrent.futures import Future
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api.spec import BatchKey, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath.engine import (
    IndexedRun,
    _resolve_budget,
    batch_key_of,
    dispatch_batch,
    select_backend,
    wrap_raw_run,
)
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun
from repro.fastpath.variants import VariantSpec
from repro.graphs.graph import Graph, Node

MIN_PARALLEL_BATCH = 32
"""Below this many source sets, auto mode keeps the sweep serial.

Pool start-up plus one index transfer per worker costs a few
milliseconds; a batch has to amortise that to win.  An explicit
``workers=`` request overrides the floor (the caller asked for a pool,
they get one).
"""

MAX_CHUNK = 64
"""Upper bound on the chunk heuristic, to keep results streaming."""

WORKER_INDEX_CACHE = 8
"""Foreign-graph indexes kept ready: unpickled in each worker, pickled
in the parent.

A worker unpickles a shipped index on first use and keeps the last
this-many by content digest; a graph evicted from the LRU is simply
unpickled again from the next chunk that ships it."""

_Shipped = Optional[Tuple[str, bytes]]
"""``None`` for the pool's own graph, else ``(content digest, pickled index)``."""
_Task = Tuple[int, List[List[int]], BatchKey, Optional[List[int]], _Shipped]
_TaskResult = Tuple[int, List[RawRun]]

# Per-worker state.  Plain module globals: each worker process gets its
# own copy, the pool initializer sets the own index before any task
# runs, and a worker runs one task at a time, so tasks never race on it.
_WORKER_INDEX: Optional[IndexedGraph] = None
# repro-lint: disable=REP007 -- pure memo LRU: a shipped index is a pure function of its graph's content digest, so per-worker warmth never changes results
_WORKER_INDEXES: "OrderedDict[str, IndexedGraph]" = OrderedDict()


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit, else the usable cores.

    ``None`` means "what this machine can actually run in parallel":
    the scheduling affinity when the platform exposes it (containers
    often restrict it below ``cpu_count``), else ``os.cpu_count()``.
    """
    if workers is not None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        return workers
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_chunksize(batch_size: int, workers: int) -> int:
    """The chunk heuristic: ~4 chunks per worker, capped at ``MAX_CHUNK``.

    Large enough that per-chunk dispatch overhead (one pickle of a few
    id lists, one queue round trip) is amortised over many runs; small
    enough that every worker gets several chunks (tail latency -- one
    slow chunk cannot serialise the whole batch) and results stream
    back early.
    """
    if batch_size <= 0:
        return 1
    target = -(-batch_size // (workers * 4))  # ceil division
    return max(1, min(MAX_CHUNK, target))


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the pool's own CSR index, once per worker."""
    global _WORKER_INDEX
    _WORKER_INDEX = pickle.loads(payload)


def _worker_index(shipped: _Shipped) -> IndexedGraph:
    """The index a chunk runs on: the pool's own, or a shipped one (LRU)."""
    if shipped is None:
        assert _WORKER_INDEX is not None, "worker initializer did not run"
        return _WORKER_INDEX
    digest, payload = shipped
    index = _WORKER_INDEXES.get(digest)
    if index is None:
        index = pickle.loads(payload)
        _WORKER_INDEXES[digest] = index
        if len(_WORKER_INDEXES) > WORKER_INDEX_CACHE:
            _WORKER_INDEXES.popitem(last=False)
    else:
        _WORKER_INDEXES.move_to_end(digest)
    return index


def _run_chunk(task: _Task) -> _TaskResult:
    """Worker body: run one chunk of source-id lists on the local index.

    The chunk carries the batch's :class:`BatchKey` verbatim -- the
    worker executes exactly the object the parent batched on, through
    the same :func:`~repro.fastpath.engine.dispatch_batch` funnel the
    serial path uses (so eligible oracle chunks take the word-packed
    bitset sweep inside the worker too; ``MAX_CHUNK`` = 64 keeps those
    chunks word-aligned).
    """
    position, id_lists, key, run_keys, shipped = task
    return position, dispatch_batch(
        _worker_index(shipped), id_lists, key, run_keys
    )


def _wrap_runs(
    index: IndexedGraph,
    id_lists: Sequence[List[int]],
    raw_runs: Iterable[RawRun],
    key: BatchKey,
) -> List[IndexedRun]:
    """Rehydrate raw statistic tuples into IndexedRuns on the parent index.

    Delegates to the engine's shared wrapper so sharded results are
    constructed by exactly the same code as serial ones.
    """
    return [
        wrap_raw_run(index, ids, key.backend, raw, key.variant)
        for ids, raw in zip(id_lists, raw_runs)
    ]


def _variant_run_keys(
    variant: Optional[VariantSpec], count: int
) -> Optional[List[int]]:
    """Per-run RNG stream keys for a batch: key ``i`` belongs to run ``i``.

    Keys are derived from the batch *position*, before any sharding, so
    chunking and worker scheduling cannot move a run onto a different
    stream -- the root of the cross-worker determinism guarantee for
    stochastic variants.  ``None`` for deterministic work.
    """
    if variant is None:
        return None
    return [variant.run_key(position) for position in range(count)]


class SweepPool:
    """A persistent pool of workers warmed with one graph's CSR index.

    The serving-scale shape: build once, push many batches through
    :meth:`sweep` / :meth:`sweep_specs`.  Construction forks/spawns
    ``workers`` processes and ships each the pickled index of ``graph``
    (the pool's own) exactly once; after that, every batch on that
    graph costs only its per-chunk dispatch.  :meth:`sweep_specs` also
    runs specs of other graphs: their chunks carry the pickled index,
    which each worker unpickles once into its digest-keyed LRU.

    Use as a context manager (or call :meth:`close`) to reap the
    workers deterministically.
    """

    def __init__(
        self,
        graph: Graph,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.index = IndexedGraph.of(graph)
        self._payloads: "OrderedDict[Graph, Tuple[str, bytes]]" = OrderedDict()
        self.workers = worker_count(workers)
        if start_method is None and sys.platform == "linux":
            # fork is the cheapest way to stand workers up, but it is
            # only reliably safe on Linux (macOS frameworks and helper
            # threads do not survive fork; spawn is that platform's
            # default for a reason) -- everywhere else, keep the
            # platform default.
            start_method = "fork"
        context = multiprocessing.get_context(start_method)
        payload = pickle.dumps(self.index, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = context.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    # ------------------------------------------------------------------

    def sweep(
        self,
        source_sets: Iterable[Iterable[Node]],
        max_rounds: Optional[int] = None,
        backend: Optional[str] = None,
        chunksize: Optional[int] = None,
        collect_senders: bool = False,
        collect_receives: bool = False,
        variant: Optional[VariantSpec] = None,
    ) -> List[IndexedRun]:
        """Run one batch across the pool; results in input order.

        Same signature and semantics as :func:`repro.fastpath.sweep`
        (validation, budget resolution and backend selection all happen
        in the parent, so errors surface before any work is
        dispatched), including the ``variant`` stepper lane with its
        per-position seed streams.  A legacy shim over the spec pipeline: the kwargs
        resolve to one :class:`BatchKey` exactly like a
        :meth:`sweep_specs` batch.
        """
        id_lists = [
            self.index.resolve_sources(sources) for sources in source_sets
        ]
        budget = _resolve_budget(self.graph, max_rounds)
        chosen = select_backend(self.index, backend, variant)
        key = BatchKey(budget, chosen, collect_senders, collect_receives, variant)
        return self._sweep_ids(
            id_lists, key, chunksize, _variant_run_keys(variant, len(id_lists))
        )

    def sweep_specs(
        self,
        specs: Sequence[FloodSpec],
        chunksize: Optional[int] = None,
    ) -> List[IndexedRun]:
        """Run one homogeneous spec batch across the pool, in input order.

        The pool twin of :func:`repro.fastpath.engine.sweep_specs`: the
        specs must agree on graph, budget, backend, variant and
        collection flags (they may differ in sources and RNG
        ``stream``), resolve to one :class:`BatchKey`, and every run
        carries its own spec's stream key into whatever chunk it lands
        on -- bit-identical to the serial spec sweep for every worker
        count and chunk size.  The specs' graph need not be the pool's
        own: its chunks then ship that graph's pickled index.
        """
        specs = list(specs)
        if not specs:
            return []
        graph = specs[0].graph
        index = (
            self.index
            if graph is self.graph or graph == self.graph
            else specs[0].index()
        )
        key = batch_key_of(specs, index)
        id_lists = [index.resolve_sources(spec.sources) for spec in specs]
        run_keys = (
            [spec.run_key() for spec in specs]
            if key.variant is not None
            else None
        )
        return self._sweep_ids(id_lists, key, chunksize, run_keys, index)

    def _shipped(self, index: IndexedGraph) -> _Shipped:
        """What a chunk on ``index`` carries: nothing for the own graph,
        else the (digest, pickled index) pair, pickled once per graph."""
        if index is self.index:
            return None
        graph = index.graph
        shipped = self._payloads.get(graph)
        if shipped is None:
            shipped = (
                graph.content_digest(),
                pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL),
            )
            self._payloads[graph] = shipped
            if len(self._payloads) > WORKER_INDEX_CACHE:
                self._payloads.popitem(last=False)
        else:
            self._payloads.move_to_end(graph)
        return shipped

    def sweep_async(
        self,
        source_sets: Iterable[Iterable[Node]],
        max_rounds: Optional[int] = None,
        backend: Optional[str] = None,
        chunksize: Optional[int] = None,
        collect_senders: bool = False,
        collect_receives: bool = False,
        variant: Optional[VariantSpec] = None,
    ) -> "Future[List[IndexedRun]]":
        """Submit one batch without blocking; returns a future of the runs.

        The non-blocking twin of :meth:`sweep` and the hook the async
        service layer (:mod:`repro.service`) drives: validation, budget
        resolution and backend selection still happen synchronously in
        the caller (errors raise *here*, before anything is enqueued),
        then the chunks are handed to the pool and a
        :class:`concurrent.futures.Future` completes -- on the pool's
        result-handler thread -- with exactly the list :meth:`sweep`
        would have returned.  Bridge it into an event loop with
        :func:`asyncio.wrap_future`.
        """
        id_lists = [
            self.index.resolve_sources(sources) for sources in source_sets
        ]
        budget = _resolve_budget(self.graph, max_rounds)
        chosen = select_backend(self.index, backend, variant)
        key = BatchKey(budget, chosen, collect_senders, collect_receives, variant)
        return self.submit_batch(
            id_lists, key, chunksize, _variant_run_keys(variant, len(id_lists))
        )

    def submit_batch(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int] = None,
        run_keys: Optional[Sequence[int]] = None,
    ) -> "Future[List[IndexedRun]]":
        """Submit already-resolved id lists under one :class:`BatchKey`.

        The async post-validation core, used by the service layer: it
        resolves and validates sources itself so it can batch requests
        in id space, and its micro-batch buckets are keyed by exactly
        the ``key`` object submitted here.  For variant work the caller
        supplies one RNG stream key per id list (the service derives
        them per *request*, so coalescing cannot move a query onto a
        different stream).  The returned future resolves to the same
        (ordered, parent-index-wrapped) runs the blocking path
        produces; a worker failure resolves it exceptionally instead.
        """
        future: "Future[List[IndexedRun]]" = Future()
        future.set_running_or_notify_cancel()
        if not id_lists:
            future.set_result([])
            return future
        tasks = self._make_tasks(id_lists, key, chunksize, run_keys)

        def on_done(ordered: List[_TaskResult]) -> None:
            # map_async delivers every chunk in task order, so flatten
            # and rehydrate exactly like the blocking path.
            try:
                raw_runs = [raw for _, chunk in ordered for raw in chunk]
                future.set_result(
                    _wrap_runs(self.index, id_lists, raw_runs, key)
                )
            except BaseException as exc:  # pragma: no cover - defensive
                future.set_exception(exc)

        self._pool.map_async(
            _run_chunk, tasks, chunksize=1,
            callback=on_done, error_callback=future.set_exception,
        )
        return future

    def submit_ids(
        self,
        id_lists: Sequence[List[int]],
        budget: int,
        backend: str,
        chunksize: Optional[int] = None,
        collect_senders: bool = False,
        collect_receives: bool = False,
        variant: Optional[VariantSpec] = None,
        run_keys: Optional[Sequence[int]] = None,
    ) -> "Future[List[IndexedRun]]":
        """Legacy-signature shim over :meth:`submit_batch`."""
        return self.submit_batch(
            id_lists,
            BatchKey(budget, backend, collect_senders, collect_receives, variant),
            chunksize,
            run_keys,
        )

    def _make_tasks(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int],
        run_keys: Optional[Sequence[int]] = None,
        shipped: _Shipped = None,
    ) -> List[_Task]:
        """Shard id lists into positioned chunk tasks (shared by both paths).

        Every chunk carries ``shipped`` (see :meth:`_shipped`).
        ``run_keys`` is sliced with the same offsets as ``id_lists``: a
        run carries its stream key with it into whichever chunk and
        worker it lands on.  Variant work with no explicit keys gets
        the default position-keyed derivation, so a caller reaching
        this layer directly can never silently run every trial on one
        stream.
        """
        if chunksize is None:
            chunksize = default_chunksize(len(id_lists), self.workers)
        elif chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")
        if run_keys is None:
            run_keys = _variant_run_keys(key.variant, len(id_lists))
        if run_keys is not None and len(run_keys) != len(id_lists):
            raise ConfigurationError(
                "run_keys must align one-to-one with id_lists"
            )
        return [
            (
                start,
                list(id_lists[start : start + chunksize]),
                key,
                (
                    list(run_keys[start : start + chunksize])
                    if run_keys is not None
                    else None
                ),
                shipped,
            )
            for start in range(0, len(id_lists), chunksize)
        ]

    def _sweep_ids(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int],
        run_keys: Optional[Sequence[int]] = None,
        index: Optional[IndexedGraph] = None,
    ) -> List[IndexedRun]:
        """Dispatch already-resolved id lists (the post-validation core).

        ``index`` is the graph the ids belong to (default: the pool's
        own); results wrap against it.
        """
        if not id_lists:
            return []
        if index is None:
            index = self.index
        tasks = self._make_tasks(
            id_lists, key, chunksize, run_keys, self._shipped(index)
        )
        raw_runs: List[RawRun] = []
        # Ordered imap: chunks stream back in submission order even
        # when a later chunk finishes first, so concatenation recovers
        # input order without a sort.
        for position, chunk_results in self._pool.imap(_run_chunk, tasks):
            assert position == len(raw_runs), "chunk streamed out of order"
            raw_runs.extend(chunk_results)
        return _wrap_runs(index, id_lists, raw_runs, key)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down and wait for them to exit."""
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        """Kill the workers without draining queued work."""
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __repr__(self) -> str:
        return f"SweepPool(workers={self.workers}, index={self.index!r})"


def serial_batch_ids(
    index: IndexedGraph,
    id_lists: Sequence[List[int]],
    key: BatchKey,
    run_keys: Optional[Sequence[int]] = None,
) -> List[IndexedRun]:
    """The in-process fallback: same loop the pool runs, no processes.

    Public because the service layer's serial mode (``workers=0`` on a
    single-core box) executes batches through exactly this function --
    one code path, one determinism contract, pool or no pool, and one
    :class:`BatchKey` object from admission to execution.  Variant work
    with ``run_keys=None`` defaults to the position-keyed derivation
    (run ``i`` on stream ``derive_key(variant.seed, i)``), matching
    :func:`repro.fastpath.sweep`.
    """
    if run_keys is None:
        run_keys = _variant_run_keys(key.variant, len(id_lists))
    raw_runs = dispatch_batch(index, id_lists, key, run_keys)
    return _wrap_runs(index, id_lists, raw_runs, key)


def serial_sweep_ids(
    index: IndexedGraph,
    id_lists: Sequence[List[int]],
    budget: int,
    backend: str,
    collect_senders: bool = False,
    collect_receives: bool = False,
    variant: Optional[VariantSpec] = None,
    run_keys: Optional[Sequence[int]] = None,
) -> List[IndexedRun]:
    """Legacy-signature shim over :func:`serial_batch_ids`."""
    return serial_batch_ids(
        index,
        id_lists,
        BatchKey(budget, backend, collect_senders, collect_receives, variant),
        run_keys,
    )


def parallel_sweep(
    graph: Graph,
    source_sets: Iterable[Iterable[Node]],
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    collect_senders: bool = False,
    collect_receives: bool = False,
    variant: Optional[VariantSpec] = None,
) -> List[IndexedRun]:
    """Sharded drop-in for :func:`repro.fastpath.sweep`.

    Partitions ``source_sets`` into chunks, runs them across a worker
    pool, and returns :class:`IndexedRun` results in input order,
    bit-identical to the serial sweep.

    Parameters beyond the serial signature:

    workers:
        ``None`` (default) auto-sizes to the usable cores and *also*
        enables the serial fallback: batches smaller than
        :data:`MIN_PARALLEL_BATCH` (or machines with one usable core)
        run in-process, because a pool cannot pay for itself there.  An
        explicit count -- including ``workers=1`` -- always builds a
        real pool of exactly that size; the determinism tests rely on
        this to exercise actual cross-process runs (pickling included)
        on small batches.
    chunksize:
        Source sets per task; ``None`` applies
        :func:`default_chunksize`.  Only affects scheduling, never
        results.

    >>> from repro.graphs import cycle_graph
    >>> runs = parallel_sweep(cycle_graph(9), [[0], [3], [0, 4]])
    >>> [run.termination_round for run in runs]
    [9, 9, 7]
    """
    index = IndexedGraph.of(graph)
    id_lists = [index.resolve_sources(sources) for sources in source_sets]
    budget = _resolve_budget(graph, max_rounds)
    chosen = select_backend(index, backend, variant)
    if chunksize is not None and chunksize < 1:
        raise ConfigurationError("chunksize must be >= 1")
    key = BatchKey(budget, chosen, collect_senders, collect_receives, variant)
    run_keys = _variant_run_keys(variant, len(id_lists))
    resolved_workers = worker_count(workers)
    serial = workers is None and (
        resolved_workers <= 1 or len(id_lists) < MIN_PARALLEL_BATCH
    )
    if serial:
        return serial_batch_ids(index, id_lists, key, run_keys)
    with SweepPool(graph, workers=resolved_workers) as pool:
        return pool._sweep_ids(id_lists, key, chunksize, run_keys)
