"""The sharded sweep pool: one graph, many floods, all cores.

A spec batch (:func:`repro.fastpath.sweep_specs`) is embarrassingly
parallel across source sets: every run reads the same frozen CSR index
and writes an independent result.  This module shards a batch across
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
* every batch ships through one ``map_async`` call
  (:meth:`SweepPool.submit_batch`), which delivers chunk results in
  task order regardless of which worker finishes first, so parallel
  output is **bit-identical** to the serial spec sweep -- same
  dataclasses, same field values, same ordering (the determinism tests
  assert this across worker counts and chunk sizes, budget cut-offs
  included).

:class:`SweepPool` keeps one pool of warm workers for many batches,
paying worker start-up once per pool instead of once per call.
:meth:`SweepPool.sweep_specs` is the blocking spec batch the
:class:`~repro.api.session.FloodSession` facade drives (it accepts
specs of any graph, so one session keeps one pool);
:meth:`SweepPool.submit_batch` is the future-returning form the
service drives.  ``FloodSession.sweep`` is the one-shot entry point:
it builds the pool lazily and keeps small batches serial.

Usage::

    from repro.api import FloodSession, FloodSpec
    from repro.graphs import erdos_renyi
    from repro.parallel import SweepPool

    graph = erdos_renyi(10_000, 8 / 10_000, seed=1, connected=True)
    specs = [FloodSpec(graph=graph, sources=(v,)) for v in graph.nodes()[:512]]

    with FloodSession(workers=4) as session:      # one-shot batches
        results = session.sweep(specs)

    with SweepPool(graph, workers=4) as pool:     # serving shape
        first = pool.sweep_specs(specs)
        again = pool.sweep_specs([s.replace(backend="oracle") for s in specs])
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
    batch_key_of,
    dispatch_batch,
    wrap_raw_run,
)
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun
from repro.fastpath.variants import VariantSpec
from repro.graphs.graph import Graph

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
    :meth:`sweep_specs` / :meth:`submit_batch`.  Construction forks/spawns
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
        return self.submit_batch(id_lists, key, chunksize, run_keys, index).result()

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

    def submit_batch(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int] = None,
        run_keys: Optional[Sequence[int]] = None,
        index: Optional[IndexedGraph] = None,
    ) -> "Future[List[IndexedRun]]":
        """Submit already-resolved id lists under one :class:`BatchKey`.

        The pool's one dispatch path: :meth:`sweep_specs` blocks on it
        and the service layer bridges it into its event loop.  The
        service resolves and validates sources itself so it can batch
        requests in id space, and its micro-batch buckets are keyed by
        exactly the ``key`` object submitted here.  For variant work the
        caller supplies one RNG stream key per id list (the service
        derives them per *request*, so coalescing cannot move a query
        onto a different stream); ``run_keys`` is sliced with the same
        offsets as ``id_lists``, so a run carries its key into whichever
        chunk and worker it lands on, and variant work with no explicit
        keys gets the default position-keyed derivation.  ``index`` is
        the graph the ids belong to (default: the pool's own); chunks on
        another graph ship its pickled index (:meth:`_shipped`) and
        results wrap against it.  The returned future resolves, on the
        pool's result-handler thread, to the runs in input order; a
        worker failure resolves it exceptionally instead.
        """
        if index is None:
            index = self.index
        future: "Future[List[IndexedRun]]" = Future()
        future.set_running_or_notify_cancel()
        if not id_lists:
            future.set_result([])
            return future
        if chunksize is None:
            chunksize = default_chunksize(len(id_lists), self.workers)
        elif chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")
        if run_keys is None:
            run_keys = _variant_run_keys(key.variant, len(id_lists))
        elif len(run_keys) != len(id_lists):
            raise ConfigurationError("run_keys must align one-to-one with id_lists")
        shipped = self._shipped(index)
        tasks: List[_Task] = [
            (
                start,
                list(id_lists[start : start + chunksize]),
                key,
                None if run_keys is None else list(run_keys[start : start + chunksize]),
                shipped,
            )
            for start in range(0, len(id_lists), chunksize)
        ]

        def on_done(ordered: List[_TaskResult]) -> None:
            # map_async delivers every chunk in task order, so
            # concatenation recovers input order without a sort.
            try:
                raw_runs = [raw for _, chunk in ordered for raw in chunk]
                future.set_result(_wrap_runs(index, id_lists, raw_runs, key))
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
        """Compatibility name for :meth:`submit_batch` with kwargs.

        The name and signature remain because the repository benchmark
        (``perfbench/layers.py``) calls them.
        """
        return self.submit_batch(
            id_lists,
            BatchKey(budget, backend, collect_senders, collect_receives, variant),
            chunksize,
            run_keys,
        )

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
    (run ``i`` on stream ``derive_key(variant.seed, i)``), matching a
    spec batch whose run ``i`` sits at ``stream=i``.
    """
    if run_keys is None:
        run_keys = _variant_run_keys(key.variant, len(id_lists))
    raw_runs = dispatch_batch(index, id_lists, key, run_keys)
    return _wrap_runs(index, id_lists, raw_runs, key)
