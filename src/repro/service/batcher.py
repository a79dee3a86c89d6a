"""Micro-batching: coalesce concurrent single queries into pool batches.

The sweep pool is a batch engine -- its unit of dispatch is a chunk of
source-id lists -- while service callers arrive one ``await
query_spec()`` at a time.  The :class:`MicroBatcher` bridges the two shapes: requests
that share a batch key -- for the flood service, the graph entry plus
the request spec's :class:`~repro.api.spec.BatchKey`, i.e. everything
that changes how the pool must run them -- accumulate in a bucket, and
the bucket flushes as one batch when either

* the **batching window** elapses (``window`` seconds after the first
  request opened the bucket; ``window=0`` flushes on the next event-loop
  iteration, which still coalesces everything submitted in the current
  tick, e.g. one ``asyncio.gather`` of queries), or
* the bucket reaches **max_batch** requests, whichever comes first.

The batcher never reorders requests within a bucket (arrival order is
batch order) and never merges across keys, so each request's result is
exactly what a serial sweep of its own source set would produce --
batching changes scheduling, never content.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List


class MicroBatcher:
    """Key-bucketed request coalescing with a time/size flush policy.

    ``dispatch(key, requests)`` is invoked on the event loop exactly
    once per flush with a non-empty, arrival-ordered request list; the
    batcher does not know what a request *is* beyond appending it, so
    the service stays the single owner of request semantics.
    """

    def __init__(
        self,
        window: float,
        max_batch: int,
        dispatch: Callable[[Hashable, List[Any]], None],
    ) -> None:
        if window < 0:
            raise ValueError("window must be >= 0 seconds")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window = window
        self.max_batch = max_batch
        self._dispatch = dispatch
        self._buckets: Dict[Hashable, List[Any]] = {}
        self._timers: Dict[Hashable, asyncio.Handle] = {}

    def add(self, key: Hashable, request: Any) -> None:
        """Queue one request; may flush its bucket synchronously on size."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            loop = asyncio.get_running_loop()
            if self.window > 0:
                timer = loop.call_later(self.window, self._flush, key)
            else:
                timer = loop.call_soon(self._flush, key)
            self._timers[key] = timer
        bucket.append(request)
        if len(bucket) >= self.max_batch:
            self._flush(key)

    def _flush(self, key: Hashable) -> None:
        requests = self._buckets.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if requests:
            self._dispatch(key, requests)

    def flush_all(self) -> None:
        """Flush every open bucket now (used by service shutdown)."""
        for key in list(self._buckets):
            self._flush(key)

    @property
    def pending(self) -> int:
        """Requests currently waiting in open buckets."""
        return sum(len(bucket) for bucket in self._buckets.values())
