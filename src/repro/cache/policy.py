"""The cache policy: one function partitions a spec batch against the cache.

``FloodSession.run``/``sweep`` and both ``FloodService`` query paths
meet a :class:`~repro.cache.lru.ResultCache` only through
:func:`partition_specs`, so hit, corrupt-entry, in-flight join and
in-batch dedupe behaviour has one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.spec import FloodSpec
from repro.cache.keys import decode_run, result_cache_key
from repro.cache.lru import ResultCache
from repro.fastpath.engine import IndexedRun
from repro.fastpath.indexed import IndexedGraph

if TYPE_CHECKING:
    import asyncio


@dataclass
class CachePlan:
    """How one homogeneous spec batch meets the cache, by batch position.

    ``misses`` lists the positions to execute, in order, each with its
    cache key (``None`` for bypass positions, which are never stored);
    ``duplicates`` maps a position to the key of the earlier miss whose
    result it decodes; ``joins`` pairs a position with the in-flight
    future it awaits.
    """

    hits: Dict[int, IndexedRun] = field(default_factory=dict)
    misses: List[Tuple[int, Optional[str]]] = field(default_factory=list)
    duplicates: Dict[int, str] = field(default_factory=dict)
    joins: List[Tuple[int, "asyncio.Future[bytes]"]] = field(default_factory=list)


def partition_specs(
    cache: Optional[ResultCache],
    specs: Sequence[FloodSpec],
    backend: str,
    index: IndexedGraph,
    inflight: Optional[Mapping[str, "asyncio.Future[bytes]"]] = None,
) -> CachePlan:
    """Partition ``specs`` (one resolved ``backend``) against ``cache``.

    ``cache="use"`` positions whose blob decodes are hits (a blob that
    fails to decode is dropped via ``note_corrupt`` and falls through);
    ``cache="use"`` positions whose key is running in ``inflight`` join
    it; a later position with an earlier miss's key is a duplicate.
    Everything else executes: ``cache="bypass"`` positions unkeyed,
    the rest (``"refresh"`` always) as keyed leaders whose fresh result
    the caller stores.  Joins and duplicates are booked on the cache's
    coalesced counter here.  Without a cache every position is an
    unkeyed miss.
    """
    plan = CachePlan()
    if cache is None:
        plan.misses = [(position, None) for position in range(len(specs))]
        return plan
    leaders = set()
    for position, spec in enumerate(specs):
        if spec.cache == "bypass":
            plan.misses.append((position, None))
            continue
        key = result_cache_key(spec, backend)
        if spec.cache == "use":
            blob = cache.get(key)
            if blob is not None:
                run = decode_run(blob, spec, index)
                if run is not None:
                    plan.hits[position] = run
                    continue
                cache.note_corrupt(key)
            joinable = inflight.get(key) if inflight is not None else None
            if joinable is not None and not joinable.done():
                plan.joins.append((position, joinable))
                cache.note_coalesced()
                continue
        if key in leaders:
            plan.duplicates[position] = key
            cache.note_coalesced()
            continue
        leaders.add(key)
        plan.misses.append((position, key))
    return plan
