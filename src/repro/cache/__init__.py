"""Content-addressed result caching for flood requests.

The serving tiers answer many identical requests -- same graph, same
sources, same scenario -- and :meth:`repro.api.spec.FloodSpec.digest`
already names each request process-stably, so identical queries should
never recompute.  This package is that tier:

* :mod:`repro.cache.keys` -- the cache-key discipline
  (``digest:resolved_backend``) and the version-stamped codec that
  turns an :class:`~repro.fastpath.engine.IndexedRun` into a compact
  blob and back (corruption decodes to a miss, never a wrong result).
* :mod:`repro.cache.policy` -- :func:`partition_specs`, the one cache
  policy every serving tier applies (hits, corrupt entries, in-flight
  joins, in-batch duplicates).
* :mod:`repro.cache.lru` -- :class:`ResultCache`, the entry- and
  byte-bounded in-process LRU with hit/miss/eviction/coalesce counters
  (:class:`CacheStats`), shareable between a session and its service.
* :mod:`repro.cache.store` -- the :class:`CacheStore` protocol for
  persistent tiers and :class:`DirectoryStore`, the shipped
  directory-of-blobs implementation with atomic rename writes.

Cacheability rule: deterministic specs cache unconditionally (the
process is a pure function of the spec); stochastic specs cache per
``(seed, stream)`` -- which the digest already encodes -- and never
across streams.  The ``cache="bypass" | "refresh"`` policy field on
:class:`~repro.api.spec.FloodSpec` opts individual requests out.

The cache is opt-in: pass ``cache=ResultCache(...)`` to
:class:`~repro.api.session.FloodSession` or
:class:`~repro.service.service.FloodService`; without it, behaviour
(including micro-batch coalescing statistics) is unchanged.
"""

from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    CACHE_MAGIC,
    decode_run,
    encode_run,
    result_cache_key,
)
from repro.cache.lru import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    ResultCache,
)
from repro.cache.policy import CachePlan, partition_specs
from repro.cache.store import CacheStore, DirectoryStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_MAGIC",
    "CachePlan",
    "CacheStats",
    "CacheStore",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "DirectoryStore",
    "ResultCache",
    "decode_run",
    "encode_run",
    "partition_specs",
    "result_cache_key",
]
