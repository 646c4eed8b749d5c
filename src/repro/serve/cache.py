"""The serving tier's one cache: finished responses, keyed by request.

Two pieces:

* :class:`QueryCache` — a thread-safe LRU of finished responses, each
  a ``(status, body bytes)`` pair, with hit/miss/eviction counters and
  **generation-based invalidation**: every entry is stamped with the
  generation current when its render *started*;
  :meth:`QueryCache.invalidate` bumps the generation and clears the
  map, so a body rendered against the pre-publish cube that lands after
  the publish is silently dropped instead of resurrecting stale data.
  It holds at most ``maxsize`` entries and at most
  :data:`MAX_CACHE_BYTES` bytes of bodies, evicting least recently used
  entries until both bounds hold; a body larger than the byte bound is
  served but never stored.
* :class:`CachedCubeService` — a
  :class:`~repro.serve.service.CubeService` plus that cache.
  :meth:`CachedCubeService.response` answers one request: a hit returns
  the stored bytes, a miss renders them against the wrapped service and
  stores them.  ``info()`` surfaces :meth:`QueryCache.stats` (the
  counters, the size, the ``maxsize`` bound and the generation), and
  :meth:`CachedCubeService.refresh` swaps in a freshly published
  timeline date and evicts everything stale in one step.

The HTTP tier keys each request by its ``(PATH_INFO, QUERY_STRING)``
exactly as received, so two spellings of one query are two entries,
each with correct bytes.  The service's query methods (``top``,
``slice``, ``cell`` ...) read through to the wrapped service, uncached.
Below this cache, the wrapped
:class:`~repro.serve.service.CubeService` renders each cell's JSON once
per opened cube (:meth:`~repro.serve.service.CubeService.rendered`), so
a miss that lists cells joins fragments it already has; those per-row
slots are keyed by row, never invalidated, and die with the service
that :meth:`CachedCubeService.refresh` replaces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

DEFAULT_CACHE_SIZE = 256
#: Most bytes of response bodies one cache holds (32 MiB).
MAX_CACHE_BYTES = 32 * 1024 * 1024

_MISS = object()


class QueryCache:
    """Thread-safe LRU of ``(status, body)`` responses, with counters and
    generations.

    ``maxsize=0`` disables storage entirely (every lookup is a miss)
    while keeping the counters and the generation machinery, so a
    cache-off service still reports uniform ``info()`` stats.  The byte
    bound is :data:`MAX_CACHE_BYTES`, read when the cache is created.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self._maxsize = int(maxsize)
        self._max_bytes = MAX_CACHE_BYTES
        self._data: "OrderedDict[object, tuple[int, bytes]]" = OrderedDict()
        self._lock = threading.Lock()
        self._generation = 0
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: object
               ) -> "tuple[bool, tuple[int, bytes] | None, int]":
        """``(found, response, generation)`` — one locked probe.

        The returned generation is the one current at probe time; pass
        it back to :meth:`store` so a response rendered before an
        intervening :meth:`invalidate` cannot land afterwards.
        """
        with self._lock:
            generation = self._generation
            response = self._data.get(key, _MISS)
            if response is _MISS:
                self._misses += 1
                return False, None, generation
            self._data.move_to_end(key)
            self._hits += 1
            return True, response, generation

    def store(self, key: object, response: "tuple[int, bytes]",
              generation: int) -> bool:
        """Insert a rendered ``(status, body)``; dropped when stale,
        disabled, or when the body alone exceeds the byte bound."""
        size = len(response[1])
        if self._maxsize == 0 or size > self._max_bytes:
            return False
        with self._lock:
            if generation != self._generation:
                return False   # rendered against a pre-publish cube
            replaced = self._data.pop(key, None)
            if replaced is not None:
                self._bytes -= len(replaced[1])
            self._data[key] = response
            self._bytes += size
            while (len(self._data) > self._maxsize
                   or self._bytes > self._max_bytes):
                _, evicted = self._data.popitem(last=False)
                self._bytes -= len(evicted[1])
                self._evictions += 1
            return True

    def invalidate(self) -> int:
        """Clear everything and open a new generation; returns it."""
        with self._lock:
            self._data.clear()
            self._bytes = 0
            self._generation += 1
            return self._generation

    def stats(self) -> "dict[str, int]":
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._data),
                "bytes": self._bytes,
                "maxsize": self._maxsize,
                "generation": self._generation,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class CachedCubeService:
    """A cube service plus the cache of its finished responses."""

    def __init__(self, service, maxsize: int = DEFAULT_CACHE_SIZE):
        self._service = service
        self._cache = QueryCache(maxsize)
        self._refresh_lock = threading.Lock()

    @property
    def service(self):
        """The wrapped service (swapped atomically on refresh)."""
        return self._service

    @property
    def cache(self) -> QueryCache:
        return self._cache

    def response(self, key: object, render) -> "tuple[int, bytes]":
        """The ``(status, body)`` for ``key``: stored, or rendered now.

        On a miss, ``render(service)`` builds the response against the
        wrapped service, and it is stored under the generation the probe
        saw.  An exception from ``render`` propagates and nothing is
        stored.
        """
        found, response, generation = self._cache.lookup(key)
        if found:
            return response
        response = render(self._service)
        self._cache.store(key, response, generation)
        return response

    def info(self) -> "dict[str, object]":
        """Inner ``info()`` plus live cache counters (never cached)."""
        out = self._service.info()
        out["cache"] = self._cache.stats()
        return out

    def refresh(self) -> bool:
        """Pick up a newly published timeline date; evict stale entries.

        Asks the wrapped service for a :meth:`refreshed` successor;
        when one exists, swaps it in (a single attribute assignment —
        readers in flight keep their old reference) and *then* bumps
        the cache generation, so every pre-publish entry is evicted and
        a render that probed before the bump cannot store.  Returns True
        when a publish was picked up.
        """
        with self._refresh_lock:
            fresh = self._service.refreshed()
            if fresh is None:
                return False
            self._service = fresh
            self._cache.invalidate()
            return True

    def __getattr__(self, name: str):
        # Everything else (the query methods, describe, dictionary,
        # index_names, date, dates, cube, ...) reads through to the
        # wrapped service, uncached.
        return getattr(self._service, name)

    def __repr__(self) -> str:
        return f"CachedCubeService({self._service!r}, {self._cache.stats()})"
