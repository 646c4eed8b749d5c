"""The serving tier's one cache: finished responses, keyed by request.

Two pieces:

* :class:`QueryCache` — a thread-safe LRU of finished responses, each
  a ``(status, body bytes)`` pair, with hit/miss/eviction counters and
  **generation-based invalidation**: a lookup hits and a store lands
  only under the generation its caller names, which must be the current
  one; :meth:`QueryCache.invalidate` bumps the generation and clears
  the map, so a body rendered against the pre-publish cube that lands
  after the publish is silently dropped instead of resurrecting stale
  data.
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
  :meth:`CachedCubeService.refresh` evicts everything stale and then
  swaps in a freshly published timeline date paired with the new
  generation.  A request reads the served ``(service, generation)``
  pair once, and renders, stores and hits only under that generation,
  so every body it gets is its service's: a request that reads the new
  date never meets a body of the previous one.

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

    @property
    def generation(self) -> int:
        """The current generation (bumped by every :meth:`invalidate`)."""
        with self._lock:
            return self._generation

    def lookup(self, key: object, generation: int
               ) -> "tuple[bool, tuple[int, bytes] | None]":
        """``(found, response)`` — one locked probe.

        Only a caller holding the current ``generation`` can hit: every
        stored entry is of that generation, and a caller of an older one
        misses, renders against its older service and cannot store.
        """
        with self._lock:
            response = self._data.get(key, _MISS)
            if response is _MISS or generation != self._generation:
                self._misses += 1
                return False, None
            self._data.move_to_end(key)
            self._hits += 1
            return True, response

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
        self._cache = QueryCache(maxsize)
        #: The served service and the cache generation its bodies are
        #: stored under, swapped as one pair by :meth:`refresh`.
        self._served = (service, self._cache.generation)
        self._refresh_lock = threading.Lock()

    @property
    def service(self):
        """The wrapped service (swapped atomically on refresh)."""
        return self._served[0]

    @property
    def cache(self) -> QueryCache:
        return self._cache

    def response(self, key: object, render) -> "tuple[int, bytes]":
        """The ``(status, body)`` for ``key``: stored, or rendered now.

        The served ``(service, generation)`` pair is read once.  A hit
        is a body stored under that generation, so rendered against that
        service; on a miss, ``render(service)`` builds the response and
        it is stored under that generation, unless a refresh has made
        the generation stale since.  An exception from ``render``
        propagates and nothing is stored.
        """
        service, generation = self._served
        found, response = self._cache.lookup(key, generation)
        if found:
            return response
        response = render(service)
        self._cache.store(key, response, generation)
        return response

    def info(self) -> "dict[str, object]":
        """Inner ``info()`` plus live cache counters (never cached)."""
        out = self.service.info()
        out["cache"] = self._cache.stats()
        return out

    def refresh(self) -> bool:
        """Pick up a newly published timeline date; evict stale entries.

        Asks the wrapped service for a :meth:`refreshed` successor;
        when one exists, bumps the cache generation (every pre-publish
        entry is evicted, and a render of the old service cannot store
        or hit any more) and then serves the successor paired with the
        new generation, in one attribute assignment: readers in flight
        keep their old pair.  Returns True when a publish was picked up.
        """
        with self._refresh_lock:
            fresh = self.service.refreshed()
            if fresh is None:
                return False
            self._served = (fresh, self._cache.invalidate())
            return True

    def __getattr__(self, name: str):
        # Everything else (the query methods, describe, dictionary,
        # index_names, date, dates, cube, ...) reads through to the
        # wrapped service, uncached.
        return getattr(self.service, name)

    def __repr__(self) -> str:
        return f"CachedCubeService({self.service!r}, {self._cache.stats()})"
