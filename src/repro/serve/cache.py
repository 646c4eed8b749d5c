"""Hot-query LRU cache for the serving tier.

Two pieces:

* :class:`QueryCache` — a thread-safe LRU mapping canonicalized query
  keys to results, with hit/miss counters and **generation-based
  invalidation**: every entry is stamped with the generation current
  when its computation *started*; :meth:`QueryCache.invalidate` bumps
  the generation and clears the map, so a result computed against the
  pre-publish cube that lands after the publish is silently dropped
  instead of resurrecting stale data.
* :class:`CachedCubeService` — the memoizing wrapper around a
  :class:`~repro.serve.service.CubeService`: every hot query method
  (``top``/``slice``/``cell``/``value``/``children``/``parents``/
  ``pivot``/``pivot_values``/``trend``) is keyed on its
  canonicalized parameters, ``info()`` surfaces the counters, and
  :meth:`CachedCubeService.refresh` swaps in a freshly published
  timeline date and evicts everything stale in one step.

Cached values are the service's own immutable-by-convention results
(lists of :class:`~repro.cube.cell.CellStats` / ``Discovery`` records,
floats, strings); callers must not mutate them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping

DEFAULT_CACHE_SIZE = 256

_MISS = object()


def canonical_key(method: str, params: "dict[str, object]") -> tuple:
    """A hashable, order- and type-stable key for one query.

    Coordinate mappings canonicalise to sorted ``(attribute, value)``
    tuples; every scalar carries its type name alongside its ``repr``
    so ``2``, ``2.0``, ``"2"`` and ``True`` can never collide.
    """
    out = []
    for name in sorted(params):
        value = params[name]
        if isinstance(value, Mapping):
            value = (
                "mapping",
                tuple(sorted(
                    (str(attr), _canonical_value(v))
                    for attr, v in value.items()
                )),
            )
        else:
            value = _canonical_value(value)
        out.append((name, value))
    return (method, tuple(out))


def _canonical_value(value: object) -> tuple:
    if isinstance(value, (list, tuple, set, frozenset)):
        return ("seq", tuple(sorted(
            (type(v).__name__, repr(v)) for v in value
        )))
    return (type(value).__name__, repr(value))


class QueryCache:
    """Thread-safe LRU with hit/miss counters and generations.

    ``maxsize=0`` disables storage entirely (every lookup is a miss)
    while keeping the counters and the generation machinery, so a
    cache-off service still reports uniform ``info()`` stats.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self._maxsize = int(maxsize)
        self._data: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._generation = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def generation(self) -> int:
        return self._generation

    def lookup(self, key: object) -> "tuple[bool, object, int]":
        """``(found, value, generation)`` — one locked probe.

        The returned generation is the one current at probe time; pass
        it back to :meth:`store` so a result computed before an
        intervening :meth:`invalidate` cannot land afterwards.
        """
        with self._lock:
            generation = self._generation
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return False, None, generation
            self._data.move_to_end(key)
            self._hits += 1
            return True, value, generation

    def store(self, key: object, value: object, generation: int) -> bool:
        """Insert a computed result; dropped when stale or disabled."""
        if self._maxsize == 0:
            return False
        with self._lock:
            if generation != self._generation:
                return False   # computed against a pre-publish cube
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
            return True

    def invalidate(self) -> int:
        """Clear everything and open a new generation; returns it."""
        with self._lock:
            self._data.clear()
            self._generation += 1
            return self._generation

    def stats(self) -> "dict[str, int]":
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._data),
                "maxsize": self._maxsize,
                "generation": self._generation,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class CachedCubeService:
    """Memoizing facade over a cube service."""

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

    def _cached(self, method: str, params: "dict[str, object]", compute):
        key = canonical_key(method, params)
        found, value, generation = self._cache.lookup(key)
        if found:
            return value
        value = compute()
        self._cache.store(key, value, generation)
        return value

    # -- cached query methods (the CubeService vocabulary) -------------

    def top(self, index_name: str = "D", k: int = 10, min_minority: int = 0,
            min_population: int = 0, min_units: int = 2):
        params = dict(index_name=index_name, k=k, min_minority=min_minority,
                      min_population=min_population, min_units=min_units)
        return self._cached(
            "top", params, lambda: self._service.top(**params)
        )

    def slice(self, sa=None, ca=None):
        params = dict(sa=sa, ca=ca)
        return self._cached(
            "slice", params, lambda: self._service.slice(**params)
        )

    def cell(self, sa=None, ca=None):
        params = dict(sa=sa, ca=ca)
        return self._cached(
            "cell", params, lambda: self._service.cell(**params)
        )

    def value(self, index_name: str, sa=None, ca=None):
        params = dict(index_name=index_name, sa=sa, ca=ca)
        return self._cached(
            "value", params, lambda: self._service.value(**params)
        )

    def children(self, sa=None, ca=None):
        params = dict(sa=sa, ca=ca)
        return self._cached(
            "children", params, lambda: self._service.children(**params)
        )

    def parents(self, sa=None, ca=None):
        params = dict(sa=sa, ca=ca)
        return self._cached(
            "parents", params, lambda: self._service.parents(**params)
        )

    def pivot(self, index_name: str, row_attr: str, col_attr: str,
              fixed_sa=None, fixed_ca=None, digits: int = 2):
        params = dict(index_name=index_name, row_attr=row_attr,
                      col_attr=col_attr, fixed_sa=fixed_sa,
                      fixed_ca=fixed_ca, digits=digits)
        return self._cached(
            "pivot", params, lambda: self._service.pivot(**params)
        )

    def pivot_values(self, index_name: str, row_attr: str, col_attr: str,
                     fixed_sa=None, fixed_ca=None):
        params = dict(index_name=index_name, row_attr=row_attr,
                      col_attr=col_attr, fixed_sa=fixed_sa,
                      fixed_ca=fixed_ca)
        return self._cached(
            "pivot_values", params,
            lambda: self._service.pivot_values(**params),
        )

    def trend(self, index_name: str = "D", sa=None, ca=None):
        params = dict(index_name=index_name, sa=sa, ca=ca)
        return self._cached(
            "trend", params, lambda: self._service.trend(**params)
        )

    # -- uncached passthroughs ------------------------------------------

    def info(self) -> "dict[str, object]":
        """Inner ``info()`` plus live cache counters (never cached)."""
        out = self._service.info()
        out["cache"] = self._cache.stats()
        return out

    def dates(self):
        return self._service.dates()

    def refresh(self) -> bool:
        """Pick up a newly published timeline date; evict stale entries.

        Asks the wrapped service for a :meth:`refreshed` successor;
        when one exists, swaps it in (a single attribute assignment —
        readers in flight keep their old reference) and bumps the cache
        generation so every pre-publish entry is evicted and in-flight
        pre-publish computations cannot re-populate it.  Returns True
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
        # Everything else (describe, dictionary, index_names, date,
        # cube, ...) reads through to the wrapped service unchanged.
        return getattr(self._service, name)

    def __repr__(self) -> str:
        return f"CachedCubeService({self._service!r}, {self._cache.stats()})"
