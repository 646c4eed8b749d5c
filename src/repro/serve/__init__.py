"""Zero-rebuild query serving over cube snapshots.

The exploration queries the paper demos — top-k discovery, slicing,
roll-up/drill-down, point lookups, pivots — are all read-only array
operations after PR 3.  This subsystem serves them over a snapshot
written by :mod:`repro.store` without re-running ETL, mining or fill:

* :class:`~repro.serve.service.CubeService` — the embeddable serving
  facade and the one implementation of every query: opens a snapshot
  (memory-mapped by default), a timeline, or wraps a live cube, warms
  the derived lookup structures once, and then answers ``top`` /
  ``slice`` / ``children`` / ``parents`` / ``value_by_key`` /
  ``pivot`` / ``trend`` from any number of concurrent reader threads
  (after open, a query writes only per-row slots, each with its row's
  one value: a decoded key, a rendered cell).
  :func:`~repro.serve.router.open_service` is the opener the CLI and
  the HTTP tier share.
* :class:`~repro.serve.cache.CachedCubeService` /
  :class:`~repro.serve.cache.QueryCache` — the serving tier's one
  cache: a thread-safe LRU of finished HTTP responses (``(status, body
  bytes)``) keyed by the request's ``(PATH_INFO, QUERY_STRING)``,
  bounded by entries and by
  :data:`~repro.serve.cache.MAX_CACHE_BYTES`, with hit/miss counters in
  ``info()`` and generation-based invalidation when a timeline date is
  published.  Below it, the service renders each cell's JSON once per
  opened cube, so an uncached cell list joins per-row fragments.
* :func:`~repro.serve.http.make_app` — a stdlib-only WSGI app mapping
  the queries to JSON endpoints (``/info`` ``/dates`` ``/top``
  ``/slice`` ``/cell`` ``/children`` ``/parents`` ``/pivot``
  ``/trend``), byte-identical to the in-process payload builders in
  :mod:`repro.serve.payloads`; a repeated request is one cache lookup.
  Run it under any WSGI container or the bundled threaded ``wsgiref``
  server.
* :class:`~repro.serve.graph.GraphService` — the same zero-rebuild
  contract for scenario 2/3 graph outputs: opens a graph snapshot
  (:mod:`repro.store.graph`) and answers cluster rankings and degree
  queries from its flat arrays; ``make_app(...,
  graph_source="graph_snap/")`` mounts it under ``/graph/info``,
  ``/graph/clusters`` and ``/graph/degree``.
* ``python -m repro.serve <dir> top|slice|cell|pivot|info|serve`` — a
  small CLI over the same services, with text or ``--json`` output and
  an HTTP ``serve`` subcommand.
"""

from repro.serve.cache import CachedCubeService, QueryCache
from repro.serve.graph import GraphService
from repro.serve.http import make_app, wsgi_get
from repro.serve.router import open_service
from repro.serve.service import CubeService

__all__ = [
    "CachedCubeService",
    "CubeService",
    "GraphService",
    "QueryCache",
    "make_app",
    "open_service",
    "wsgi_get",
]
