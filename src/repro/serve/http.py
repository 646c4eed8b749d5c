"""Stdlib-only WSGI serving tier over a cube service.

:func:`make_app` turns any serving source — a snapshot directory, a
timeline directory, a live cube, or an already-constructed service —
into a WSGI application exposing the
:class:`~repro.serve.service.CubeService` queries as JSON-over-HTTP:

====================  ====================================================
``GET /info``         cube summary, provenance, disk stats, cache counters
``GET /dates``        timeline dates and the served date
``GET /top``          ranked contexts (``index``/``k``/``min_minority``/
                      ``min_population``/``min_units``)
``GET /slice``        cells refining ``sa``/``ca`` coordinates
``GET /cell``         one cell at ``sa``/``ca`` (404 + ``null`` if absent)
``GET /children``     drill-down neighbours of ``sa``/``ca``
``GET /parents``      roll-up neighbours of ``sa``/``ca``
``GET /pivot``        one index over ``rows`` × ``cols`` attributes
``GET /trend``        one cell's index value per timeline date
``POST /refresh``     pick up a newly published timeline date
====================  ====================================================

When a *graph snapshot* is mounted alongside the cube
(``make_app(..., graph_source="graph_snap/")``, written by
:func:`repro.store.dump_graph_snapshot` from a projection and its
clustering), three more endpoints serve the projected graph +
clustering through the same payload layer:

====================  ====================================================
``GET /graph/info``   graph summary: counts, method, degrees, provenance
``GET /graph/clusters``  the ``k`` largest clusters (``k``/``min_size``)
``GET /graph/degree``    one node (``node=``) or the top ``k`` by degree
====================  ====================================================

Without a mounted graph those paths answer 404.

Coordinates are repeatable ``attribute=value`` query parameters
(``?sa=sex%3DF&sa=age%3Dyoung&ca=region%3Dnorth``), parsed and
type-coerced by the *same* :mod:`repro.serve.params` functions the CLI
uses.  Every response body is ``payloads.dumps(<payload fn>(service,
...))`` — the exact bytes the in-process payload functions produce —
which is what makes the HTTP tier byte-identical to in-process calls.
The cell endpoints get those bytes without building the payload: a
``/cell`` body is its row's fragment, and a ``/slice``, ``/children``
or ``/parents`` body is :func:`~repro.serve.payloads.cells_body`, the
listed rows' fragments joined in canonical order, which equals
``dumps(cells_payload(...))`` over the same cells.  The service renders
each row's fragment once, the first time an endpoint lists the row
(:meth:`~repro.serve.service.CubeService.rendered`).

Caching: the app stores finished responses, ``(status, body bytes)``,
in :class:`~repro.serve.cache.CachedCubeService`'s one cache (at most
``cache_size`` entries and :data:`~repro.serve.cache.MAX_CACHE_BYTES`
bytes), keyed by ``(PATH_INFO, QUERY_STRING)`` exactly as received, so
a repeated request is one lookup.  Every cube ``GET`` endpoint but
``/info`` (live counters) is cached; ``/refresh`` and ``/graph/*`` are
not.  Errors are never stored; a ``/cell`` 404 ``null`` is an answer.

Error mapping: malformed parameters raise :class:`ValueError` → 400;
domain errors (:class:`~repro.errors.ReproError`: unknown index,
non-timeline trend, bad pivot attribute) → 400; unknown paths and
missing cells → 404; a wrong method → 405 with an ``Allow`` header
(``POST`` for ``/refresh``, ``GET, HEAD`` elsewhere); unexpected
failures → 500.  Every error body is JSON:
``{"error": ..., "status": ...}``.

The app is a plain WSGI callable: run it under
:func:`serve` (threaded ``wsgiref``, stdlib only), any WSGI container
(``gunicorn 'repro.serve.http:make_app("snap/")'``), or hit it
in-process with :func:`wsgi_get` (no socket needed — the CI smoke and
the parity tests do exactly that).
"""

from __future__ import annotations

import io
import sys
from functools import partial
from socketserver import ThreadingMixIn
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.cube.coordinates import CellKey, encode_query
from repro.errors import ReproError
from repro.serve import payloads
from repro.serve.cache import DEFAULT_CACHE_SIZE, CachedCubeService
from repro.serve.params import parse_coordinate_pairs, typed_coordinates
from repro.serve.router import open_service

_STATUS = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    500: "500 Internal Server Error",
}


class _HTTPError(Exception):
    """An error with a status code, rendered as a JSON body."""

    def __init__(self, status: int, message: str,
                 allow: "str | None" = None):
        super().__init__(message)
        self.status = status
        self.allow = allow


def _coords(service, params: "dict[str, list[str]]", name: str
            ) -> "dict[str, object] | None":
    return typed_coordinates(
        service.typed_values, parse_coordinate_pairs(params.get(name))
    )


def _int_param(params: "dict[str, list[str]]", name: str, default: int
               ) -> int:
    values = params.get(name)
    if not values:
        return default
    try:
        return int(values[-1])
    except ValueError:
        raise ValueError(
            f"parameter {name!r} must be an integer, got {values[-1]!r}"
        ) from None


def _str_param(params: "dict[str, list[str]]", name: str,
               default: "str | None" = None) -> "str | None":
    values = params.get(name)
    return values[-1] if values else default


def _require(params: "dict[str, list[str]]", name: str) -> str:
    value = _str_param(params, name)
    if value is None:
        raise ValueError(f"missing required parameter {name!r}")
    return value


def _index_param(service, params: "dict[str, list[str]]") -> str:
    index = _str_param(params, "index", "D")
    names = service.index_names
    if index not in names:
        raise ValueError(f"unknown index {index!r} (have: {names})")
    return index


def _key(service, params: "dict[str, list[str]]") -> CellKey:
    """The request's ``sa``/``ca`` coordinates as a cell key."""
    return encode_query(
        service.dictionary,
        sa=_coords(service, params, "sa"),
        ca=_coords(service, params, "ca"),
    )


def _cells(service, hits) -> bytes:
    """A cell-list body: the hits' rendered fragments, joined."""
    return payloads.cells_body(service.rendered(hits))


# ----------------------------------------------------------------------
# Endpoint handlers: (service, params) -> (status, payload), where the
# cell endpoints' payload is the finished body bytes
# ----------------------------------------------------------------------


def _handle_info(service, params):
    return 200, payloads.info_payload(service)


def _handle_dates(service, params):
    return 200, payloads.dates_payload(service)


def _handle_top(service, params):
    return 200, payloads.top_payload(
        service,
        index_name=_index_param(service, params),
        k=_int_param(params, "k", 10),
        min_minority=_int_param(params, "min_minority", 0),
        min_population=_int_param(params, "min_population", 0),
        min_units=_int_param(params, "min_units", 2),
    )


def _handle_slice(service, params):
    return 200, _cells(
        service, service.cube.slice_rows(_key(service, params))
    )


def _handle_cell(service, params):
    hit = service.cube.locate(_key(service, params))
    if hit is None:
        return 404, None
    return 200, service.rendered([hit])[0][2]   # the cell's fragment


def _handle_children(service, params):
    return 200, _cells(
        service, service.cube.children_rows(_key(service, params))
    )


def _handle_parents(service, params):
    return 200, _cells(
        service, service.cube.parent_rows(_key(service, params))
    )


def _handle_pivot(service, params):
    return 200, payloads.pivot_payload(
        service,
        index_name=_index_param(service, params),
        row_attr=_require(params, "rows"),
        col_attr=_require(params, "cols"),
        fixed_sa=_coords(service, params, "sa"),
        fixed_ca=_coords(service, params, "ca"),
    )


def _handle_trend(service, params):
    return 200, payloads.trend_payload(
        service,
        index_name=_index_param(service, params),
        sa=_coords(service, params, "sa"),
        ca=_coords(service, params, "ca"),
    )


_GET_ROUTES = {
    "/info": _handle_info,
    "/dates": _handle_dates,
    "/top": _handle_top,
    "/slice": _handle_slice,
    "/cell": _handle_cell,
    "/children": _handle_children,
    "/parents": _handle_parents,
    "/pivot": _handle_pivot,
    "/trend": _handle_trend,
}


def _render(handler, query: str, service) -> "tuple[int, bytes]":
    """One endpoint's ``(status, body)`` for a raw query string."""
    status, payload = handler(
        service, parse_qs(query, keep_blank_values=True)
    )
    if isinstance(payload, bytes):
        return status, payload
    return status, payloads.dumps(payload)


# ----------------------------------------------------------------------
# Graph endpoints: (graph_service, params) -> (status, payload)
# ----------------------------------------------------------------------


def _handle_graph_info(graph_service, params):
    return 200, payloads.graph_info_payload(graph_service)


def _handle_graph_clusters(graph_service, params):
    return 200, payloads.graph_clusters_payload(
        graph_service,
        k=_int_param(params, "k", 10),
        min_size=_int_param(params, "min_size", 1),
    )


def _handle_graph_degree(graph_service, params):
    node = _str_param(params, "node")
    if node is not None:
        try:
            node = int(node)
        except ValueError:
            raise ValueError(
                f"parameter 'node' must be an integer, got {node!r}"
            ) from None
    return 200, payloads.graph_degree_payload(
        graph_service, node=node, k=_int_param(params, "k", 10)
    )


_GRAPH_GET_ROUTES = {
    "/graph/info": _handle_graph_info,
    "/graph/clusters": _handle_graph_clusters,
    "/graph/degree": _handle_graph_degree,
}


def make_app(
    source,
    mmap: bool = True,
    date: "int | None" = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    graph_source=None,
):
    """Build the WSGI application over a serving source.

    ``source`` may be a path (snapshot or timeline directory), a live
    cube, or an already-constructed service object (anything
    with the :class:`~repro.serve.service.CubeService` query methods,
    its ``cube`` and its ``rendered``);
    paths and cubes are opened via
    :func:`~repro.serve.router.open_service` and wrapped in a
    :class:`~repro.serve.cache.CachedCubeService` of ``cache_size``
    entries (0 disables caching), which caches the app's finished
    responses.  Service objects are used as-is, so a parity test can
    hand the app the very instance it queries in-process; one without a
    ``response`` method renders every request.

    ``graph_source`` optionally mounts a graph snapshot under
    ``/graph/*``: a snapshot directory path, an opened
    :class:`~repro.store.graph.GraphSnapshot`, or a ready
    :class:`~repro.serve.graph.GraphService`.  ``None`` (the default)
    leaves the graph endpoints answering 404.
    """
    if hasattr(source, "info") and hasattr(source, "top"):
        service = source
    else:
        service = CachedCubeService(
            open_service(source, mmap=mmap, date=date), maxsize=cache_size
        )
    if graph_source is None:
        graph_service = None
    elif hasattr(graph_source, "clusters") and hasattr(graph_source, "node"):
        graph_service = graph_source
    else:
        from repro.serve.graph import GraphService
        from repro.store.graph import GraphSnapshot

        if isinstance(graph_source, GraphSnapshot):
            graph_service = GraphService(graph_source)
        else:
            graph_service = GraphService.open(graph_source, mmap=mmap)

    respond = getattr(service, "response", None)

    def app(environ, start_response):
        path = environ.get("PATH_INFO", "/")
        method = environ.get("REQUEST_METHOD", "GET")
        query = environ.get("QUERY_STRING", "")
        headers = [("Content-Type", "application/json")]
        try:
            if path == "/refresh":
                if method != "POST":
                    raise _HTTPError(405, "POST /refresh", allow="POST")
                refresher = getattr(service, "refresh", None)
                refreshed = bool(refresher()) if callable(refresher) else False
                status, body = 200, payloads.dumps({"refreshed": refreshed})
            elif path in _GRAPH_GET_ROUTES:
                if graph_service is None:
                    raise _HTTPError(
                        404, f"no graph snapshot mounted (for {path})"
                    )
                if method not in ("GET", "HEAD"):
                    raise _HTTPError(405, f"{path} only supports GET",
                                     allow="GET, HEAD")
                status, body = _render(
                    _GRAPH_GET_ROUTES[path], query, graph_service
                )
            else:
                handler = _GET_ROUTES.get(path)
                if handler is None:
                    raise _HTTPError(404, f"no such endpoint: {path}")
                if method not in ("GET", "HEAD"):
                    raise _HTTPError(405, f"{path} only supports GET",
                                     allow="GET, HEAD")
                if respond is None or path == "/info":  # live counters
                    status, body = _render(handler, query, service)
                else:
                    status, body = respond(
                        (path, query), partial(_render, handler, query)
                    )
        except _HTTPError as exc:
            status = exc.status
            body = payloads.dumps({"error": str(exc), "status": status})
            if exc.allow is not None:
                headers.append(("Allow", exc.allow))
        except ValueError as exc:
            status = 400
            body = payloads.dumps({"error": str(exc), "status": status})
        except ReproError as exc:
            status = 400
            body = payloads.dumps({"error": str(exc), "status": status})
        except Exception as exc:  # noqa: BLE001 — the 500 surface
            status = 500
            body = payloads.dumps(
                {"error": f"{type(exc).__name__}: {exc}", "status": status}
            )
        headers.append(("Content-Length", str(len(body))))
        start_response(_STATUS[status], headers)
        return [b"" if method == "HEAD" else body]

    app.service = service
    app.graph_service = graph_service
    return app


# ----------------------------------------------------------------------
# Stdlib server and in-process test client
# ----------------------------------------------------------------------


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """wsgiref's server, answering each request on its own thread.

    The served cube is warmed and a query writes only per-row slots
    (a row's key, its rendered fragment), each always with the same
    value, so concurrent handler threads are safe (the same guarantee
    the thread-pool tests exercise in-process).
    """

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 — wsgiref API
        pass


def serve(
    source,
    host: str = "127.0.0.1",
    port: int = 8000,
    mmap: bool = True,
    date: "int | None" = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    quiet: bool = False,
    graph_source=None,
):
    """Open a source and return a ready ``ThreadingWSGIServer``.

    The caller owns the loop: ``serve(...).serve_forever()``.  Returning
    the server (rather than looping here) lets tests bind port 0 and
    shut down cleanly.
    """
    app = make_app(
        source, mmap=mmap, date=date, cache_size=cache_size,
        graph_source=graph_source,
    )
    return make_server(
        host, port, app,
        server_class=ThreadingWSGIServer,
        handler_class=_QuietHandler if quiet else WSGIRequestHandler,
    )


def wsgi_get(app, path_qs: str, method: str = "GET"
             ) -> "tuple[int, dict[str, str], bytes]":
    """In-process request: ``(status, headers, body)`` without a socket."""
    path, _, query = path_qs.partition("?")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "SERVER_NAME": "localhost",
        "SERVER_PORT": "80",
        "SERVER_PROTOCOL": "HTTP/1.1",
        "wsgi.version": (1, 0),
        "wsgi.url_scheme": "http",
        "wsgi.input": io.BytesIO(b""),
        "wsgi.errors": sys.stderr,
        "wsgi.multithread": True,
        "wsgi.multiprocess": False,
        "wsgi.run_once": False,
    }
    captured: "dict[str, object]" = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = headers

    chunks = app(environ, start_response)
    try:
        body = b"".join(chunks)
    finally:
        close = getattr(chunks, "close", None)
        if callable(close):
            close()
    status_line = str(captured["status"])
    return (
        int(status_line.split(maxsplit=1)[0]),
        dict(captured["headers"]),
        body,
    )
