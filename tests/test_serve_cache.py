"""Tests of the response cache: bounds, threads, publish invalidation.

The HTTP tier caches finished responses, ``(status, body bytes)``,
keyed by the request's ``(PATH_INFO, QUERY_STRING)``.  Four layers of
contract:

* :class:`QueryCache` — LRU order, eviction, counters, ``maxsize=0``
  disabling, generation checks (a store rendered before an invalidate
  must be dropped, never resurrected) and the byte bound
  (``MAX_CACHE_BYTES``, monkeypatched small);
* the cached app — every body equals the cache-off app's, hits and
  misses count per request, ``/info`` is live, and many reader threads
  see the same bytes;
* publish flow — ``refresh()`` swaps the served date and evicts every
  stale entry, and a render in flight across the publish never lands;
* every interleaving of one cache miss with one ``refresh()``, checked
  against two invariants stated once, as predicates.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cube.builder import SegregationDataCubeBuilder
from repro.serve import cache as cache_module
from repro.serve import payloads
from repro.serve.cache import CachedCubeService, QueryCache
from repro.serve.http import make_app, wsgi_get
from repro.serve.service import CubeService
from repro.store import dump_into_timeline, dump_snapshot

SA = "sa=ethnicity%3Dminority"
CA = "ca=city%3DRivertown"
TOP = "/top?index=D&k=5&min_minority=5"
#: Two cities in one cell: valid vocabulary, no such cell (404, null).
NO_CELL = "/cell?ca=city%3DRivertown&ca=city%3DLakeside"


@pytest.fixture(scope="module")
def built(schools):
    table, schema = schools
    return SegregationDataCubeBuilder(min_population=10, min_minority=3).build(table, schema)


@pytest.fixture(scope="module")
def smaller(built, schools):
    """The schools cube restricted to one city: its answers differ."""
    table, schema = schools
    one_city = table.filter(table.categorical("city").mask_eq("Rivertown"))
    return SegregationDataCubeBuilder(min_population=10, min_minority=3).build(one_city, schema)


@pytest.fixture(scope="module")
def snapshot_dir(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "snap"
    dump_snapshot(built, path)
    return path


@pytest.fixture(scope="module")
def plain(snapshot_dir):
    """The cache-off app: the reference bytes of every request."""
    return make_app(snapshot_dir, cache_size=0)


def _answer(app, query: str) -> "tuple[int, bytes]":
    status, _, body = wsgi_get(app, query)
    return status, body


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache(maxsize=4)
        generation = cache.generation
        found, response = cache.lookup("a", generation)
        assert not found and response is None
        assert cache.store("a", (200, b"[1]"), generation)
        found, response = cache.lookup("a", generation)
        assert found and response == (200, b"[1]")
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0,
            "size": 1, "bytes": 3, "maxsize": 4, "generation": 0,
        }

    def test_lru_eviction_order(self):
        cache = QueryCache(maxsize=2)
        generation = cache.generation
        for key in ("a", "b"):
            cache.lookup(key, generation)
            cache.store(key, (200, key.encode()), generation)
        cache.lookup("a", generation)           # refresh a: b is now LRU
        cache.lookup("c", generation)
        cache.store("c", (200, b"c"), generation)   # evicts b
        assert cache.lookup("a", generation)[0]
        assert cache.lookup("c", generation)[0]
        assert not cache.lookup("b", generation)[0]
        assert cache.stats()["evictions"] == 1

    def test_maxsize_zero_disables_storage(self):
        cache = QueryCache(maxsize=0)
        generation = cache.generation
        assert not cache.store("a", (200, b"1"), generation)
        assert not cache.lookup("a", generation)[0]
        assert len(cache) == 0 and cache.stats()["bytes"] == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            QueryCache(maxsize=-1)

    def test_invalidate_clears_and_bumps_generation(self):
        cache = QueryCache(maxsize=4)
        cache.store("a", (200, b"1"), cache.generation)
        assert cache.invalidate() == 1 == cache.generation
        assert not cache.lookup("a", 1)[0]
        assert cache.stats()["generation"] == 1
        assert cache.stats()["bytes"] == 0

    def test_stale_inflight_store_is_dropped(self):
        """A body rendered against the pre-publish cube must not land
        after the publish — that would resurrect stale data forever."""
        cache = QueryCache(maxsize=4)
        generation = cache.generation           # render starts...
        cache.invalidate()                       # ...publish happens...
        assert not cache.store("q", (200, b"stale"), generation)  # dropped
        assert not cache.lookup("q", cache.generation)[0]

    def test_stale_generation_never_hits(self):
        """A request still holding the pre-publish service misses a body
        the new generation stored, so it answers from its own service."""
        cache = QueryCache(maxsize=4)
        old = cache.generation
        new = cache.invalidate()
        assert cache.store("q", (200, b"new"), new)
        assert cache.lookup("q", old) == (False, None)
        assert cache.lookup("q", new) == (True, (200, b"new"))
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1


class TestByteBound:
    def test_lru_entries_evicted_until_bodies_fit(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_CACHE_BYTES", 10)
        cache = QueryCache(maxsize=8)

        def put(key: str, size: int) -> bool:
            return cache.store(key, (200, b"x" * size), cache.generation)

        def holds(resident: "dict[str, int]", gone: str = "") -> None:
            """The cache holds exactly ``resident`` (key -> body length),
            and ``bytes`` is their summed length."""
            stats = cache.stats()
            assert stats["size"] == len(resident)
            assert stats["bytes"] == sum(resident.values())
            for key, size in resident.items():
                found = cache.lookup(key, cache.generation)
                assert found[1] == (200, b"x" * size), key
            for key in gone:
                assert not cache.lookup(key, cache.generation)[0], key

        assert put("a", 4) and put("b", 4)
        holds({"b": 4, "a": 4})                 # b, then a: b is LRU
        assert put("c", 4)                      # 12 > 10: evict b
        holds({"a": 4, "c": 4}, gone="b")
        assert cache.stats()["evictions"] == 1
        assert put("d", 9)                      # evict a, then c
        holds({"d": 9}, gone="ac")
        assert cache.stats()["evictions"] == 3
        assert not put("e", 11)                 # larger than the bound
        holds({"d": 9}, gone="e")
        assert put("d", 2)                      # a replacement, not an eviction
        holds({"d": 2})
        assert cache.stats()["evictions"] == 3
        cache.invalidate()
        holds({}, gone="d")

    def test_oversized_body_is_served_not_stored(self, monkeypatch,
                                                 snapshot_dir, plain):
        monkeypatch.setattr(cache_module, "MAX_CACHE_BYTES", 64)
        app = make_app(snapshot_dir)
        big = f"/slice?{CA}"
        expected = _answer(plain, big)
        assert expected[0] == 200 and len(expected[1]) > 64
        for _ in range(2):
            assert _answer(app, big) == expected
        stats = app.service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 0)
        assert (stats["size"], stats["bytes"]) == (0, 0)
        # A 404 with a null body is an answer: stored, then a hit.
        for _ in range(2):
            assert _answer(app, NO_CELL) == (404, b"null")
        stats = app.service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (3, 1)
        assert (stats["size"], stats["bytes"]) == (1, len(b"null"))


class TestCachedCubeService:
    def test_answers_match_and_hits_count(self, snapshot_dir, plain):
        app = make_app(snapshot_dir)
        for _ in range(3):
            for query in (TOP, f"/cell?{SA}"):
                assert wsgi_get(app, query) == wsgi_get(plain, query)
        stats = app.service.cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 4
        # An error raises inside the render: answered, never stored.
        for _ in range(2):
            assert _answer(app, "/top?k=-1")[0] == 400
        stats = app.service.cache.stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (4, 4, 2)

    def test_distinct_params_are_distinct_entries(self, snapshot_dir):
        app = make_app(snapshot_dir)
        assert len(json.loads(wsgi_get(app, "/top?k=3")[2])) == 3
        assert len(json.loads(wsgi_get(app, "/top?k=5")[2])) == 5
        assert len(json.loads(wsgi_get(app, "/top?k=3")[2])) == 3   # hit
        stats = app.service.cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 1

    def test_each_spelling_is_its_own_entry(self, snapshot_dir, plain):
        """The key is the request as received: two spellings of one
        query each get the correct bytes, and each is rendered once."""
        app = make_app(snapshot_dir)
        spellings = (f"/slice?{SA}&{CA}", f"/slice?{CA}&{SA}")
        expected = _answer(plain, spellings[0])
        assert _answer(plain, spellings[1]) == expected
        for _ in range(2):
            for query in spellings:
                assert _answer(app, query) == expected
        stats = app.service.cache.stats()
        assert (stats["misses"], stats["hits"], stats["size"]) == (2, 2, 2)

    def test_info_surfaces_counters_and_is_never_cached(self, snapshot_dir):
        app = make_app(snapshot_dir)
        body = wsgi_get(app, TOP)[2]
        wsgi_get(app, TOP)
        info = json.loads(wsgi_get(app, "/info")[2])
        assert info["cache"]["hits"] == 1
        assert info["cache"]["misses"] == 1
        assert info["cache"]["size"] == 1
        assert info["cache"]["bytes"] == len(body)
        assert info["cells"] > 0
        wsgi_get(app, TOP)
        info = json.loads(wsgi_get(app, "/info")[2])
        assert info["cache"]["hits"] == 2   # live, not cached
        assert info["cache"]["size"] == 1   # /info itself is not stored

    def test_passthrough_attributes(self, snapshot_dir):
        cached = CachedCubeService(CubeService(snapshot_dir))
        assert cached.index_names == cached.service.index_names
        assert cached.date is None
        assert cached.dates() == []
        assert cached.refresh() is False   # not timeline-backed
        # The query methods read through to the service, uncached.
        assert cached.top("D", k=5) == cached.service.top("D", k=5)
        stats = cached.cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)

    def test_cache_disabled_still_correct(self, snapshot_dir):
        app = make_app(snapshot_dir, cache_size=0)
        reference = CubeService(snapshot_dir)
        expected = payloads.dumps(payloads.top_payload(
            reference, "D", k=5, min_minority=5
        ))
        for _ in range(2):
            assert _answer(app, TOP) == (200, expected)
        stats = app.service.cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["size"] == 0

    def test_concurrent_readers_agree_with_reference(self, snapshot_dir,
                                                     plain):
        """Mixed hits and misses from 8 threads, with a 3-entry cache
        (concurrent evictions and re-renders included), must all give
        the cache-off app's bytes."""
        queries = (TOP, f"/slice?{CA}", f"/cell?{SA}",
                   "/pivot?index=D&rows=ethnicity&cols=city", "/children")
        expected = {query: _answer(plain, query) for query in queries}
        app = make_app(snapshot_dir, cache_size=3)

        def worker(i: int):
            query = queries[i % len(queries)]
            return query, _answer(app, query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(worker, range(200), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200
        for query, got in results:
            assert got == expected[query], f"{query} diverged under threads"
        stats = app.service.cache.stats()
        assert stats["hits"] + stats["misses"] == 200
        assert stats["size"] <= 3


class TestPublishInvalidation:
    @pytest.fixture()
    def timeline(self, built, tmp_path):
        """A two-date timeline; publishing the one-city cube as date 2
        makes staleness (serving the old answers) observable."""
        root = tmp_path / "tl"
        dump_into_timeline(root, 0, built)
        dump_into_timeline(root, 1, built, parent_date=0, parent=built)
        return root

    def test_refresh_swaps_date_and_evicts(self, timeline, built, smaller):
        root = timeline
        app = make_app(root)
        before = json.loads(wsgi_get(app, "/top?k=100")[2])
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert json.loads(body) == {"refreshed": False}   # nothing new
        assert app.service.cache.stats()["size"] == 1

        dump_into_timeline(root, 2, smaller, parent_date=1, parent=built)
        status, _, body = wsgi_get(app, "/refresh", method="POST")
        assert json.loads(body) == {"refreshed": True}
        stats = app.service.cache.stats()
        assert (stats["size"], stats["bytes"]) == (0, 0)   # evicted
        assert stats["generation"] == 1
        after = wsgi_get(app, "/top?k=100")[2]
        assert len(json.loads(after)) < len(before)   # the new cube
        assert after == wsgi_get(make_app(root, cache_size=0),
                                 "/top?k=100")[2]
        assert json.loads(wsgi_get(app, "/dates")[2]) == {
            "dates": [0, 1, 2], "served_date": 2,
        }

    def test_inflight_pre_publish_result_never_lands(self, timeline, built,
                                                     smaller):
        """A request renders against the old cube while a publish and a
        refresh happen: it answers with what it rendered, but the body
        is not stored, so the next request renders the new cube."""
        root = timeline
        app = make_app(root)
        inner = app.service.service
        top = inner.top

        def top_across_publish(*args, **kwargs):
            found = top(*args, **kwargs)
            dump_into_timeline(root, 2, smaller, parent_date=1, parent=built)
            assert app.service.refresh()
            return found

        inner.top = top_across_publish
        stale = wsgi_get(app, "/top?k=100")[2]
        assert app.service.cache.stats()["size"] == 0   # never landed
        fresh = wsgi_get(app, "/top?k=100")[2]
        assert len(json.loads(fresh)) < len(json.loads(stale))
        stats = app.service.cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)

    def test_trend_spans_published_dates(self, timeline, built, smaller):
        root = timeline
        app = make_app(root)
        query = f"/trend?index=D&{SA}"
        for _ in range(2):   # the second answer comes from the cache
            dates = [e["date"] for e in json.loads(wsgi_get(app, query)[2])]
            assert dates == [0, 1]
        dump_into_timeline(root, 2, smaller, parent_date=1, parent=built)
        wsgi_get(app, "/refresh", method="POST")
        series = json.loads(wsgi_get(app, query)[2])
        assert [entry["date"] for entry in series] == [0, 1, 2]


# ----------------------------------------------------------------------
# Every interleaving of one cache miss with one refresh()
# ----------------------------------------------------------------------

#: Seconds any one step may take before the schedule is declared hung.
STEP_TIMEOUT = 60
QUERY = "/top?k=100"


class Stepper:
    """Runs ``target`` on a thread that parks at every :meth:`gate` it
    reaches; :meth:`step` lets it run on to its next gate, or its end.

    Gates fire only on the stepper's own thread, so the same wrapped
    methods serve other threads unpaused.
    """

    def __init__(self, target):
        self._target = target
        self._go = threading.Semaphore(0)
        self._parked = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.done = False
        self.error: "Exception | None" = None

    def _run(self) -> None:
        try:
            self._target()
        except Exception as exc:  # noqa: BLE001 — re-raised by finish()
            self.error = exc
        finally:
            self.done = True
            self._parked.release()

    def gate(self) -> None:
        if threading.current_thread() is not self._thread:
            return
        self._parked.release()
        if not self._go.acquire(timeout=STEP_TIMEOUT):
            raise TimeoutError("a paused step was never released")

    def _wait_parked(self) -> None:
        assert self._parked.acquire(timeout=STEP_TIMEOUT), "step hung"

    def start(self) -> None:
        """Run up to the first gate."""
        self._thread.start()
        self._wait_parked()

    def step(self) -> None:
        assert not self.done, "no step left"
        self._go.release()
        self._wait_parked()

    def finish(self) -> None:
        while not self.done:
            self.step()
        self._thread.join(timeout=STEP_TIMEOUT)
        assert not self._thread.is_alive()
        if self.error is not None:
            raise self.error


def _orders() -> "list[str]":
    """The 10 orders of a miss (Lookup, Render, Store) and a refresh
    (W: get the successor service, then Invalidate; the successor is
    served, paired with the new generation, right after)."""
    orders = []
    for w, i in itertools.combinations(range(5), 2):
        miss = iter("LRS")
        orders.append("".join(
            "W" if n == w else "I" if n == i else next(miss)
            for n in range(5)
        ))
    return orders


def stored_bodies_are_fresh(app) -> bool:
    """Invariant 1: every stored response equals a fresh render against
    the service currently served."""
    cached = app.service
    fresh = make_app(cached.service)   # no cache: renders every request
    path, _, query = QUERY.partition("?")
    found, response = cached.cache.lookup((path, query),
                                          cached.cache.generation)
    return len(cached.cache) <= 1 and (
        not found or response == _answer(fresh, QUERY)
    )


def later_request_sees(app, body: bytes) -> bool:
    """Invariant 2: a request issued after ``refresh()`` returned gets
    the new date's bytes."""
    return _answer(app, QUERY) == (200, body)


class TestRefreshInterleavings:
    @pytest.fixture(scope="class")
    def two_dates(self, built, smaller, tmp_path_factory):
        """Dates 0 and 1 of a timeline whose /top bodies differ."""
        root = tmp_path_factory.mktemp("interleave") / "tl"
        dump_into_timeline(root, 0, built)
        dump_into_timeline(root, 1, smaller, parent_date=0, parent=built)
        old = _answer(make_app(root, date=0, cache_size=0), QUERY)[1]
        new = _answer(make_app(root, cache_size=0), QUERY)[1]
        assert old != new
        return root, old, new

    @pytest.mark.parametrize("order", _orders())
    def test_miss_and_refresh_interleave(self, two_dates, order):
        root, old, new = two_dates
        cached = CachedCubeService(CubeService(root, date=0))
        answers = []
        app = None
        miss = Stepper(lambda: answers.append(_answer(app, QUERY)))
        refresh = Stepper(lambda: (refresh.gate(), cached.refresh()))

        # Park the miss before its lookup, its render and its store, and
        # the refresh before it starts (getting the successor is its
        # first step) and on both sides of its invalidate (the second).
        # The gate after the invalidate holds back the swap that serves
        # the successor with the new generation until the schedule ends.
        # The miss reads the served pair before its first gate, so in
        # every order it renders, stores and hits under date 0's pair.
        def before(stepper, fn):
            def paused(*args):
                stepper.gate()
                return fn(*args)
            return paused

        cache = cached.cache
        cache.lookup = before(miss, cache.lookup)
        cache.store = before(miss, cache.store)
        invalidate = cache.invalidate

        def paused_invalidate():
            refresh.gate()
            generation = invalidate()
            refresh.gate()
            return generation

        cache.invalidate = paused_invalidate
        response = cached.response
        cached.response = lambda key, render: response(
            key, before(miss, render)
        )
        app = make_app(cached)

        miss.start()
        refresh.start()
        for step in order:
            (refresh if step in "WI" else miss).step()
        miss.finish()
        refresh.finish()

        assert cached.date == 1
        assert answers == [(200, old)], order
        assert stored_bodies_are_fresh(app), order
        assert later_request_sees(app, new), order
        # ... and stored it under the new generation: the cache works on.
        assert len(cached.cache) == 1, order
