"""Process-parallel experiment fan-out with on-disk result caching.

The paper's evaluation artifacts are dominated by embarrassingly
parallel sweeps: one CPI run per workload (Figure 14), one analytic
model per geometry (scaling), one transient simulation per operating
point (margins).  Every experiment shares this machinery:

* :func:`resolve_workers` / :func:`parallel_map` - the pool-or-serial
  executor.
* :class:`ResultCache` - an on-disk JSON store keyed by
  ``(namespace, key)``.  The namespace identifies the experiment *and
  its result-format version* (bump the suffix when the semantics of a
  result change - that is the invalidation mechanism); the key encodes
  every input that can change the result.
* :func:`cached_batch` - the one cache-miss protocol, which
  :func:`cached_call`, :func:`cached_map`, the analog sweep's
  :func:`repro.josim.sweep.run_configs` and the service's dispatch
  thread share, each keeping only its own error policy.  It also owns
  the no-cache case: every entry computes once.
* :func:`cached_call` - memoise one expensive call through a cache.
* :func:`cached_map` - the combination: look up each point, fan the
  misses out over a process pool, store what came back, and return
  results in input order.
* :class:`SingleFlight` - key-indexed in-flight deduplication for
  threaded callers (the long-running simulation service): when several
  threads ask for the same key at once, one computes and the rest wait
  for (and share) its result; an exception propagates to every waiter.
  Every miss goes through a process-global flight, so concurrent
  overlapping sweeps in one process never duplicate a key's work.

Caching is opt-in: with no cache instance and no ``REPRO_CACHE_DIR``
environment variable, every call computes.  Results must be JSON
serialisable (the experiments return dicts/lists of primitives; op
tapes store base64 columns).

Long-running processes can bound the on-disk store: when
``REPRO_CACHE_MAX_BYTES`` is set to a positive integer, every
:meth:`ResultCache.put` enforces one least-recently-used byte budget
over every entry under the root, results and op tapes alike (hits
refresh recency; ``0``/unset keeps the historical unlimited
behaviour).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, TypeVar, Union

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"
#: Environment variable enabling the default on-disk result cache.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"
#: Environment variable bounding on-disk cache size (bytes; 0/unset =
#: unlimited): one budget over every entry under the cache root.
MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"
#: Share of the byte budget a store's later walks evict down to, so one
#: walk of a full root makes room for the next puts.
LOW_WATER = 0.9

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: argument, then env var, then cpu count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                workers = None
        if workers is None:
            workers = os.cpu_count() or 1
    return max(1, workers)


def parallel_map(fn: Callable[[T], R], points: Sequence[T],
                 workers: Optional[int] = None) -> List[R]:
    """Apply ``fn`` to every point, in parallel when it pays off.

    Results come back in input order.  Serial execution is used when
    only one worker resolves, fewer than two points exist, or the
    process pool cannot be spawned (sandboxes, missing semaphores);
    exceptions raised by ``fn`` itself always propagate.

    The serial path is a hard contract, not an optimisation: when the
    resolved worker count is 1 (explicit argument,
    ``REPRO_SWEEP_WORKERS=1``, or a 1-CPU host) no
    ``ProcessPoolExecutor`` is ever constructed, so single-core
    machines never pay pool spawn/pickle overhead for a sweep that
    would run serially anyway.  ``tests/josim/test_sweep.py`` guards
    this with a pool-spawn tripwire.
    """
    items = list(points)
    count = resolve_workers(workers)
    if count <= 1 or len(items) <= 1:
        return [fn(p) for p in items]
    try:
        with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
            return list(pool.map(fn, items))
    except (OSError, BrokenProcessPool, ImportError):
        return [fn(p) for p in items]


class _Flight:
    """One in-flight computation: waiters block on the event."""

    __slots__ = ("event", "value", "exception")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.exception: Optional[BaseException] = None


class SingleFlight:
    """Key-indexed in-flight deduplication (``golang.org/x/sync``'s
    ``singleflight``, for threads).

    The first caller to :meth:`begin` a key becomes its *leader* and
    computes; concurrent callers with the same key :meth:`wait` for the
    leader's :meth:`finish` and share its result.  A leader's exception
    propagates to every waiter.  Keys unregister on completion, so later
    calls compute fresh - pair with an on-disk cache for persistence.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}
        self.leads = 0
        self.waits = 0

    def begin(self, key: Hashable) -> Tuple[bool, _Flight]:
        """Claim ``key``: ``(True, flight)`` makes the caller its leader
        (it *must* eventually :meth:`finish`), ``(False, flight)`` means
        another thread is computing - :meth:`wait` on the flight."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self.waits += 1
                return False, flight
            flight = _Flight()
            self._flights[key] = flight
            self.leads += 1
            return True, flight

    def finish(self, key: Hashable, flight: _Flight, value: Any = None,
               exception: Optional[BaseException] = None) -> None:
        """Resolve a led flight and unregister its key."""
        flight.value = value
        flight.exception = exception
        with self._lock:
            if self._flights.get(key) is flight:
                del self._flights[key]
        flight.event.set()

    def wait(self, flight: _Flight) -> Any:
        """Block until the leader finishes; re-raises its exception."""
        flight.event.wait()
        if flight.exception is not None:
            raise flight.exception
        return flight.value

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


#: Process-global flight every :func:`cached_batch` claims misses on:
#: ``cached_call``, ``cached_map`` and the service's dispatch threads.
SINGLE_FLIGHT = SingleFlight()


def cache_max_bytes() -> int:
    """Configured on-disk cache budget in bytes; 0 = unlimited."""
    env = os.environ.get(MAX_BYTES_ENV_VAR)
    if not env:
        return 0
    try:
        return max(0, int(env))
    except ValueError:
        return 0


def enforce_cache_limit(root: Path, suffix: str, max_bytes: int) -> int:
    """Evict least-recently-used ``suffix`` files under ``root`` until
    their total size fits ``max_bytes``; returns the eviction count.

    Recency is file mtime: :meth:`ResultCache.get` touches entries on
    every hit, so a hot key survives a cold sweep.
    Concurrent eviction is safe - a racing unlink is simply skipped.
    """
    if max_bytes <= 0:
        return 0
    return _evict_lru(root, suffix, max_bytes)[0]


def _evict_lru(root: Path, suffix: str,
               max_bytes: int) -> Tuple[int, Optional[int]]:
    """:func:`enforce_cache_limit`'s walk: ``(evicted, bytes left)``,
    the total ``None`` when the root cannot be listed."""
    entries = []
    total = 0
    try:
        for path in root.rglob(f"*{suffix}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
            total += stat.st_size
    except OSError:
        return 0, None
    entries.sort(key=lambda entry: entry[0])
    evicted = 0
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        evicted += 1
    return evicted, total


def stable_key(value: Any) -> str:
    """Deterministic short digest of a JSON-serialisable key value."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"),
                         default=_key_fallback)
    return hashlib.sha256(encoded.encode()).hexdigest()[:24]


def _key_fallback(value: Any) -> Any:
    """Key encoding for frozen dataclasses and other simple objects."""
    if hasattr(value, "__dataclass_fields__"):
        return {"__class__": type(value).__name__, **vars(value)}
    raise TypeError(f"cache key element {value!r} is not serialisable")


def jsonable(value: Any) -> Any:
    """Cache- and wire-safe view: dataclasses/enums/numpy scalars out."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and type(value).__module__ == "numpy":
        return value.item()
    return value


class ResultCache:
    """On-disk JSON result store: one file per ``(namespace, key)``.

    Layout: ``<root>/<namespace>/<digest>.json`` holding ``{"key": ...,
    "value": ...}``.  The recorded key guards against digest collisions
    and makes the cache inspectable.  Corrupt or unreadable entries, and
    any that is not a JSON object with a matching ``key`` and a
    ``value``, are treated as misses and overwritten.

    ``max_bytes`` bounds the store with least-recently-used eviction
    (hits refresh recency); ``None`` follows ``REPRO_CACHE_MAX_BYTES``
    and ``0`` means unlimited.  The budget covers every ``.json`` entry
    under the root, whatever its namespace: experiment results and the
    op tapes of :func:`repro.cpu.optape.tape_for_program` share it.

    A budgeted put does not walk the root each time: the store keeps
    the total its last walk found plus the bytes it has written since,
    and walks (and evicts) only when that sum passes the budget.  Its
    first budgeted put walks and evicts down to the budget, so a
    short-lived store drops no more than it must; its later walks evict
    down to :data:`LOW_WATER` of the budget, so on a full root one walk
    covers a tenth of the budget's worth of puts instead of one put.
    Writes by other stores or processes sharing the root are reconciled
    at this store's next walk, not at each put.  A pickled copy (a
    process-pool worker's) has no total and walks at its first put.
    """

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Root total at the last walk plus bytes put since; ``None``
        #: until a budgeted put walks.
        self._tracked_bytes: Optional[int] = None
        self._budget_lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_budget_lock"]  # locks do not pickle (process pools)
        # A copy's writes never reach this store's total, nor this
        # store's writes the copy's: the copy walks at its first put.
        state["_tracked_bytes"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._budget_lock = threading.Lock()

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when ``REPRO_CACHE_DIR`` is unset."""
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, namespace: str, key: Any) -> Path:
        return self.root / namespace / f"{stable_key(key)}.json"

    def get(self, namespace: str, key: Any) -> Optional[Any]:
        value = self._read(namespace, key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _read(self, namespace: str, key: Any) -> Optional[Any]:
        """:meth:`get` without the hit/miss counters.

        The singleflight re-checks after a claim read through this, so
        a lookup that missed counts one miss however often it re-looks.
        """
        path = self._path(namespace, key)
        try:
            with path.open() as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not (isinstance(entry, dict) and "key" in entry
                and "value" in entry):
            return None  # not an entry this cache wrote: recompute
        if entry["key"] != json.loads(json.dumps(key, default=_key_fallback)):
            return None  # digest collision: recompute
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return entry["value"]

    def put(self, namespace: str, key: Any, value: Any) -> None:
        path = self._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}-{os.getpid()}-"
                             f"{threading.get_ident()}.tmp")
        try:
            with tmp.open("w") as handle:
                json.dump({"key": json.loads(
                    json.dumps(key, default=_key_fallback)),
                    "value": value}, handle)
            written = tmp.stat().st_size
            tmp.replace(path)  # atomic publish; readers never see partial JSON
        except BaseException:
            # A failed publish (disk full) must not leave its partial
            # file behind: nothing budgets or removes stray .tmp files.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        limit = self.max_bytes if self.max_bytes is not None \
            else cache_max_bytes()
        if limit > 0:
            self._charge(written, limit)

    def _charge(self, written: int, limit: int) -> None:
        """Add a put's bytes to the running total; walk the root and
        evict only once the total passes ``limit`` (down to
        :data:`LOW_WATER` of it) or was never taken (down to ``limit``).
        An overwrite counts in full, so the total errs high."""
        with self._budget_lock:
            target = limit
            if self._tracked_bytes is not None:
                self._tracked_bytes += written
                if self._tracked_bytes <= limit:
                    return
                target = int(limit * LOW_WATER)
            evicted, self._tracked_bytes = _evict_lru(
                self.root, ".json", target)
            self.evictions += evicted

    def size_bytes(self) -> int:
        """Total size of the store's JSON entries (the eviction budget)."""
        return sum(path.stat().st_size
                   for path in self.root.rglob("*.json") if path.is_file())


CacheLike = Optional[Union[ResultCache, str, Path]]


def coerce_cache(cache: CacheLike) -> Optional[ResultCache]:
    """The store a ``cache=`` argument names: the instance itself, a
    :class:`ResultCache` over a path, or for ``None`` the
    ``REPRO_CACHE_DIR`` default (``None`` when that is unset)."""
    if cache is None:
        return ResultCache.from_env()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _flight_key(store: ResultCache, namespace: str, key: Any) -> Tuple[str, str, str]:
    """Singleflight identity of one cached computation.

    Scoped to the cache root so two stores never share a flight: a
    waiter receives the leader's value but only the leader's store gets
    the entry written.
    """
    return (str(store.root), namespace, stable_key(key))


#: ``(value, served_from_cache)`` of one resolved entry.  A value another
#: thread's flight computed counts as served from the cache.
Resolved = Tuple[Any, bool]

#: One entry's outcome: its :data:`Resolved` pair, or the exception it
#: fails with.
Outcome = Union[Resolved, BaseException]


def cached_batch(store: Optional[ResultCache],
                 entries: Sequence[Tuple[str, Any]],
                 compute: Callable[[List[int]], Sequence[Any]]
                 ) -> Tuple[List[Outcome], List[Exception]]:
    """Resolve ``(namespace, key)`` entries through ``store`` and
    :data:`SINGLE_FLIGHT`; returns ``(outcomes, publish_errors)``.

    One counted lookup per entry; a miss claims its flight and looks
    again uncounted (a previous leader may have published in between).
    ``compute(led)`` gets the indices this call leads and returns one
    value, or the exception that entry fails with, per index.  Each
    value is published, a publish's ``Exception`` is collected rather
    than raised, and every led flight finishes with its value or its
    exception.  Flights other threads lead are waited for last.  If
    ``compute`` raises, every led flight finishes with that exception,
    which then propagates.  With no store, every entry is computed once
    and nothing is looked up, claimed or published.
    """
    if store is None:
        return [value if isinstance(value, BaseException) else (value, False)
                for value in compute(list(range(len(entries))))], []
    outcomes: List[Optional[Outcome]] = [None] * len(entries)
    led: List[Tuple[int, Hashable, _Flight]] = []
    waiting: List[Tuple[int, _Flight]] = []
    for index, (namespace, key) in enumerate(entries):
        found = store.get(namespace, key)
        if found is None:
            flight_key = _flight_key(store, namespace, key)
            leader, flight = SINGLE_FLIGHT.begin(flight_key)
            if not leader:
                waiting.append((index, flight))
                continue
            found = store._read(namespace, key)
            if found is None:
                led.append((index, flight_key, flight))
                continue
            SINGLE_FLIGHT.finish(flight_key, flight, value=found)
        outcomes[index] = (found, True)
    try:
        values = compute([index for index, _, _ in led]) if led else []
    except BaseException as exc:
        for _, flight_key, flight in led:
            SINGLE_FLIGHT.finish(flight_key, flight, exception=exc)
        raise
    publish_errors: List[Exception] = []
    for (index, flight_key, flight), value in zip(led, values):
        if isinstance(value, BaseException):
            SINGLE_FLIGHT.finish(flight_key, flight, exception=value)
            outcomes[index] = value
            continue
        namespace, key = entries[index]
        try:
            store.put(namespace, key, value)
        except Exception as exc:  # served uncached; the caller decides
            publish_errors.append(exc)
        SINGLE_FLIGHT.finish(flight_key, flight, value=value)
        outcomes[index] = (value, False)
    for index, flight in waiting:
        try:
            outcomes[index] = (SINGLE_FLIGHT.wait(flight), True)
        except Exception as exc:
            outcomes[index] = exc
    return outcomes, publish_errors  # type: ignore[return-value]


def _value(outcome: Outcome) -> Any:
    """An outcome's value; raises the exception it failed with."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome[0]


def cached_call(namespace: str, key: Any, fn: Callable[[], R],
                cache: CacheLike = None) -> R:
    """Return ``fn()``, memoised on disk when a cache is available.

    Concurrent same-key calls from other threads collapse through
    :data:`SINGLE_FLIGHT`: one computes (and publishes), the rest share
    its result.  A publish that raises reaches the computing caller
    alone; the waiters still receive the computed value.
    """
    (outcome,), publish_errors = cached_batch(
        coerce_cache(cache), [(namespace, key)], lambda led: [fn()])
    if publish_errors:
        raise publish_errors[0]
    return _value(outcome)  # type: ignore[no-any-return]


def cached_map(namespace: str, fn: Callable[[T], R], points: Sequence[T],
               keys: Optional[Sequence[Any]] = None,
               workers: Optional[int] = None,
               cache: CacheLike = None) -> List[R]:
    """Fan ``fn`` out over the uncached points; return results in order.

    ``keys`` supplies the cache key per point (defaults to the point
    itself, which must then be JSON-serialisable).  Duplicate keys are
    looked up and computed once, with or without a cache;
    already-cached points never reach the pool, and the returned list
    matches ``points`` element-for-element.

    Misses are claimed through :func:`cached_batch`: this call leads the
    keys nobody else is computing (one pool fan-out for all of them) and
    *waits* for keys another thread's overlapping sweep already has in
    flight, so concurrent callers sharing a cache never duplicate a
    point's work.  A publish that raises is re-raised only once every
    flight this call leads has its computed value.
    """
    items = list(points)
    key_list = list(keys) if keys is not None else items
    if len(key_list) != len(items):
        raise ValueError(f"{len(key_list)} keys for {len(items)} points")
    digests = [stable_key(key) for key in key_list]
    first: Dict[str, int] = {}  # digest -> index of its first occurrence
    for index, digest in enumerate(digests):
        first.setdefault(digest, index)
    distinct = list(first.values())
    outcomes, publish_errors = cached_batch(
        coerce_cache(cache), [(namespace, key_list[index]) for index in distinct],
        lambda led: parallel_map(fn, [items[distinct[i]] for i in led],
                                 workers=workers))
    if publish_errors:
        raise publish_errors[0]
    values = {digest: _value(outcome)
              for digest, outcome in zip(first, outcomes)}
    return [values[digest] for digest in digests]
