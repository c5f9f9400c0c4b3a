"""Process-parallel experiment fan-out with on-disk result caching.

The paper's evaluation artifacts are dominated by embarrassingly
parallel sweeps: one CPI run per workload (Figure 14), one analytic
model per geometry (scaling), one transient simulation per operating
point (margins).  :mod:`repro.josim.sweep` grew the first
worker-pool/run-cache implementation for the analog studies; this
module generalises that machinery so every experiment shares it:

* :func:`resolve_workers` / :func:`parallel_map` - the pool-or-serial
  executor (moved here from ``repro.josim.sweep``, which re-exports
  them for compatibility).
* :class:`ResultCache` - an on-disk JSON store keyed by
  ``(namespace, key)``.  The namespace identifies the experiment *and
  its result-format version* (bump the suffix when the semantics of a
  result change - that is the invalidation mechanism); the key encodes
  every input that can change the result.
* :func:`cached_call` - memoise one expensive call through a cache.
* :func:`cached_map` - the combination: look up each point, fan the
  misses out over a process pool, store what came back, and return
  results in input order.  This is ``repro.josim.sweep.run_configs``
  generalised to arbitrary functions and persistent storage.
* :class:`SingleFlight` - key-indexed in-flight deduplication for
  threaded callers (the long-running simulation service): when several
  threads ask for the same key at once, one computes and the rest wait
  for (and share) its result; an exception propagates to every waiter.
  ``cached_call`` and ``cached_map`` route their miss computations
  through a process-global flight, so concurrent overlapping sweeps in
  one process never duplicate a key's work.

Caching is opt-in: with no cache instance and no ``REPRO_CACHE_DIR``
environment variable, every call computes.  Results must be JSON
serialisable (the experiments return dicts/lists of primitives).

Long-running processes can bound the on-disk store: when
``REPRO_CACHE_MAX_BYTES`` is set to a positive integer, every
:meth:`ResultCache.put` enforces a least-recently-used byte budget over
the cache's own entries (hits refresh recency; ``0``/unset keeps the
historical unlimited behaviour).  :class:`repro.cpu.optape.TraceCache`
applies the same budget to its ``.npz`` tapes.
"""

from __future__ import annotations

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
#: unlimited).  Enforced per cache family: a ``ResultCache`` evicts its
#: own JSON entries, a ``TraceCache`` its own npz tapes.
MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

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

    The first caller of :meth:`do` for a key becomes the *leader* and
    computes; concurrent callers with the same key wait for the leader
    and share its result.  A leader's exception propagates to every
    waiter.  Keys unregister on completion, so later calls compute
    fresh - pair with an on-disk cache for persistence.

    The lower-level :meth:`begin` / :meth:`finish` / :meth:`wait` split
    supports batch leaders (``cached_map`` claims many keys, computes
    them in one pool dispatch, then resolves each).
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

    def do(self, key: Hashable, fn: Callable[[], R]) -> R:
        """``fn()``, deduplicated: concurrent same-key calls run once."""
        leader, flight = self.begin(key)
        if not leader:
            return self.wait(flight)  # type: ignore[no-any-return]
        try:
            value = fn()
        except BaseException as exc:
            self.finish(key, flight, exception=exc)
            raise
        self.finish(key, flight, value=value)
        return value

    def in_flight(self) -> int:
        with self._lock:
            return len(self._flights)


#: Process-global flight shared by ``cached_call``/``cached_map`` (and,
#: through them, every experiment runner the service dispatches).
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

    Recency is file mtime: :meth:`ResultCache.get`/:meth:`TraceCache.get`
    touch entries on every hit, so a hot key survives a cold sweep.
    Concurrent eviction is safe - a racing unlink is simply skipped.
    """
    if max_bytes <= 0:
        return 0
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
        return 0
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
    return evicted


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


class ResultCache:
    """On-disk JSON result store: one file per ``(namespace, key)``.

    Layout: ``<root>/<namespace>/<digest>.json`` holding ``{"key": ...,
    "value": ...}``.  The recorded key guards against digest collisions
    and makes the cache inspectable.  Corrupt or unreadable entries are
    treated as misses and overwritten.

    ``max_bytes`` bounds the store with least-recently-used eviction
    (hits refresh recency); ``None`` follows ``REPRO_CACHE_MAX_BYTES``
    and ``0`` means unlimited.  The budget covers this cache's own
    ``.json`` entries - npz tapes sharing the root are governed by
    :class:`repro.cpu.optape.TraceCache`'s identical limit.
    """

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """The default cache, or ``None`` when ``REPRO_CACHE_DIR`` is unset."""
        root = os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _path(self, namespace: str, key: Any) -> Path:
        return self.root / namespace / f"{stable_key(key)}.json"

    def get(self, namespace: str, key: Any) -> Optional[Any]:
        path = self._path(namespace, key)
        try:
            with path.open() as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("key") != json.loads(
                json.dumps(key, default=_key_fallback)):
            self.misses += 1  # digest collision: recompute
            return None
        self.hits += 1
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
            self.evictions += enforce_cache_limit(self.root, ".json", limit)

    def size_bytes(self) -> int:
        """Total size of the store's JSON entries (the eviction budget)."""
        return sum(path.stat().st_size
                   for path in self.root.rglob("*.json") if path.is_file())


CacheLike = Optional[Union[ResultCache, str, Path]]


def _coerce_cache(cache: CacheLike) -> Optional[ResultCache]:
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


def claim_miss(store: ResultCache, namespace: str, key: Any
               ) -> Tuple[Optional[Any], bool, Hashable, _Flight]:
    """Claim the :data:`SINGLE_FLIGHT` flight of a cache miss, then look
    again.

    A previous leader may have published and finished between the
    caller's miss and this claim.  Returns ``(found, leader, flight_key,
    flight)``.  ``found`` is that published value, its flight already
    finished.  When it is ``None``, a leader computes the key and must
    :meth:`~SingleFlight.finish` the flight; any other caller waits for
    it with :meth:`~SingleFlight.wait`.
    """
    flight_key = _flight_key(store, namespace, key)
    leader, flight = SINGLE_FLIGHT.begin(flight_key)
    if leader:
        found = store.get(namespace, key)
        if found is not None:
            SINGLE_FLIGHT.finish(flight_key, flight, value=found)
            return found, False, flight_key, flight
    return None, leader, flight_key, flight


def cached_call(namespace: str, key: Any, fn: Callable[[], R],
                cache: CacheLike = None) -> R:
    """Return ``fn()``, memoised on disk when a cache is available.

    Concurrent same-key calls from other threads collapse through
    :data:`SINGLE_FLIGHT`: one computes (and publishes), the rest share
    its result.  A publish that raises reaches the computing caller
    alone; the waiters still receive the computed value.
    """
    store = _coerce_cache(cache)
    if store is None:
        return fn()
    found = store.get(namespace, key)
    if found is not None:
        return found  # type: ignore[return-value]
    publish_errors: List[Exception] = []

    def compute() -> R:
        # Re-check inside the flight: a previous leader may have
        # published between our miss and our claim.
        cached = store.get(namespace, key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        value = fn()
        try:
            store.put(namespace, key, value)
        except Exception as exc:
            publish_errors.append(exc)
        return value

    value = SINGLE_FLIGHT.do(_flight_key(store, namespace, key), compute)
    if publish_errors:
        raise publish_errors[0]
    return value


def cached_map(namespace: str, fn: Callable[[T], R], points: Sequence[T],
               keys: Optional[Sequence[Any]] = None,
               workers: Optional[int] = None,
               cache: CacheLike = None) -> List[R]:
    """Fan ``fn`` out over the uncached points; return results in order.

    ``keys`` supplies the cache key per point (defaults to the point
    itself, which must then be JSON-serialisable).  Already-cached
    points never reach the pool, duplicates are computed once, and the
    returned list matches ``points`` element-for-element.

    Misses are claimed through :data:`SINGLE_FLIGHT` before dispatch:
    this call leads the keys nobody else is computing (one pool fan-out
    for all of them) and *waits* for keys another thread's overlapping
    sweep already has in flight, so concurrent callers sharing a cache
    never duplicate a point's work.  A publish that raises is re-raised
    only once every flight this call leads has its computed value.
    """
    items = list(points)
    key_list = list(keys) if keys is not None else items
    if len(key_list) != len(items):
        raise ValueError(f"{len(key_list)} keys for {len(items)} points")
    store = _coerce_cache(cache)
    if store is None:
        return parallel_map(fn, items, workers=workers)
    results: List[Optional[R]] = [None] * len(items)
    led: Dict[str, Tuple[int, Hashable, _Flight]] = {}
    waiting: List[Tuple[int, _Flight]] = []
    local: Dict[str, int] = {}  # digest -> leading index (in-call dups)
    for index, key in enumerate(key_list):
        found = store.get(namespace, key)
        if found is not None:
            results[index] = found
            continue
        digest = stable_key(key)
        if digest in local:
            continue  # duplicate of a slot this call already leads/waits
        local[digest] = index
        found, leader, flight_key, flight = claim_miss(store, namespace, key)
        if found is not None:
            results[index] = found
        elif leader:
            led[digest] = (index, flight_key, flight)
        else:
            waiting.append((index, flight))
    pending = [index for index, _, _ in led.values()]
    try:
        computed = parallel_map(fn, [items[i] for i in pending],
                                workers=workers)
    except BaseException as exc:
        # The pool raises one failure without saying which points
        # finished; fail every led flight so no waiter hangs.
        for _, flight_key, flight in led.values():
            SINGLE_FLIGHT.finish(flight_key, flight, exception=exc)
        raise
    # Finish every led flight before a failed publish (disk full,
    # read-only root) propagates, so no waiter on a later key hangs.
    publish_error: Optional[Exception] = None
    for (index, flight_key, flight), value in zip(led.values(), computed):
        try:
            store.put(namespace, key_list[index], value)
        except Exception as exc:
            publish_error = publish_error or exc
        SINGLE_FLIGHT.finish(flight_key, flight, value=value)
        results[index] = value
    if publish_error is not None:
        raise publish_error
    for index, flight in waiting:
        results[index] = SINGLE_FLIGHT.wait(flight)
    # Duplicate occurrences resolve from their leading slot.
    for index, slot in enumerate(results):
        if slot is None:
            results[index] = results[local[stable_key(key_list[index])]]
    return results  # type: ignore[return-value]
