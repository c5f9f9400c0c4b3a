"""The coalescing scheduler: busy-driven batching + singleflight + cache.

One :class:`CoalescingEngine` owns an asyncio loop's worth of jobs.
Each submitted job decomposes into unit work items
(:mod:`repro.service.adapters`); per item the engine

1. **collapses** onto an identical in-flight item if one exists
   (engine-level singleflight - duplicate requests cost one
   computation),
2. otherwise parks the item until a dispatch thread is free
   (**busy-driven batching**, as in Triton or TF-Serving dynamic
   batching): while fewer groups run than there are workers, pending
   items leave on the next loop tick; items that arrive while every
   worker is busy wait and leave together when a group finishes.
   Pending items are grouped by their ``group`` token and each group
   runs as *one* dispatch on a worker thread - strangers' analog lanes
   share a solver dispatch, strangers' CPU designs replay one op tape;
   when a group's dispatch raises, each of its items is dispatched
   alone, so a failure stays with the items whose own dispatch raises,
3. inside the dispatch thread, the group runs through
   :func:`~repro.experiments.parallel.cached_batch`, the miss protocol
   ``cached_call`` and ``cached_map`` share: each item consults the
   shared on-disk :class:`~repro.experiments.parallel.ResultCache` and
   claims the process-global
   :data:`~repro.experiments.parallel.SINGLE_FLIGHT` for real misses,
   so the service also deduplicates against CLI sweeps running in the
   same process,
4. computed values publish through the cache's atomic tmp+rename path,
   then resolve every waiting job.  A publish that raises anything
   (disk full, read-only cache root, an unstorable value) only costs
   the persistence: the value still resolves its flight and its jobs,
   and ``stats()["cache"]["put_errors"]`` counts it.

The queue is bounded: :meth:`CoalescingEngine.submit` raises
:class:`EngineOverloaded` when a job's new items would take the engine
past :data:`MAX_INFLIGHT_ITEMS` distinct unresolved items, and the HTTP
front-end answers that with ``429 Too Many Requests``.  A job larger
than the limit on its own is a ``ValueError`` (HTTP ``400``): it could
never be accepted.

The engine is asyncio-native: construct it on a running loop (or use
:class:`~repro.service.server.ServiceThread`, which hosts one in a
background thread).
"""

from __future__ import annotations

import asyncio
import os
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Awaitable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.parallel import (
    Outcome,
    Resolved,
    ResultCache,
    cached_batch,
    jsonable,
)
from repro.service.adapters import (
    WorkItem,
    cpu_lane_stats,
    decompose,
    dispatch_group,
    pulse_lane_stats,
)
from repro.service.jobs import Job, JobStore

#: Most distinct unresolved items the engine holds: ``submit`` refuses
#: a job whose new items would pass it, so a job's own items count.
#: Far above a working load (a burst of 200 requests holds under 100):
#: it bounds memory when clients outrun the workers.
MAX_INFLIGHT_ITEMS = 4096


class EngineOverloaded(RuntimeError):
    """``submit`` refused a job: its new items would take the engine
    past :data:`MAX_INFLIGHT_ITEMS` unresolved items.  Retry later."""


def _dispatch_isolated(kind: str, payloads: List[Any]) -> List[Any]:
    """``dispatch_group``, with a failure kept to the payloads it hits.

    When a group of several payloads raises, each payload is dispatched
    alone.  Returns one entry per payload: its value, or the exception
    its own dispatch raised.
    """
    try:
        return dispatch_group(kind, payloads)
    except Exception as exc:
        if len(payloads) == 1:
            return [exc]
    return [_dispatch_isolated(kind, [payload])[0] for payload in payloads]


def _jsonable_outcome(outcome: Any) -> Any:
    """A dispatch outcome as it is cached and served: ``jsonable`` of a
    value, or the exception that value fails with (an exception
    outcome passes through)."""
    if isinstance(outcome, BaseException):
        return outcome
    try:
        return jsonable(outcome)
    except Exception as exc:
        return exc


def default_workers() -> int:
    """Dispatch-thread default: enough to overlap groups, not a pool per
    core (each group is itself batch-parallel inside the solvers)."""
    return max(2, min(8, os.cpu_count() or 2))


class CoalescingEngine:
    """Batch strangers' work items into shared dispatches.

    Parameters
    ----------
    cache:
        Shared :class:`ResultCache` (``None`` follows
        ``REPRO_CACHE_DIR``; without either, the engine still
        coalesces/deduplicates but nothing persists).
    window_ms:
        Hold for strangers while a worker is idle: how long the first
        pending item waits before its group dispatches.  ``0`` (the
        default) dispatches on the next loop tick.  Items that wait for
        a busy pool never wait this hold as well.
    workers:
        Dispatch thread count.  While this many groups are running,
        new items wait in the engine, where they can still merge.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 window_ms: float = 0.0,
                 workers: Optional[int] = None,
                 store: Optional[JobStore] = None) -> None:
        self.cache = cache if cache is not None else ResultCache.from_env()
        self.window_ms = max(0.0, float(window_ms))
        self.workers = workers if workers is not None else default_workers()
        self.store = store if store is not None else JobStore()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[str, "asyncio.Future[Resolved]"] = {}
        self._pending: Dict[Hashable, List[Tuple[WorkItem, "asyncio.Future[Resolved]"]]] = {}
        self._flush_handle: Optional[asyncio.Handle] = None
        #: Groups handed to the pool and not yet finished.
        self._busy = 0
        self._tasks: "set[asyncio.Task[None]]" = set()
        self.refused = 0
        self.dispatches = 0
        self.dispatched_items = 0
        self.largest_group = 0
        #: Lifetime totals for ``stats()``.  The per-job counters they
        #: mirror leave with each job the store's history trims.
        self.jobs_done = 0
        self.jobs_failed = 0
        self.item_totals = {"items": 0, "cache_hits": 0, "coalesced": 0,
                            "computed": 0}
        #: Computed values the cache failed to store (counted on the
        #: dispatch threads).
        self.cache_put_errors = 0
        self._put_errors_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "CoalescingEngine":
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-dispatch")
        return self

    async def close(self) -> None:
        """Flush pending work, wait for in-flight jobs, stop the pool."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "CoalescingEngine":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- public API --------------------------------------------------------

    def submit(self, experiment: str, params: Optional[Dict[str, Any]] = None
               ) -> Job:
        """Register a job and start resolving it; raises ``ValueError``
        on an unknown experiment, bad params or a job of more than
        :data:`MAX_INFLIGHT_ITEMS` distinct items, and
        :class:`EngineOverloaded` when the job's new items would take
        the engine past that many unresolved items (no job is
        created)."""
        if self._loop is None:
            raise RuntimeError("engine not started (use 'async with' or "
                               "await start())")
        decomposed = decompose(experiment, params)
        digests = {item.digest() for item in decomposed.items}
        if len(digests) > MAX_INFLIGHT_ITEMS:
            raise ValueError(
                f"{experiment} job has {len(digests)} distinct items; "
                f"the engine holds at most {MAX_INFLIGHT_ITEMS}")
        added = len(digests - self._inflight.keys())
        if len(self._inflight) + added > MAX_INFLIGHT_ITEMS:
            self.refused += 1
            raise EngineOverloaded(
                f"{len(self._inflight)} items unresolved and the job adds "
                f"{added} (limit {MAX_INFLIGHT_ITEMS}); retry later")
        job = self.store.create(experiment, dict(params or {}))
        job.items = len(decomposed.items)
        self.item_totals["items"] += job.items
        # Items register now, so the next submit's limit check counts them.
        values = [self._resolve_item(job, item) for item in decomposed.items]
        task = self._loop.create_task(self._run_job(job, decomposed, values))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job

    async def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        await asyncio.wait_for(job.done_event.wait(), timeout)
        return job

    async def run(self, experiment: str,
                  params: Optional[Dict[str, Any]] = None) -> Job:
        return await self.wait(self.submit(experiment, params))

    def stats(self) -> Dict[str, Any]:
        """Service counters; O(1) in the job history's length.

        ``jobs`` counts the jobs the store still holds; every other
        count covers the engine's lifetime.
        """
        totals = self.item_totals
        payload: Dict[str, Any] = {
            "jobs": len(self.store),
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "items": totals["items"],
            "item_cache_hits": totals["cache_hits"],
            "item_coalesced": totals["coalesced"],
            "item_computed": totals["computed"],
            "dispatches": self.dispatches,
            "dispatched_items": self.dispatched_items,
            "largest_group": self.largest_group,
            "refused": self.refused,
            "in_flight": len(self._inflight),
            "pending_groups": len(self._pending),
            "window_ms": self.window_ms,
            "workers": self.workers,
            "pulse_lanes": pulse_lane_stats(),
            "cpu_lanes": cpu_lane_stats(),
        }
        if self.cache is not None:
            payload["cache"] = {"root": str(self.cache.root),
                                "hits": self.cache.hits,
                                "misses": self.cache.misses,
                                "evictions": self.cache.evictions,
                                "put_errors": self.cache_put_errors}
        return payload

    # -- job resolution ----------------------------------------------------

    async def _run_job(self, job: Job, decomposed: Any,
                       values: "List[Awaitable[Any]]") -> None:
        job.start()
        # Count before the transition: whoever sees a terminal job also
        # sees it in the totals.
        try:
            resolved = await asyncio.gather(*values)
            result = jsonable(decomposed.recompose(list(resolved)))
        except Exception as exc:
            self.jobs_failed += 1
            job.fail("".join(traceback.format_exception_only(exc)).strip())
        else:
            self.jobs_done += 1
            job.finish(result)

    def _tally(self, job: Job, outcome: str) -> None:
        """Count one resolved item on its job and in the lifetime totals."""
        setattr(job, outcome, getattr(job, outcome) + 1)
        self.item_totals[outcome] += 1

    def _resolve_item(self, job: Job, item: WorkItem) -> "Awaitable[Any]":
        digest = item.digest()
        shared = self._inflight.get(digest)
        assert self._loop is not None
        if shared is not None:
            self._tally(job, "coalesced")
            return self._await_shared(shared, count_into=None)
        future: "asyncio.Future[Resolved]" = self._loop.create_future()
        self._inflight[digest] = future
        self._pending.setdefault(item.group, []).append((item, future))
        self._arm_window()
        return self._await_shared(future, count_into=job)

    async def _await_shared(self, future: "asyncio.Future[Resolved]",
                            count_into: Optional[Job]) -> Any:
        value, from_cache = await asyncio.shield(future)
        if count_into is not None:
            self._tally(count_into, "cache_hits" if from_cache else "computed")
        return value

    # -- busy-driven batching ----------------------------------------------

    def _arm_window(self, hold_ms: Optional[float] = None) -> None:
        """Schedule :meth:`_flush` while items are pending and a worker
        is free: on the next tick, or after ``hold_ms`` (default
        ``window_ms``).  While every worker is busy nothing is armed;
        the next group to finish arms the flush instead."""
        if (self._flush_handle is not None or not self._pending
                or self._busy >= self.workers):
            return
        assert self._loop is not None
        hold_ms = self.window_ms if hold_ms is None else hold_ms
        if hold_ms <= 0:
            self._flush_handle = self._loop.call_soon(self._flush)
        else:
            self._flush_handle = self._loop.call_later(
                hold_ms / 1000.0, self._flush)

    def _flush(self) -> None:
        """Hand every pending group to the pool."""
        self._flush_handle = None
        groups, self._pending = self._pending, {}
        assert self._loop is not None
        for entries in groups.values():
            kind = entries[0][0].kind
            self._busy += 1
            self.dispatches += 1
            self.dispatched_items += len(entries)
            self.largest_group = max(self.largest_group, len(entries))
            task = self._loop.create_task(self._run_group(kind, entries))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_group(
            self, kind: str,
            entries: List[Tuple[WorkItem, "asyncio.Future[Resolved]"]]
    ) -> None:
        assert self._loop is not None and self._pool is not None
        items = [item for item, _ in entries]
        resolved: List[Outcome]
        try:
            resolved = await self._loop.run_in_executor(
                self._pool, self._dispatch_batch, kind, items)
        except BaseException as exc:
            resolved = [exc] * len(entries)
        finally:
            self._busy -= 1
            # What queued behind the busy pool has waited: no hold.
            self._arm_window(hold_ms=0)
        for (item, future), outcome in zip(entries, resolved):
            self._inflight.pop(item.digest(), None)
            if future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    # -- dispatch thread ---------------------------------------------------

    def _dispatch_batch(self, kind: str,
                        items: List[WorkItem]) -> List[Outcome]:
        """One coalesced group, on a worker thread.

        The group runs through
        :func:`~repro.experiments.parallel.cached_batch`: cached items
        are served, the led misses compute in one batched dispatch and
        publish, and items a concurrent CLI sweep in this process leads
        wait for it (and vice versa); with no cache, every item
        computes.  An item whose own dispatch raises, or whose value
        ``jsonable`` cannot convert, fails alone.  A publish that raises
        is counted in ``cache_put_errors`` and its value is served
        uncached.
        """

        def compute(indices: Sequence[int]) -> List[Any]:
            outcomes = _dispatch_isolated(
                kind, [items[index].payload for index in indices])
            return [_jsonable_outcome(outcome) for outcome in outcomes]

        resolved, publish_errors = cached_batch(
            self.cache, [(item.namespace, item.key) for item in items],
            compute)
        if publish_errors:
            with self._put_errors_lock:
                self.cache_put_errors += len(publish_errors)
        return resolved
