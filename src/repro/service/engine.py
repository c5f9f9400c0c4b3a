"""The coalescing scheduler: micro-batch window + singleflight + cache.

One :class:`CoalescingEngine` owns an asyncio loop's worth of jobs.
Each submitted job decomposes into unit work items
(:mod:`repro.service.adapters`); per item the engine

1. **collapses** onto an identical in-flight item if one exists
   (engine-level singleflight - duplicate requests cost one
   computation),
2. otherwise parks the item in a **micro-batch window**
   (``window_ms``); when the window closes, pending items are grouped
   by their ``group`` token and each group runs as *one* dispatch on a
   worker thread - strangers' analog lanes share a solver dispatch,
   strangers' CPU designs replay one op tape; when a group's dispatch
   raises, each of its items is dispatched alone, so a failure stays
   with the items whose own dispatch raises,
3. inside the dispatch thread, each item first consults the shared
   on-disk :class:`~repro.experiments.parallel.ResultCache` and claims
   the process-global :data:`~repro.experiments.parallel.SINGLE_FLIGHT`
   for real misses, so the service also deduplicates against CLI
   sweeps running in the same process,
4. computed values publish through the cache's atomic tmp+rename path,
   then resolve every waiting job.  A publish that raises (disk full,
   read-only cache root) only costs the persistence: the value still
   resolves its flight and its jobs, and ``stats()["cache"]
   ["put_errors"]`` counts it.

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
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

from repro.experiments.parallel import (
    SINGLE_FLIGHT,
    ResultCache,
    _flight_key,
)
from repro.service.adapters import (
    WorkItem,
    cpu_lane_stats,
    decompose,
    dispatch_group,
    jsonable,
    pulse_lane_stats,
)
from repro.service.jobs import Job, JobStore

#: (value, served_from_cache) - what an item's shared future resolves to.
ItemResult = Tuple[Any, bool]

#: One item's dispatch outcome: its result, or the exception it fails with.
ItemOutcome = Union[ItemResult, BaseException]


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
        Micro-batch window: how long the first pending item waits for
        strangers before its group dispatches.  ``0`` flushes on the
        next loop tick (dedup without cross-job batching).
    workers:
        Dispatch thread count.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 window_ms: float = 25.0,
                 workers: Optional[int] = None,
                 store: Optional[JobStore] = None) -> None:
        self.cache = cache if cache is not None else ResultCache.from_env()
        self.window_ms = max(0.0, float(window_ms))
        self.workers = workers if workers is not None else default_workers()
        self.store = store if store is not None else JobStore()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[str, "asyncio.Future[ItemResult]"] = {}
        self._pending: Dict[Hashable, List[Tuple[WorkItem, "asyncio.Future[ItemResult]"]]] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._tasks: "set[asyncio.Task[None]]" = set()
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
        on an unknown experiment or bad params (no job is created)."""
        if self._loop is None:
            raise RuntimeError("engine not started (use 'async with' or "
                               "await start())")
        decomposed = decompose(experiment, params)
        job = self.store.create(experiment, dict(params or {}))
        job.items = len(decomposed.items)
        self.item_totals["items"] += job.items
        task = self._loop.create_task(self._run_job(job, decomposed))
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

    async def _run_job(self, job: Job, decomposed: Any) -> None:
        job.start()
        # Count before the transition: whoever sees a terminal job also
        # sees it in the totals.
        try:
            values = await asyncio.gather(
                *(self._resolve_item(job, item) for item in decomposed.items))
            result = jsonable(decomposed.recompose(list(values)))
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

    def _resolve_item(self, job: Job,
                      item: WorkItem) -> "asyncio.Future[Any]":
        digest = item.digest()
        shared = self._inflight.get(digest)
        assert self._loop is not None
        if shared is not None:
            self._tally(job, "coalesced")
            return self._await_shared(shared, count_into=None)
        future: "asyncio.Future[ItemResult]" = self._loop.create_future()
        self._inflight[digest] = future
        self._pending.setdefault(item.group, []).append((item, future))
        self._arm_window()
        return self._await_shared(future, count_into=job)

    async def _await_shared(self, future: "asyncio.Future[ItemResult]",
                            count_into: Optional[Job]) -> Any:
        value, from_cache = await asyncio.shield(future)
        if count_into is not None:
            self._tally(count_into, "cache_hits" if from_cache else "computed")
        return value

    # -- micro-batch window ------------------------------------------------

    def _arm_window(self) -> None:
        if self._flush_handle is not None:
            return
        assert self._loop is not None
        if self.window_ms <= 0:
            self._flush_handle = self._loop.call_soon(  # type: ignore[assignment]
                self._flush)
        else:
            self._flush_handle = self._loop.call_later(
                self.window_ms / 1000.0, self._flush)

    def _flush(self) -> None:
        self._flush_handle = None
        groups, self._pending = self._pending, {}
        assert self._loop is not None
        for entries in groups.values():
            kind = entries[0][0].kind
            self.dispatches += 1
            self.dispatched_items += len(entries)
            self.largest_group = max(self.largest_group, len(entries))
            task = self._loop.create_task(self._run_group(kind, entries))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_group(
            self, kind: str,
            entries: List[Tuple[WorkItem, "asyncio.Future[ItemResult]"]]
    ) -> None:
        assert self._loop is not None and self._pool is not None
        items = [item for item, _ in entries]
        resolved: List[ItemOutcome]
        try:
            resolved = await self._loop.run_in_executor(
                self._pool, self._dispatch_batch, kind, items)
        except BaseException as exc:
            resolved = [exc] * len(entries)
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
                        items: List[WorkItem]) -> List[ItemOutcome]:
        """One coalesced group, on a worker thread.

        Per item: consult the shared cache, claim the process-global
        singleflight for true misses (so a concurrent CLI sweep in this
        process never duplicates our work, and vice versa), compute all
        led misses in one batched dispatch, publish, resolve waiters.
        An item whose own dispatch raises fails alone: its flight and
        its outcome carry the exception, and the rest publish.  A
        publish that fails with an ``OSError`` (disk full, read-only
        root) is counted and its flight still finishes with the value.
        """
        store = self.cache
        if store is None:
            outcomes = _dispatch_isolated(
                kind, [item.payload for item in items])
            return [outcome if isinstance(outcome, BaseException)
                    else (jsonable(outcome), False) for outcome in outcomes]
        resolved: List[Optional[ItemOutcome]] = [None] * len(items)
        led: List[Tuple[int, Any, Any]] = []
        waiting: List[Tuple[int, Any]] = []
        for index, item in enumerate(items):
            found = store.get(item.namespace, item.key)
            if found is not None:
                resolved[index] = (found, True)
                continue
            flight_key = _flight_key(store, item.namespace, item.key)
            leader, flight = SINGLE_FLIGHT.begin(flight_key)
            if leader:
                led.append((index, flight_key, flight))
            else:
                waiting.append((index, flight))
        try:
            # A group can be all hits/waiters (a duplicate burst after
            # its key was published): nothing left to dispatch.
            outcomes = _dispatch_isolated(
                kind, [items[index].payload for index, _, _ in led]) \
                if led else []
        except BaseException as exc:
            for _, flight_key, flight in led:
                SINGLE_FLIGHT.finish(flight_key, flight, exception=exc)
            raise
        for (index, flight_key, flight), outcome in zip(led, outcomes):
            if isinstance(outcome, BaseException):
                SINGLE_FLIGHT.finish(flight_key, flight, exception=outcome)
                resolved[index] = outcome
                continue
            value = jsonable(outcome)
            try:
                store.put(items[index].namespace, items[index].key, value)
            except OSError:  # served uncached, not failed
                with self._put_errors_lock:
                    self.cache_put_errors += 1
            SINGLE_FLIGHT.finish(flight_key, flight, value=value)
            resolved[index] = (value, False)
        for index, flight in waiting:
            try:
                resolved[index] = (SINGLE_FLIGHT.wait(flight), True)
            except Exception as exc:
                resolved[index] = exc
        return [entry if entry is not None else (None, False)
                for entry in resolved]
