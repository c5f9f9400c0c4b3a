"""``service``: an open loop over HTTP against the coalescing service.

The server runs in this process on an asyncio loop the benchmark owns,
configured the way ``python -m repro.service`` configures itself
(default window and workers) on a fresh temporary cache root.  One
generator thread sends the seeded plan (:mod:`perfbench.plan`) as
``POST /jobs`` at each job's due time, one connection at a time.
Completion is observed event-driven, by awaiting ``engine.wait(job)``
on the benchmark's loop, and latency runs from the job's due time, so
a late generator or a stalled server shows up in it.  Results are
fetched over HTTP after the drain and checked against
``run_job_naive`` for a seeded sample of the distinct requests.

This is the only workload that drives the service layer (window,
grouping, singleflight, cache publish, HTTP).  It also drives each
stack differently from the other two: josim at small batch, where
per-step overhead dominates; CPU design-union replay; pulse at L=1 and
in small coalesced lane batches.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Coroutine, Dict, List, Optional

from perfbench.common import Workload
from perfbench.figure14 import count_replay, cpu_layer_metrics
from perfbench.montecarlo import count_solver, install_josim_tracing, josim_layer_metrics
from perfbench.plan import PlannedJob, build_plan, duplicate_ratio, warmup_requests
from perfbench.spans import Patches, traced, traced_context
from perfbench.stats import Outcome, goodput, median, percentile, tail_percentile

#: Arrival rate; with a 30 s arrival phase that is 132 jobs, so the
#: 90th percentile has 13 samples beyond it.
RATE_PER_S = 4.4
#: Goodput counts jobs that finished correct within this latency.
LATENCY_LIMIT_S = 2.0
#: How long after the last arrival unfinished jobs may still finish.
DRAIN_S = 60.0
#: Distinct requests per job kind re-run through ``run_job_naive``.
VERIFY_PER_KIND = 6
KINDS = ("pulse_rf", "figure14", "margins", "figure15")


class _Loop:
    """An asyncio loop in a thread the benchmark owns."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever,
                                        name="perfbench-loop", daemon=True)
        self._thread.start()

    def submit(self, coro: Coroutine[Any, Any, Any]
               ) -> "concurrent.futures.Future[Any]":
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def call(self, coro: Coroutine[Any, Any, Any], timeout: float) -> Any:
        return self.submit(coro).result(timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        if not self._thread.is_alive():
            self.loop.close()


class _Service:
    """One ``ServiceServer`` on a fresh cache root under ``workdir``."""

    def __init__(self, loop: _Loop, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="service-cache-",
                                          dir=workdir))
        self._loop = loop
        self.server = loop.call(self._start(), timeout=60)
        from repro.service import ServiceClient

        self.client = ServiceClient(self.server.host, self.server.port,
                                    timeout=120)

    async def _start(self) -> Any:
        from repro.experiments.parallel import ResultCache
        from repro.service.__main__ import build_parser
        from repro.service.engine import CoalescingEngine
        from repro.service.server import ServiceServer

        args = build_parser().parse_args(
            ["--host", "127.0.0.1", "--port", "0", "--cache-dir",
             str(self.root)])
        cache = ResultCache(args.cache_dir, max_bytes=args.cache_max_bytes)
        engine = CoalescingEngine(cache=cache, window_ms=args.window_ms,
                                  workers=args.workers)
        server = ServiceServer(engine, host=args.host, port=args.port)
        await server.start()
        return server

    @property
    def engine(self) -> Any:
        return self.server.engine

    async def _completion(self, job_id: str) -> float:
        job = self.engine.store.get(job_id)
        if job is None:
            raise LookupError(f"service has no job {job_id!r}")
        await self.engine.wait(job)
        return time.perf_counter()

    def watch(self, job_id: str) -> "concurrent.futures.Future[float]":
        """Future resolving to the ``perf_counter`` at completion."""
        return self._loop.submit(self._completion(job_id))

    async def _stats(self) -> Dict[str, Any]:
        return self.engine.stats()

    def counters(self) -> Dict[str, float]:
        """The engine's numeric top-level counters, read on its loop."""
        stats = self._loop.call(self._stats(), timeout=60)
        return {k: v for k, v in stats.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)}

    def close(self) -> None:
        try:
            self._loop.call(self.server.close(), timeout=60)
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class _Sent:
    planned: PlannedJob
    due: float
    lag_s: float
    outcome: Outcome
    job_id: Optional[str] = None
    done: Optional["concurrent.futures.Future[float]"] = None
    artifact: Any = None
    state: str = "unsent"


@dataclass
class _Phase:
    """One pass of a plan against one service."""

    sent: List[_Sent] = field(default_factory=list)
    arrival_s: float = 0.0
    backlog: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)


def _kind_p50(phase: _Phase, kind: str) -> float:
    done = [s.outcome.latency_s for s in phase.sent
            if s.planned.experiment == kind and s.outcome.latency_s is not None]
    return median(done) if done else float("nan")


class Service(Workload):
    name = "service"
    work_unit = "jobs finished correct within the latency limit"

    def setup(self) -> None:
        import repro.service  # noqa: F401  (imports belong in set-up)
        from repro.pulse.cache import DEFAULT_CACHE

        self._netlists = DEFAULT_CACHE
        jobs = round(RATE_PER_S * self.seconds)
        if self.trace:
            # Untraced then traced half, each on its own fresh service.
            half = self.seconds / 2.0
            self.plan = build_plan(self.seed, half, jobs // 2)
            self.traced_plan = build_plan(self.seed + 1, half, jobs // 2)
        else:
            self.plan = build_plan(self.seed, self.seconds, jobs)
        self._loop = _Loop()
        self._services: List[_Service] = []
        service = self._fresh_service()
        for experiment, params in warmup_requests():
            job_id = service.client.submit(experiment, params)["id"]
            service.watch(job_id).result(timeout=120)
            envelope = service.client.result(job_id)
            if envelope["state"] != "done":
                raise RuntimeError(f"warm-up {experiment} failed: "
                                   f"{envelope['error']}")
        self._submits: List[float] = []
        self._flushes: List[float] = []

    def _fresh_service(self) -> _Service:
        service = _Service(self._loop, self.workdir / "tmp")
        self._services.append(service)
        return service

    # -- the open loop --------------------------------------------------------------

    def _drive(self, service: _Service, plan: List[PlannedJob]) -> _Phase:
        from repro.service import ServiceError

        phase = _Phase()
        counters = service.counters()
        start = time.perf_counter()
        for planned in plan:
            due = start + planned.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = _Sent(planned, due, time.perf_counter() - due,
                         Outcome(planned.experiment, None))
            phase.sent.append(sent)
            try:
                sent.job_id = service.client.submit(planned.experiment,
                                                    planned.params)["id"]
            except ServiceError as exc:
                sent.state = f"refused: {exc}"
                continue
            sent.done = service.watch(sent.job_id)
        phase.arrival_s = time.perf_counter() - start
        waiting = [s.done for s in phase.sent if s.done is not None]
        phase.backlog = sum(1 for done in waiting if not done.done())
        concurrent.futures.wait(waiting, timeout=DRAIN_S)
        for sent in phase.sent:
            if sent.done is None:
                continue
            if sent.done.done() and sent.done.exception() is None:
                sent.outcome.latency_s = sent.done.result() - sent.due
            else:
                sent.done.cancel()
                sent.state = "unfinished"
                continue
            try:
                envelope = service.client.result(sent.job_id or "")
            except ServiceError as exc:
                sent.state = f"fetch failed: {exc}"
                continue
            sent.state = envelope["state"]
            sent.artifact = envelope["result"]
        phase.stats = {k: v - counters.get(k, 0)
                       for k, v in service.counters().items()}
        return phase

    def measure(self) -> None:
        self._phase = self._drive(self._services[0], self.plan)
        self.outcomes = [s.outcome for s in self._phase.sent]
        if not self.trace:
            return
        service = self._fresh_service()
        patches = Patches()
        hits, misses = self._netlists.hits, self._netlists.misses
        try:
            self.install_service_tracing(patches, service)
            self._traced_phase = self._drive(service, self.traced_plan)
        finally:
            patches.restore()
        self._netlist_lookups = (self._netlists.hits - hits,
                                 self._netlists.misses - misses)
        self.traced_outcomes = [s.outcome for s in self._traced_phase.sent]
        self._stats_s = self._time_stats(service)

    @staticmethod
    def _time_stats(service: _Service) -> float:
        spent = []
        for _ in range(5):
            start = time.perf_counter()
            service.client.stats()
            spent.append(time.perf_counter() - start)
        return statistics.median(spent)

    # -- verification ----------------------------------------------------------------

    def verify(self) -> None:
        from repro.service import run_job_naive
        from repro.service.adapters import jsonable

        phases = [self._phase]
        if self.trace:
            phases.append(self._traced_phase)
        sent = [s for phase in phases for s in phase.sent]
        artifacts: Dict[str, set] = {}
        for s in sent:
            if s.state == "done":
                artifacts.setdefault(s.planned.request_key, set()).add(
                    json.dumps(s.artifact, sort_keys=True))
        # A seeded sample of distinct requests per kind, recomputed alone.
        rng = random.Random(self.seed)
        expected: Dict[str, str] = {}
        for kind in KINDS:
            keys = sorted(k for k in artifacts if json.loads(k)[0] == kind)
            for key in rng.sample(keys, min(VERIFY_PER_KIND, len(keys))):
                experiment, params = json.loads(key)
                expected[key] = json.dumps(
                    jsonable(run_job_naive(experiment, params)),
                    sort_keys=True)
        for s in sent:
            key = s.planned.request_key
            seen = artifacts.get(key, set())
            s.outcome.ok = (s.outcome.finished and s.state == "done"
                            and len(seen) == 1
                            and expected.get(key, next(iter(seen))) in seen)
        self.report["verified_distinct_requests"] = len(expected)
        self.report["duplicate_ratio"] = round(duplicate_ratio(self.plan), 4)

    # -- metrics ---------------------------------------------------------------------

    def work_per_s(self) -> float:
        """``goodput_per_s``: jobs that finished correct within
        :data:`LATENCY_LIMIT_S`, per second of the arrival phase."""
        return goodput(self.outcomes, LATENCY_LIMIT_S, self._phase.arrival_s)

    def describe(self) -> Dict[str, Any]:
        """Open-loop figures of the untraced pass, for the report."""
        phase = self._phase
        done = [s.outcome.latency_s for s in phase.sent
                if s.outcome.latency_s is not None]
        per_kind = {kind: _kind_p50(phase, kind) for kind in KINDS}
        stats = phase.stats
        return {
            "jobs": len(phase.sent),
            "op_p90_s": tail_percentile(done, 90) if done else None,
            "goodput_per_s": self.work_per_s(),
            "latency_limit_s": LATENCY_LIMIT_S,
            "job_p50_s": per_kind,
            "loadgen_lag_p90_s": percentile([s.lag_s for s in phase.sent], 90),
            "loadgen_backlog": phase.backlog,
            "dispatches": stats.get("dispatches"),
            "items": stats.get("items"),
            "item_cache_hits": stats.get("item_cache_hits"),
            "item_coalesced": stats.get("item_coalesced"),
            "item_computed": stats.get("item_computed"),
        }

    def install_service_tracing(self, patches: Patches,
                                service: _Service) -> None:
        import repro.isa
        import repro.pulse
        from repro.cpu import OpTape
        from repro.cpu import batched as cpu_batched
        from repro.cpu import simulator as cpu_simulator
        from repro.isa.executor import Executor
        from repro.josim import testbench
        from repro.josim.solver import BatchedTransientSolver
        from repro.pulse.engine import Engine
        from repro.rf.netlist import PulseHiPerRF
        from repro.service import adapters

        tracer = self.tracer
        assert tracer is not None
        engine = service.engine
        for kind, dispatcher in list(adapters.DISPATCHERS.items()):
            patches.set_item(adapters.DISPATCHERS, kind, traced(
                tracer, f"service.dispatch.{kind}", dispatcher))
        patches.set(engine, "submit", traced(
            tracer, "service.submit", engine.submit,
            after=lambda *_: self._submits.append(time.perf_counter())))
        if hasattr(engine, "_flush"):  # window close: no public hook
            flush = engine._flush

            def traced_flush() -> None:
                self._flushes.append(time.perf_counter())
                flush()

            patches.set(engine, "_flush", traced_flush)
        cache = engine.cache
        patches.set(cache, "get", traced(tracer, "cache.get", cache.get))
        patches.set(cache, "put", traced(tracer, "cache.put", cache.put))

        patches.set(PulseHiPerRF, "checkout_cached", staticmethod(
            traced_context(tracer, "pulse.checkout",
                           PulseHiPerRF.checkout_cached, whole_body=False)))
        patches.set(repro.pulse, "capture_stimulus", traced_context(
            tracer, "pulse.capture", repro.pulse.capture_stimulus,
            whole_body=True))

        def count_lanes(args: tuple, kwargs: dict, outcomes: Any) -> None:
            tracer.count("pulse.dispatches")
            tracer.count("pulse.lanes", len(outcomes))
            tracer.count("pulse.events", sum(o.delivered for o in outcomes))

        patches.set(Engine, "run_lanes", traced(
            tracer, "pulse.run_lanes", Engine.run_lanes, after=count_lanes))

        install_josim_tracing(tracer, patches)
        patches.set(testbench, "run_hcdro_batch", traced(
            tracer, "josim.build", testbench.run_hcdro_batch))
        patches.set(testbench, "BatchedTransientSolver", traced(
            tracer, "josim.compile", BatchedTransientSolver,
            after=count_solver(tracer)))

        patches.set(repro.isa, "assemble", traced(
            tracer, "isa.assemble", repro.isa.assemble))
        trace = Executor.trace

        def traced_trace(executor: Any, *args: Any, **kwargs: Any) -> Any:
            # Run the generator to the end inside the span, so execution
            # is not charged to the tape lowering that consumes it.
            with tracer.span("isa.execute"):
                ops = list(trace(executor, *args, **kwargs))
            return iter(ops)

        patches.set(Executor, "trace", traced_trace)
        patches.set(OpTape, "from_ops", classmethod(traced(
            tracer, "cpu.lower", vars(OpTape)["from_ops"].__func__)))
        patches.set(cpu_batched, "design_tables", traced(
            tracer, "cpu.tables", cpu_batched.design_tables))

        patches.set(cpu_simulator, "replay_lanes", traced(
            tracer, "cpu.replay", cpu_simulator.replay_lanes,
            after=lambda args, kwargs, results: count_replay(
                tracer, args[0], results)))

    def layer_metrics(self) -> Dict[str, float]:
        tracer = self.tracer
        assert tracer is not None
        phase = self._traced_phase
        jobs = max(1, len(phase.sent))

        def per_job(name: str) -> float:
            return tracer.self_time(name) / jobs

        metrics = cpu_layer_metrics(tracer, jobs)
        metrics.update(josim_layer_metrics(tracer, jobs))
        lanes = tracer.counters["pulse.lanes"]
        dispatches = tracer.counters["pulse.dispatches"]
        hits, misses = self._netlist_lookups
        metrics.update({
            "pulse.checkout_s": per_job("pulse.checkout"),
            "pulse.capture_s": per_job("pulse.capture"),
            "pulse.run_lanes_s": per_job("pulse.run_lanes"),
            "pulse.events_per_lane": (tracer.counters["pulse.events"] / lanes
                                      if lanes else 0.0),
            "pulse.lanes_per_dispatch": lanes / dispatches if dispatches else 0.0,
            "pulse.netlist_hit_ratio": (hits / (hits + misses)
                                        if hits + misses else 0.0),
            "cache.get_s": per_job("cache.get"),
            "cache.put_s": per_job("cache.put"),
        })
        stats = phase.stats
        items = stats["items"] or 1
        metrics.update({
            "service.submit_s": per_job("service.submit"),
            "service.window_wait_s": self._window_wait_s(),
            "service.items_per_dispatch": (stats["dispatched_items"]
                                           / stats["dispatches"]
                                           if stats["dispatches"] else 0.0),
            "service.coalesced_ratio": stats["item_coalesced"] / items,
            "service.cache_hit_ratio": stats["item_cache_hits"] / items,
            "service.computed_ratio": stats["item_computed"] / items,
            "service.stats_s": self._stats_s,
        })
        for kind in ("hcdro", "cpu", "pulse", "call"):
            metrics[f"service.dispatch.{kind}_s"] = per_job(
                f"service.dispatch.{kind}")
        for kind in KINDS:
            metrics[f"service.job.{kind}_p50_s"] = _kind_p50(phase, kind)
        lags = [s.lag_s for p in (self._phase, phase) for s in p.sent]
        metrics["loadgen.lag_p90_s"] = percentile(lags, 90)
        metrics["loadgen.backlog"] = float(phase.backlog)
        return metrics

    def _window_wait_s(self) -> float:
        """Mean time from a job's submit to the next window close."""
        if not self._flushes:
            return 0.0
        flushes = sorted(self._flushes)
        waits = []
        for submitted in self._submits:
            later = [f for f in flushes if f >= submitted]
            if later:
                waits.append(later[0] - submitted)
        return sum(waits) / len(waits) if waits else 0.0

    def close(self) -> None:
        for service in getattr(self, "_services", []):
            service.close()
        if hasattr(self, "_loop"):
            self._loop.close()
