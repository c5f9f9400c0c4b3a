"""Coalescing simulation service: batch strangers' requests together.

All three simulation stacks have compiled/batched fast tiers with
on-disk caches, but every experiment run still pays its own dispatch -
two users asking for overlapping Figure 14 sweeps or margin grids each
rebuild op tapes and launch separate solver batches.  This package
turns the experiment runners into a long-running asyncio job service
(stdlib only: ``asyncio`` + JSON over HTTP) whose perf core is a
**coalescing scheduler**:

* incoming jobs decompose into unit :class:`~repro.service.adapters.
  WorkItem`\\ s keyed exactly like the existing on-disk caches
  (``ResultCache`` namespaces/keys - the cache key *is* the API
  contract),
* a short micro-batch window groups pending analog items by
  ``topology_key`` so strangers' lanes join one
  :func:`~repro.josim.testbench.run_hcdro_batch` dispatch, and
  groups CPU items by program so strangers' designs replay one shared
  op tape,
* identical in-flight keys collapse (singleflight): duplicate requests
  cost one computation,
* results publish through the existing atomic cache paths and are
  served straight from the cache on every later request.

Entry points: :class:`~repro.service.engine.CoalescingEngine` (embed),
:class:`~repro.service.server.ServiceServer` / ``python -m
repro.service`` (HTTP), :class:`~repro.service.client.ServiceClient`
(poll from another process).
"""

from repro.service.adapters import SUPPORTED_EXPERIMENTS, WorkItem, run_job_naive
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import CoalescingEngine
from repro.service.jobs import Job, JobState, JobStore
from repro.service.server import ServiceServer, ServiceThread

__all__ = [
    "CoalescingEngine",
    "Job",
    "JobState",
    "JobStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceThread",
    "SUPPORTED_EXPERIMENTS",
    "WorkItem",
    "run_job_naive",
]
