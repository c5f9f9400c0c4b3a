"""Job lifecycle and the in-memory job store.

A job is one API request: an experiment name plus parameters.  The
engine decomposes it into unit work items, coalesces those with every
other in-flight job, and recomposes the item results into the job's
artifact.  The store only keeps metadata and the (JSON-able) artifact;
unit results live in the shared on-disk caches.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional


class JobState(str, enum.Enum):
    """Lifecycle: queued -> running -> done | failed."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Job:
    """One submitted request and its (eventual) artifact."""

    id: str
    experiment: str
    params: Dict[str, Any]
    state: JobState = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    result: Any = None
    #: Unit work items the job decomposed into, and how each resolved.
    items: int = 0
    cache_hits: int = 0      # served straight from the on-disk cache
    coalesced: int = 0       # joined another job's in-flight computation
    computed: int = 0        # items this job led (entered the dispatch queue)
    #: Set when the job reaches a terminal state.
    done_event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    #: Called once, on the first transition to a terminal state.
    on_terminal: Optional[Callable[["Job"], None]] = field(
        default=None, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.created

    def start(self) -> None:
        self.state = JobState.RUNNING
        self.started = time.time()

    def finish(self, result: Any) -> None:
        self.result = result
        self._settle(JobState.DONE)

    def fail(self, error: str) -> None:
        self.error = error
        self._settle(JobState.FAILED)

    def _settle(self, state: JobState) -> None:
        first = not self.terminal
        self.state = state
        self.finished = time.time()
        self.done_event.set()
        if first and self.on_terminal is not None:
            self.on_terminal(self)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able status view (the artifact is served separately)."""
        return {
            "id": self.id,
            "experiment": self.experiment,
            "params": self.params,
            "state": self.state.value,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "latency_s": self.latency_s,
            "error": self.error,
            "items": self.items,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
        }


class JobStore:
    """In-memory job registry with a bounded finished-job history.

    Terminal jobs beyond ``max_finished`` are dropped in the order they
    finished, so a long-running service does not grow without bound;
    live jobs are never evicted.  Each job reports its own terminal
    transition, so trimming costs O(1) amortized per job.
    """

    def __init__(self, max_finished: int = 10_000) -> None:
        self._jobs: Dict[str, Job] = {}  # creation order
        self._finished: Deque[str] = deque()  # terminal ids, oldest first
        self.max_finished = max_finished
        self._counter = itertools.count()

    def create(self, experiment: str, params: Dict[str, Any]) -> Job:
        job_id = f"{next(self._counter):06d}-{uuid.uuid4().hex[:10]}"
        job = Job(id=job_id, experiment=experiment, params=params,
                  on_terminal=self._retire)
        self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        return list(self._jobs.values())

    def __len__(self) -> int:
        return len(self._jobs)

    def _retire(self, job: Job) -> None:
        self._finished.append(job.id)
        while len(self._finished) > self.max_finished:
            del self._jobs[self._finished.popleft()]
