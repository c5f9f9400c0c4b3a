"""What every workload shares: the closed loop and the metric roll-up."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from perfbench.host import PROBE_REF_S, HostProbe
from perfbench.spans import Patches, Tracer
from perfbench.stats import Outcome, median, ok_count


class Workload:
    """One workload: set up, run the timed phase, verify, report.

    ``outcomes`` holds the gated ops (latency and verification verdict);
    in a traced run those are the untraced ops and ``traced_outcomes``
    the traced ones, interleaved in time so both see the same host
    phases.
    """

    name = ""
    #: Simulated work one op completes, and its unit (for the report).
    work_unit = ""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> None:
        self.seed = seed
        #: Scratch space inside the checkout (temporary cache roots).
        self.workdir = workdir
        self.seconds = seconds
        self.trace = trace
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.outcomes: List[Outcome] = []
        self.traced_outcomes: List[Outcome] = []
        self.report: Dict[str, Any] = {}
        self.probe = HostProbe()
        self.host_factors: List[float] = []

    # -- lifecycle, overridden per workload ----------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def work_per_s(self) -> float:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """Workload figures for the report (not gated)."""
        return {}

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the traced ops (trace mode only)."""
        return {}

    def close(self) -> None:
        """Stop threads and delete temporary state."""

    # -- shared ---------------------------------------------------------------

    def attempted(self) -> int:
        return len(self.outcomes)

    def ok(self) -> int:
        return ok_count(self.outcomes)

    def op_p50_s(self, outcomes: Optional[List[Outcome]] = None) -> float:
        """Median gated latency (reference speed for closed loops)."""
        done = [o.gated_s for o in (self.outcomes if outcomes is None
                                    else outcomes)
                if o.gated_s is not None]
        return median(done) if done else float("nan")

    def tracing_overhead_s(self) -> float:
        """Traced minus untraced median op latency, same run."""
        if not self.traced_outcomes:
            return float("nan")
        return self.op_p50_s(self.traced_outcomes) - self.op_p50_s()

    def closed_reference_work_per_s(self, work_per_op: float) -> float:
        """Verified work per reference-speed second of the timed ops."""
        spent = sum(o.ref_s for o in self.outcomes if o.ref_s is not None)
        return self.ok() * work_per_op / spent if spent else 0.0

    def closed_host_figures(self, work_per_op: float) -> Dict[str, Any]:
        """The same figures in raw host time, for the report."""
        host = [o.latency_s for o in self.outcomes if o.latency_s is not None]
        return {
            "op_p50_host_s": median(host) if host else None,
            "work_per_host_s": (self.ok() * work_per_op / sum(host)
                                if host else None),
            "host_factor_median": (median(self.host_factors)
                                   if self.host_factors else None),
        }

    def closed_loop(self, op: Callable[[bool], Any],
                    record: Callable[[Outcome, Any], None]) -> None:
        """One client: run ``op(traced)`` back to back for the run time.

        The composite host-speed probe runs before the first op and
        after every op; an op's host factor is the mean of the probes
        around it over :data:`~perfbench.host.PROBE_REF_S`, and its
        reference-speed latency is its host latency divided by that
        factor.  Host phases that slow the machine by half for tens of
        seconds then cancel out instead of deciding the run's median.

        An op starts only while the median op-plus-probe so far still
        fits before the deadline, so runs end close to ``seconds``
        however long an op is.  In trace mode ops alternate untraced /
        traced.  An op that raises is recorded as failed and ends the
        loop.
        """
        patches = Patches()
        spent: List[float] = []
        deadline = time.perf_counter() + self.seconds
        index = 0
        installed = False
        before = self.probe.composite()
        try:
            while not spent or time.perf_counter() + median(spent) <= deadline:
                traced = self.trace and index % 2 == 1
                if traced != installed:
                    if traced:
                        self.install_tracing(patches)
                    else:
                        patches.restore()
                    installed = traced
                bucket = self.traced_outcomes if traced else self.outcomes
                op_start = time.perf_counter()
                try:
                    result = op(traced)
                except Exception as exc:  # the op failed: record, stop
                    bucket.append(Outcome(self.name, None))
                    self.report["error"] = f"{type(exc).__name__}: {exc}"
                    break
                latency = time.perf_counter() - op_start
                after = self.probe.composite()
                factor = (before + after) / (2.0 * PROBE_REF_S)
                before = after
                self.host_factors.append(factor)
                outcome = Outcome(self.name, latency, ref_s=latency / factor)
                bucket.append(outcome)
                record(outcome, result)
                spent.append(time.perf_counter() - op_start)
                index += 1
        finally:
            patches.restore()

    def install_tracing(self, patches: Patches) -> None:
        """Swap the program's entry points for traced wrappers."""
