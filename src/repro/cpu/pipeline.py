"""The gate-level pipeline timing engine.

Consumes the functional executor's retirement stream and computes, per
instruction, when it issues to the register file, when its operands are
at the ALU, when execution completes and when write-back lands - all in
28 ps gate cycles, under the constraints of:

* the static RF port schedule of the selected design (issue gaps),
* read-after-write dependencies through the 28-stage execute block
  (with or without the baseline's internal RF forwarding),
* loopback occupancy: in HiPerRF designs a just-read register stays
  unreadable until its loopback write lands (the Section IV-D hazard),
* taken-branch front-end redirects and the 77 K memory latency.

The engine attributes every stalled cycle to one cause so Figure 14's
CPI overheads can be decomposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cpu.config import CoreConfig
from repro.cpu.rf_model import RFTimingModel
from repro.errors import ExecutionError
from repro.isa.executor import ExecutedOp


@dataclass
class StallBreakdown:
    """Gate cycles lost to each stall cause, plus useful-issue cycles."""

    port: int = 0
    raw: int = 0
    loopback: int = 0
    branch: int = 0

    def total(self) -> int:
        return self.port + self.raw + self.loopback + self.branch

    def as_dict(self) -> Dict[str, int]:
        return {"port": self.port, "raw": self.raw,
                "loopback": self.loopback, "branch": self.branch}


@dataclass
class PipelineResult:
    """Outcome of a timing run."""

    design: str
    instructions: int
    total_cycles: int
    stalls: StallBreakdown
    branches_taken: int = 0
    loads: int = 0

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.total_cycles / self.instructions


class GateLevelPipeline:
    """In-order gate-pipelined timing model for one RF design.

    ``memory_model`` (optional, from :mod:`repro.mem`) replaces the flat
    77 K ``memory_latency`` with a per-access latency - e.g. a
    direct-mapped cryo buffer; ``None`` keeps the paper's flat model.
    """

    def __init__(self, rf: RFTimingModel,
                 config: Optional[CoreConfig] = None,
                 memory_model=None) -> None:
        self.rf = rf
        self.config = config or CoreConfig()
        self.memory_model = memory_model
        # Per-register availability (gate cycle at which a read may start)
        # and whether the loopback (rather than a write-back) set it -
        # fixed-size arrays indexed by architectural register number.
        self._ready_at: List[int] = [0] * self.config.num_registers
        self._ready_loopback: List[bool] = [False] * self.config.num_registers
        self._next_issue_ok = 0
        self._front_end_ready = 0
        self._stalls = StallBreakdown()
        self._instructions = 0
        self._last_completion = 0
        self._branches_taken = 0
        self._loads = 0

    # -- per-instruction timing -------------------------------------------

    def _check_register(self, index: int) -> int:
        """Validate one architectural register index against the config."""
        if not 0 <= index < self.config.num_registers:
            raise ExecutionError(
                f"register index {index} out of range for a "
                f"{self.config.num_registers}-register file")
        return index

    def feed(self, op: ExecutedOp) -> int:
        """Account one retired instruction; returns its issue cycle."""
        config = self.config
        rf = self.rf
        sources = tuple(dict.fromkeys(op.sources))  # RAR dedup, order kept
        for src in sources:
            self._check_register(src)
        if op.destination is not None:
            self._check_register(op.destination)
        slots = rf.read_slots_gates(sources)
        issue_gap = rf.issue_gap_gates(sources, op.destination)

        # Constraint 1: the RF ports free up per the static schedule.
        t_port = self._next_issue_ok
        # Constraint 2: a taken branch re-steers the front end.
        t_front = self._front_end_ready
        # Constraint 3: every source must be readable when its read fires.
        # The paper's model charges dependencies through the readout delay
        # alone (Section VI-B); the static schedule's intra-instruction
        # slot offsets are port-occupancy bookkeeping, so reads are
        # anchored at issue here.
        t_dep = 0
        dep_loopback = False
        for src in sources:
            ready = self._ready_at[src]
            if ready > t_dep:
                t_dep = ready
                dep_loopback = self._ready_loopback[src]

        t_issue = max(t_port, t_front, t_dep)

        # Attribute the visible stall beyond the port-schedule baseline.
        if t_issue > t_port:
            lost = t_issue - t_port
            if t_dep >= t_front:
                if dep_loopback:
                    self._stalls.loopback += lost
                else:
                    self._stalls.raw += lost
            else:
                self._stalls.branch += lost
        self._stalls.port += issue_gap

        # Reads happen; loopback keeps each read register busy until the
        # recycled value has landed back in its cells (Section IV-D).
        if rf.has_loopback:
            busy_until = t_issue + rf.loopback_busy_gates()
            for src in sources:
                if busy_until > self._ready_at[src]:
                    self._ready_at[src] = busy_until
                    self._ready_loopback[src] = True

        # Operand arrival -> execute -> write-back.  A same-bank source
        # pair serialises its second read two RF cycles later (Figure 12);
        # that offset survives into the operand path.
        if sources:
            extra = max(slots) - min(slots) if len(slots) > 1 else 0
            operands_done = t_issue + extra + rf.readout_cycles
        else:
            operands_done = t_issue + rf.rf_cycle_gates
        exec_done = operands_done + config.execute_depth
        if op.is_load:
            if self.memory_model is not None:
                exec_done += self.memory_model.access(op.mem_address,
                                                      is_store=False)
            else:
                exec_done += config.memory_latency
            self._loads += 1
        elif op.is_store and self.memory_model is not None:
            # Write-through fill; stores do not stall the in-order flow.
            self.memory_model.access(op.mem_address, is_store=True)
        writeback = exec_done + config.writeback_depth

        if op.destination is not None:
            # Readable at write-back: the baseline forwards internally
            # (Section III-E), and HiPerRF's lack of forwarding (Section
            # IV-D) is already carried by its static issue pattern.
            self._ready_at[op.destination] = writeback
            self._ready_loopback[op.destination] = False

        if op.branch_taken or (op.instr.is_branch
                               and not config.fall_through_speculation):
            self._front_end_ready = exec_done + config.branch_redirect_penalty
            self._branches_taken += 1

        self._next_issue_ok = t_issue + issue_gap
        self._instructions += 1
        self._last_completion = max(self._last_completion, writeback)
        return t_issue

    def run(self, ops: Iterable[ExecutedOp]) -> PipelineResult:
        """Feed a whole retirement stream and summarise."""
        for op in ops:
            self.feed(op)
        return self.result()

    def result(self) -> PipelineResult:
        return PipelineResult(
            design=self.rf.name,
            instructions=self._instructions,
            total_cycles=self._last_completion,
            stalls=self._stalls,
            branches_taken=self._branches_taken,
            loads=self._loads,
        )
