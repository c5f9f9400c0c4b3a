"""Pipeline waterfall: per-instruction timing visualisation.

A recording variant of the timing engine that keeps each instruction's
issue / operands-ready / execute-done / write-back times, plus an ASCII
waterfall renderer - the debugging view behind the Figure 14 numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.cpu.config import CoreConfig
from repro.cpu.pipeline import GateLevelPipeline
from repro.cpu.rf_model import RFTimingModel
from repro.isa.disassembler import format_instruction
from repro.isa.executor import ExecutedOp


@dataclass(frozen=True)
class InstructionTiming:
    """The four timing anchors of one instruction's flow."""

    index: int
    text: str
    issue: int
    operands_ready: int
    execute_done: int
    writeback: int

    @property
    def span(self) -> int:
        return self.writeback - self.issue


class RecordingPipeline(GateLevelPipeline):
    """GateLevelPipeline that also records per-instruction anchors."""

    def __init__(self, rf: RFTimingModel,
                 config: Optional[CoreConfig] = None) -> None:
        super().__init__(rf, config)
        self.records: List[InstructionTiming] = []

    def feed(self, op: ExecutedOp) -> int:
        t_issue = super().feed(op)
        # Reconstruct the anchors the parent computed (same formulas).
        rf = self.rf
        config = self.config
        sources = tuple(dict.fromkeys(op.sources))
        slots = rf.read_slots_gates(sources)
        if sources:
            extra = max(slots) - min(slots) if len(slots) > 1 else 0
            operands = t_issue + extra + rf.readout_cycles
        else:
            operands = t_issue + rf.rf_cycle_gates
        exec_done = operands + config.execute_depth
        if op.is_load:
            exec_done += config.memory_latency
        writeback = exec_done + config.writeback_depth
        self.records.append(InstructionTiming(
            index=len(self.records),
            text=format_instruction(op.instr),
            issue=t_issue,
            operands_ready=operands,
            execute_done=exec_done,
            writeback=writeback,
        ))
        return t_issue


def record_timeline(ops: Iterable[ExecutedOp], design: str = "hiperrf",
                    config: Optional[CoreConfig] = None,
                    limit: int = 64) -> List[InstructionTiming]:
    """Time a stream and return the first ``limit`` instruction records."""
    config = config or CoreConfig()
    pipeline = RecordingPipeline(RFTimingModel.for_design(design, config),
                                 config)
    for op in ops:
        pipeline.feed(op)
        if len(pipeline.records) >= limit:
            break
    return pipeline.records


def render_waterfall(records: List[InstructionTiming],
                     width: int = 72) -> str:
    """ASCII waterfall: issue->operands (r), execute (E), write-back (W)."""
    if not records:
        return "(empty timeline)"
    start = records[0].issue
    end = max(r.writeback for r in records)
    span = max(end - start, 1)
    scale = width / span
    lines = [f"gate cycles {start}..{end} "
             f"(one column ~ {1 / scale:.1f} cycles)"]
    for record in records:
        def col(cycle: int) -> int:
            return min(int((cycle - start) * scale), width - 1)

        row = [" "] * width
        for position in range(col(record.issue), col(record.operands_ready)):
            row[position] = "r"
        for position in range(col(record.operands_ready),
                              col(record.execute_done)):
            row[position] = "E"
        row[col(record.writeback) - 1 if col(record.writeback) > 0 else 0] = "W"
        lines.append(f"{record.index:>4d} {record.text:<24.24s} "
                     f"|{''.join(row)}|")
    return "\n".join(lines)
