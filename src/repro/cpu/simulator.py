"""Glue: assemble, functionally execute, and time a program on a design."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.cpu.batched import lanes_for_designs, replay_lanes
from repro.cpu.compiled import replay_tape
from repro.cpu.config import CoreConfig
from repro.cpu.optape import OpTape, TraceCacheLike, tape_for_program
from repro.cpu.pipeline import GateLevelPipeline
from repro.cpu.rf_model import RF_DESIGN_NAMES, RFTimingModel
from repro.cpu.stats import CpiReport
from repro.errors import ExecutionError
from repro.isa.assembler import Program, assemble
from repro.isa.executor import ExecutedOp, Executor, HaltReason


class CpuSimulator:
    """Run one program on one register file design.

    The functional executor produces the retirement stream once; the
    gate-level pipeline then replays it under the selected design's RF
    timing.  (The paper's simulator does both in one pass; splitting them
    is equivalent for an in-order core because the instruction stream
    does not depend on timing.)

    ``run_program``/``run_trace`` use the reference pipeline (the
    equivalence oracle); ``run_tape`` and :func:`simulate_program`
    replay op tapes on the compiled loop.
    """

    def __init__(self, design: str = "ndro_rf",
                 config: Optional[CoreConfig] = None) -> None:
        self.config = config or CoreConfig()
        self.rf = RFTimingModel.for_design(design, self.config)
        self.design = design

    def run_program(self, program: Program, workload_name: str = "program",
                    max_instructions: int = 2_000_000,
                    expect_exit_code: Optional[int] = None) -> CpiReport:
        executor = Executor(program)
        pipeline = GateLevelPipeline(self.rf, self.config)
        for op in executor.trace(max_instructions=max_instructions):
            pipeline.feed(op)
        if executor.halt_reason is HaltReason.INSTRUCTION_LIMIT:
            raise ExecutionError(
                f"{workload_name}: hit the {max_instructions}-instruction "
                "limit without exiting")
        if expect_exit_code is not None \
                and executor.exit_code != expect_exit_code:
            raise ExecutionError(
                f"{workload_name}: exit code {executor.exit_code} != "
                f"expected {expect_exit_code} (functional bug)")
        return CpiReport.from_result(workload_name, pipeline.result(),
                                     exit_code=executor.exit_code)

    def run_source(self, source: str, workload_name: str = "program",
                   **kwargs) -> CpiReport:
        return self.run_program(assemble(source), workload_name, **kwargs)

    def run_trace(self, ops: Iterable[ExecutedOp],
                  workload_name: str = "trace",
                  max_instructions: int = 2_000_000) -> CpiReport:
        """Time a pre-recorded retirement stream.

        Enforces the same instruction cap ``run_program`` applies to a
        live functional pass: a trace longer than ``max_instructions``
        raises :class:`~repro.errors.ExecutionError`, so pre-recorded
        replays cannot silently diverge from the figure sweeps' contract.
        """
        pipeline = GateLevelPipeline(self.rf, self.config)
        fed = 0
        for op in ops:
            if fed >= max_instructions:
                raise ExecutionError(
                    f"{workload_name}: trace exceeds the "
                    f"{max_instructions}-instruction limit")
            pipeline.feed(op)
            fed += 1
        return CpiReport.from_result(workload_name, pipeline.result())

    def run_tape(self, tape: OpTape, workload_name: str = "tape") -> CpiReport:
        """Replay a lowered op tape on the compiled loop."""
        result = replay_tape(tape, self.rf, self.config)
        return CpiReport.from_result(workload_name, result,
                                     exit_code=tape.exit_code)


def simulate_program(program: Program, designs: Sequence[str] = RF_DESIGN_NAMES,
                     workload_name: str = "program",
                     config: Optional[CoreConfig] = None,
                     max_instructions: int = 2_000_000,
                     trace_cache: TraceCacheLike = None
                     ) -> Dict[str, CpiReport]:
    """Run one program across several designs, reusing one op tape.

    The functional pass is lowered once into an
    :class:`~repro.cpu.optape.OpTape`; the design set then replays as
    one lane set through :func:`repro.cpu.batched.replay_lanes` - only
    the per-design timing tables change between lanes.  ``trace_cache``
    (a :class:`~repro.cpu.optape.TraceCache`, a directory path, or
    ``None`` for ``REPRO_CACHE_DIR``) persists the tape, so a rerun - or
    the same sweep over additional designs - skips the functional pass
    entirely.
    """
    config = config or CoreConfig()
    tape = tape_for_program(program, max_instructions=max_instructions,
                            num_registers=config.num_registers,
                            cache=trace_cache, workload_name=workload_name)
    lanes = lanes_for_designs(designs, config)
    return {design: CpiReport.from_result(workload_name, result,
                                          exit_code=tape.exit_code)
            for design, result in zip(designs, replay_lanes(tape, lanes))}
