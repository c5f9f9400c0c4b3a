"""``figure14``: cold Figure 14 sweeps in a closed loop with one client.

One op is ``figure14.run(scale=1.0, designs=RF_DESIGN_NAMES,
workers=1)`` with no result or tape cache: 12 programs, 74,228 retired
instructions, replayed across the 4 register-file designs.  It is the
paper's headline artifact; ``repro.isa`` and ``repro.cpu`` do nearly
all the work and josim, pulse and the service do none.

Set-up runs one untimed sweep, which fills the in-process memos
(per-tape statics and per-design timing tables) a long-running process
keeps.  Every op's CPIs must equal the compiled ``replay_tape`` oracle,
computed after the timed phase.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from perfbench.common import Workload
from perfbench.spans import Tracer
from perfbench.stats import Outcome

SCALE = 1.0
WORKERS = 1


class Figure14(Workload):
    name = "figure14"
    work_unit = "retired instructions x RF-design lanes"

    def setup(self) -> None:
        from repro.cpu import CoreConfig
        from repro.cpu.rf_model import RF_DESIGN_NAMES
        from repro.experiments import figure14

        self._figure14 = figure14
        self.designs: Tuple[str, ...] = tuple(RF_DESIGN_NAMES)
        self.config = CoreConfig()
        self.results: List[Tuple[Outcome, Dict[str, Any]]] = []
        warm = self._rows(figure14.run(scale=SCALE, designs=self.designs,
                                       workers=WORKERS))
        self.instructions = sum(warm["instructions"].values())

    # -- the op -----------------------------------------------------------------

    @staticmethod
    def _rows(result: Any) -> Dict[str, Any]:
        return {"baseline_cpi": dict(result.baseline_cpi),
                "instructions": dict(result.instructions),
                "overhead_percent": {d: dict(v) for d, v
                                     in result.overhead_percent.items()}}

    def _op(self, traced: bool) -> Dict[str, Any]:
        if traced:
            return self._traced_sweep()
        return self._rows(self._figure14.run(scale=SCALE,
                                             designs=self.designs,
                                             workers=WORKERS))

    def _traced_sweep(self) -> Dict[str, Any]:
        """``figure14.run``'s steps, driven here so each is a span."""
        from repro.cpu import OpTape, lanes_for_designs, replay_lanes
        from repro.cpu.compiled import design_tables
        from repro.cpu.optape import program_digest
        from repro.cpu.stats import CpiReport
        from repro.errors import ExecutionError
        from repro.experiments.figure14 import FIGURE14_WORKLOADS
        from repro.isa import assemble
        from repro.isa.executor import Executor
        from repro.workloads import PASS_EXIT_CODE, get_workload

        tracer = self.tracer
        assert tracer is not None
        limit = 400_000  # figure14.run's default max_instructions
        registers = self.config.num_registers
        rows: Dict[str, Any] = {"baseline_cpi": {}, "instructions": {},
                                "overhead_percent": {
                                    d: {} for d in self.designs
                                    if d != "ndro_rf"}}
        for name in FIGURE14_WORKLOADS:
            with tracer.span("isa.assemble"):
                program = assemble(get_workload(name).build(SCALE))
            executor = Executor(program)
            with tracer.span("isa.execute"):
                ops = list(executor.trace(max_instructions=limit))
            with tracer.span("cpu.lower"):
                tape = OpTape.from_ops(ops, num_registers=registers,
                                       max_instructions=limit)
            tape.exit_code = executor.exit_code
            tape.halt_reason = (executor.halt_reason.name
                                if executor.halt_reason is not None else None)
            tape.fingerprint = program_digest(program, limit, registers)
            if tape.hit_instruction_limit:
                raise ExecutionError(f"{name}: hit the {limit}-instruction "
                                     "limit")
            lanes = lanes_for_designs(self.designs, self.config)
            with tracer.span("cpu.tables"):
                for lane in lanes:
                    design_tables(tape, lane.rf)
            with tracer.span("cpu.replay"):
                results = replay_lanes(tape, lanes)
            count_replay(tracer, tape, results)
            reports = {design: CpiReport.from_result(
                name, result, exit_code=tape.exit_code)
                for design, result in zip(self.designs, results)}
            baseline = reports["ndro_rf"]
            if baseline.exit_code != PASS_EXIT_CODE:
                raise ExecutionError(f"{name}: self-check failed "
                                     f"(exit {baseline.exit_code})")
            rows["baseline_cpi"][name] = baseline.cpi
            rows["instructions"][name] = baseline.instructions
            for design in self.designs:
                if design != "ndro_rf":
                    rows["overhead_percent"][design][name] = 100.0 * (
                        reports[design].cpi / baseline.cpi - 1.0)
        return rows

    def measure(self) -> None:
        self.closed_loop(self._op,
                         lambda outcome, rows: self.results.append(
                             (outcome, rows)))

    # -- verification -------------------------------------------------------------

    def _oracle(self) -> Dict[str, Any]:
        """Per-design CPIs from the compiled scalar ``replay_tape``."""
        from repro.cpu import RFTimingModel, replay_tape, tape_for_program
        from repro.cpu.stats import CpiReport
        from repro.experiments.figure14 import FIGURE14_WORKLOADS
        from repro.isa import assemble
        from repro.workloads import get_workload

        rows: Dict[str, Any] = {"baseline_cpi": {}, "instructions": {},
                                "overhead_percent": {
                                    d: {} for d in self.designs
                                    if d != "ndro_rf"}}
        for name in FIGURE14_WORKLOADS:
            program = assemble(get_workload(name).build(SCALE))
            tape = tape_for_program(program, max_instructions=400_000,
                                    num_registers=self.config.num_registers,
                                    workload_name=name)
            cpi = {design: CpiReport.from_result(name, replay_tape(
                tape, RFTimingModel.for_design(design, self.config),
                self.config)).cpi for design in self.designs}
            rows["baseline_cpi"][name] = cpi["ndro_rf"]
            rows["instructions"][name] = tape.instructions
            for design in self.designs:
                if design != "ndro_rf":
                    rows["overhead_percent"][design][name] = 100.0 * (
                        cpi[design] / cpi["ndro_rf"] - 1.0)
        return rows

    def verify(self) -> None:
        from repro.experiments import paper_data

        oracle = self._oracle()
        for outcome, rows in self.results:
            outcome.ok = rows == oracle
        series = oracle["overhead_percent"]
        self.report["cpi_overhead_percent"] = {
            design: {"measured_avg": sum(v.values()) / len(v),
                     "paper_avg": paper_data.FIGURE14_AVG_OVERHEAD_PERCENT.get(
                         design)}
            for design, v in series.items()}
        self.report["baseline_cpi_avg"] = (
            sum(oracle["baseline_cpi"].values()) / len(oracle["baseline_cpi"]))
        self.report["instructions_per_sweep"] = sum(
            oracle["instructions"].values())

    # -- metrics -------------------------------------------------------------------

    def work_per_s(self) -> float:
        """``sim_instr_per_s``: retired instructions x design lanes of the
        verified sweeps per reference-speed second of the sweeps."""
        return self.closed_reference_work_per_s(
            self.instructions * len(self.designs))

    def describe(self) -> Dict[str, Any]:
        figures = self.closed_host_figures(
            self.instructions * len(self.designs))
        figures["sim_instr_per_host_s"] = figures.pop("work_per_host_s")
        figures["sim_instr_per_s"] = self.work_per_s()
        return figures

    def layer_metrics(self) -> Dict[str, float]:
        assert self.tracer is not None
        return cpu_layer_metrics(self.tracer, max(1, len(self.traced_outcomes)))


def count_replay(tracer: Tracer, tape: Any, results: Any) -> None:
    """Counts of one tape replayed across design lanes (shared with
    ``service``, whose CPU dispatches replay the same way)."""
    tracer.count("isa.instructions", tape.instructions)
    tracer.count("cpu.lane_instructions", tape.instructions * len(results))
    tracer.count("cpu.cycles", sum(r.total_cycles for r in results))


def cpu_layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """isa and cpu metrics per op from the spans and counters."""
    replay = tracer.self_time("cpu.replay")
    return {
        "isa.assemble_s": tracer.self_time("isa.assemble") / ops,
        "isa.execute_s": tracer.self_time("isa.execute") / ops,
        "isa.instructions": tracer.counters["isa.instructions"] / ops,
        "cpu.lower_s": tracer.self_time("cpu.lower") / ops,
        "cpu.tables_s": tracer.self_time("cpu.tables") / ops,
        "cpu.replay_s": replay / ops,
        "cpu.lane_instr_per_s": (tracer.counters["cpu.lane_instructions"]
                                 / replay if replay else 0.0),
        "cpu.cycles": tracer.counters["cpu.cycles"] / ops,
    }
