"""Tests for the CPU simulator glue and CPI statistics."""

import pytest

from repro.cpu import CoreConfig, CpuSimulator, simulate_program
from repro.cpu.stats import CpiReport, cpi_overhead_percent, geometric_mean
from repro.errors import ExecutionError
from repro.isa import Executor, assemble

SIMPLE = """
_start:
    li   s0, 0
    li   s1, 50
loop:
    addi s0, s0, 1
    blt  s0, s1, loop
    li   a0, 0
    li   a7, 93
    ecall
"""


class TestCpuSimulator:
    def test_runs_source(self):
        report = CpuSimulator("ndro_rf").run_source(SIMPLE, "simple")
        assert report.instructions > 100
        assert report.cpi > 1.0

    def test_exit_code_check(self):
        with pytest.raises(ExecutionError, match="exit code"):
            CpuSimulator("ndro_rf").run_source(SIMPLE, "simple",
                                               expect_exit_code=42)

    def test_instruction_limit(self):
        with pytest.raises(ExecutionError, match="limit"):
            CpuSimulator("ndro_rf").run_source(
                "_start:\n  j _start\n", "infinite", max_instructions=100)

    def test_simulate_program_shares_trace(self):
        reports = simulate_program(assemble(SIMPLE))
        instr_counts = {r.instructions for r in reports.values()}
        assert len(instr_counts) == 1  # same functional trace for all

    def test_design_ordering_on_simple_loop(self):
        reports = simulate_program(assemble(SIMPLE))
        # HiPerRF is the slowest; the banked designs recover most of it.
        # (Dual-bank can even beat the baseline on cross-bank operand
        # pairs because its two read ports fetch both operands at once.)
        assert reports["ndro_rf"].cpi <= reports["hiperrf"].cpi
        assert reports["dual_bank_hiperrf_ideal"].cpi <= \
            reports["dual_bank_hiperrf"].cpi
        assert reports["dual_bank_hiperrf"].cpi <= reports["hiperrf"].cpi

    def test_run_trace_enforces_instruction_cap(self):
        ops = list(Executor(assemble(SIMPLE)).trace(max_instructions=10_000))
        sim = CpuSimulator("ndro_rf")
        report = sim.run_trace(ops, "simple", max_instructions=len(ops))
        assert report.instructions == len(ops)
        with pytest.raises(ExecutionError, match="limit"):
            sim.run_trace(ops, "simple", max_instructions=len(ops) - 1)

    def test_tiers_agree(self):
        """simulate_program's compiled lanes match the reference
        pipeline's live run, design by design."""
        program = assemble(SIMPLE)
        compiled = simulate_program(program)
        reference = {design: CpuSimulator(design).run_program(program)
                     for design in compiled}
        for design in compiled:
            assert compiled[design].total_cycles == \
                reference[design].total_cycles
            assert compiled[design].stall_cycles == \
                reference[design].stall_cycles

    def test_custom_config(self):
        fast = CpuSimulator("ndro_rf", CoreConfig(execute_depth=4))
        slow = CpuSimulator("ndro_rf", CoreConfig(execute_depth=28))
        assert fast.run_source(SIMPLE).cpi < slow.run_source(SIMPLE).cpi


class TestStats:
    def _report(self, workload, cpi):
        return CpiReport(workload=workload, design="x", instructions=100,
                         total_cycles=int(cpi * 100), cpi=cpi,
                         stall_cycles={})

    def test_overhead_percent(self):
        base = self._report("w", 20.0)
        cand = self._report("w", 22.0)
        assert cpi_overhead_percent(base, cand) == pytest.approx(10.0)

    def test_workload_mismatch(self):
        with pytest.raises(ValueError):
            cpi_overhead_percent(self._report("a", 10), self._report("b", 10))

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            cpi_overhead_percent(self._report("w", 0.0), self._report("w", 1))

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
