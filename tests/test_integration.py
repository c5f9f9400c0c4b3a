"""Cross-layer integration tests: the analytic models, the pulse-level
netlists and the CPU simulator must tell one consistent story."""

import pytest

from repro.cells import params
from repro.cpu import CpuSimulator, RFTimingModel
from repro.isa import Executor, assemble
from repro.pulse import Engine
from repro.rf import HiPerRF, NdroRegisterFile, RFGeometry
from repro.rf.netlist import PulseHiPerRF, PulseNdroRF
from repro.workloads import PASS_EXIT_CODE, get_workload


class TestCensusNetlistConsistency:
    """The pulse netlists must instantiate what the census counts."""

    def test_ndro_storage_cells_match(self):
        geometry = RFGeometry(8, 8)
        census = NdroRegisterFile(geometry).census()
        netlist = PulseNdroRF(Engine(), geometry)
        assert sum(len(row) for row in netlist.cells) == census.count("ndro")

    def test_ndro_dand_count_matches(self):
        geometry = RFGeometry(8, 8)
        census = NdroRegisterFile(geometry).census()
        netlist = PulseNdroRF(Engine(), geometry)
        assert sum(len(row) for row in netlist.dands) == census.count("dand")

    def test_hiperrf_storage_cells_match(self):
        geometry = RFGeometry(8, 8)
        census = HiPerRF(geometry).census()
        netlist = PulseHiPerRF(Engine(), geometry)
        assert sum(len(row) for row in netlist.cells) == census.count("hcdro")

    def test_hiperrf_loopbuffer_matches(self):
        geometry = RFGeometry(8, 8)
        census = HiPerRF(geometry).census()
        netlist = PulseHiPerRF(Engine(), geometry)
        # The census counts LoopBuffer NDROs (one per column).
        assert len(netlist.loopbuffer) == census.count("ndro")

    def test_hiperrf_hc_circuit_counts_match(self):
        geometry = RFGeometry(8, 8)
        census = HiPerRF(geometry).census()
        netlist = PulseHiPerRF(Engine(), geometry)
        assert len(netlist.hc_writes) == census.count("hc_write")
        assert len(netlist.hc_reads) == census.count("hc_read")

    def test_demux_ndroc_counts_match(self):
        geometry = RFGeometry(8, 8)
        census = NdroRegisterFile(geometry).census()
        netlist = PulseNdroRF(Engine(), geometry)
        pulse_ndrocs = (netlist.read_demux.ndroc_count
                        + netlist.reset_demux.ndroc_count
                        + netlist.write_demux.ndroc_count)
        assert pulse_ndrocs == census.count("ndroc")


class TestTimingModelConsistency:
    """The CPU's RF timing must derive from the analytic delays."""

    def test_readout_cycles_cover_analytic_delay(self):
        for name, cls in (("ndro_rf", NdroRegisterFile),
                          ("hiperrf", HiPerRF)):
            model = RFTimingModel.for_design(name)
            analytic_ps = cls(RFGeometry(32, 32)).readout_delay_ps()
            model_ps = model.readout_cycles * params.GATE_CYCLE_PS
            assert model_ps >= analytic_ps
            # Quantization never adds more than one full port cycle.
            assert model_ps - analytic_ps < params.RF_CYCLE_PS + \
                params.GATE_CYCLE_PS

    def test_issue_gaps_match_schedule_module(self):
        from repro.rf import design_for

        for name in ("ndro_rf", "hiperrf", "dual_bank_hiperrf"):
            model = RFTimingModel.for_design(name)
            design = design_for(name, RFGeometry(32, 32))
            for sources in ((), (1,), (1, 2), (1, 3)):
                expected = design.issue_cycles(sources) \
                    * params.RF_ACCESS_GATE_CYCLES
                assert model.issue_gap_gates(sources, 5) == expected


class TestFullStack:
    """Assemble -> execute -> time, checked end to end."""

    @pytest.mark.parametrize("design", ["ndro_rf", "hiperrf"])
    def test_workload_through_whole_stack(self, design):
        report = CpuSimulator(design).run_source(
            get_workload("towers").build(), "towers",
            expect_exit_code=PASS_EXIT_CODE)
        assert report.instructions > 1000
        assert 5.0 < report.cpi < 100.0

    def test_identical_functional_results_across_designs(self):
        """Timing must never change architectural results."""
        program = assemble(get_workload("median").build())
        outcomes = set()
        for design in ("ndro_rf", "hiperrf", "dual_bank_hiperrf"):
            report = CpuSimulator(design).run_program(program, "median")
            outcomes.add((report.exit_code, report.instructions))
        assert len(outcomes) == 1

    def test_stall_attribution_sums_are_sane(self):
        executor = Executor(assemble(get_workload("mcf").build()))
        ops = list(executor.trace())
        report = CpuSimulator("hiperrf").run_trace(ops, "mcf")
        stalls = report.stall_cycles
        # Port occupancy alone cannot exceed total cycles; each class is
        # non-negative.
        assert all(v >= 0 for v in stalls.values())
        assert stalls["port"] <= report.total_cycles
