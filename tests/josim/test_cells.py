"""Analog verification of the paper's Section II-D claims: JTL propagation,
DRO single-fluxon storage and HC-DRO 0-3 fluxon storage with destructive,
one-pop-per-clock readout."""

import pytest

from repro.josim import (
    TransientSolver,
    build_dro_cell,
    build_jtl_stage,
    junction_fluxons,
    loop_fluxons,
)
from repro.josim.cells import (
    EFFECTIVE_HCDRO_PARAMS,
    PAPER_HCDRO_PARAMS,
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
)
from repro.josim.sweep import HCDROConfig
from repro.josim.testbench import run_hcdro_batch


class TestJTL:
    def test_pulse_propagates(self):
        handles = build_jtl_stage()
        handles.circuit.pulse("PIN", "in", start_ps=20.0,
                              amplitude_ua=600.0, width_ps=3.0)
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(60.0)
        assert junction_fluxons(result, "J1") == 1
        assert junction_fluxons(result, "J2") == 1

    def test_no_input_no_output(self):
        handles = build_jtl_stage()
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(60.0)
        assert junction_fluxons(result, "J1") == 0
        assert junction_fluxons(result, "J2") == 0

    def test_two_pulses_two_fluxons(self):
        handles = build_jtl_stage()
        for k in range(2):
            handles.circuit.pulse(f"PIN{k}", "in", start_ps=20.0 + 25.0 * k,
                                  amplitude_ua=600.0, width_ps=3.0)
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(100.0)
        assert junction_fluxons(result, "J2") == 2


class TestDROCell:
    def test_stores_single_fluxon(self):
        handles = build_dro_cell()
        handles.circuit.pulse("PD", "d", start_ps=20.0,
                              amplitude_ua=RECOMMENDED_WRITE_PULSE_UA,
                              width_ps=3.0)
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(80.0)
        assert loop_fluxons(result, "J1", "J2") == 1

    def test_second_pulse_rejected(self):
        handles = build_dro_cell()
        for k in range(2):
            handles.circuit.pulse(f"PD{k}", "d", start_ps=20.0 + 25.0 * k,
                                  amplitude_ua=RECOMMENDED_WRITE_PULSE_UA,
                                  width_ps=3.0)
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(110.0)
        assert loop_fluxons(result, "J1", "J2") == 1


class TestHCDROCell:
    """The headline Section II-D behaviour, at the analog level."""

    @staticmethod
    def _run(**fields):
        return run_hcdro_batch([HCDROConfig(**fields)])[0]

    @pytest.mark.parametrize("writes", [0, 1, 2, 3])
    def test_stores_up_to_three(self, writes):
        report = self._run(writes=writes, reads=0)
        assert report.stored_after_writes == writes

    def test_capacity_saturates_at_three(self):
        report = self._run(writes=5, reads=0)
        assert report.stored_after_writes == 3

    @pytest.mark.parametrize("writes", [1, 2, 3])
    def test_reads_pop_exactly_stored_count(self, writes):
        report = self._run(writes=writes, reads=4)
        assert report.output_pulses == writes
        assert report.stored_at_end == 0

    def test_empty_reads_are_silent(self):
        report = self._run(writes=0, reads=3)
        assert report.output_pulses == 0
        assert report.stored_at_end == 0

    def test_each_read_pops_one(self):
        report = self._run(writes=3, reads=1)
        assert report.output_pulses == 1
        assert report.stored_at_end == 2

    def test_read_amplitude_margin(self):
        """The drive point has margin: +/-5% amplitude still works."""
        for scale in (0.95, 1.05):
            report = self._run(
                writes=2, reads=3,
                read_amplitude_ua=RECOMMENDED_READ_PULSE_UA * scale)
            assert report.output_pulses == 2
            assert report.stored_at_end == 0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            HCDROConfig(writes=-1)


class TestParameterSets:
    def test_paper_parameters_recorded(self):
        # Section II-D quotes these values for the robust 2-bit cell.
        assert PAPER_HCDRO_PARAMS["l2_ph"] == 20.0
        assert PAPER_HCDRO_PARAMS["j1_ua"] == 115.0
        assert PAPER_HCDRO_PARAMS["j2_ua"] == 111.0

    def test_effective_set_differs_only_in_storage_inductance(self):
        differing = {k for k in PAPER_HCDRO_PARAMS
                     if PAPER_HCDRO_PARAMS[k] != EFFECTIVE_HCDRO_PARAMS[k]}
        assert differing == {"l2_ph"}


class TestDROReadout:
    """Analog destructive readout of the single-fluxon DRO cell."""

    def _run(self, writes, reads):
        from repro.josim.cells import RECOMMENDED_READ_PULSE_UA

        handles = build_dro_cell()
        t = 20.0
        for k in range(writes):
            handles.circuit.pulse(f"PD{k}", "d", start_ps=t,
                                  amplitude_ua=RECOMMENDED_WRITE_PULSE_UA,
                                  width_ps=3.0)
            t += 25.0
        read_start = t + 30.0
        for k in range(reads):
            handles.circuit.pulse(f"PC{k}", "clk",
                                  start_ps=read_start + 25.0 * k,
                                  amplitude_ua=RECOMMENDED_READ_PULSE_UA,
                                  width_ps=3.0)
        end = read_start + 25.0 * reads + 30.0
        result = TransientSolver(handles.circuit, timestep_ps=0.05).run(end)
        return (loop_fluxons(result, "J1", "J2"),
                junction_fluxons(result, "J3"))

    def test_single_read_pops_the_fluxon(self):
        stored, out = self._run(writes=1, reads=1)
        assert out == 1
        assert stored == 0

    def test_second_read_is_silent(self):
        """Destructive readout: there is nothing left to read."""
        stored, out = self._run(writes=1, reads=2)
        assert out == 1
        assert stored == 0

    def test_read_of_empty_cell_is_silent(self):
        stored, out = self._run(writes=0, reads=2)
        assert out == 0
        assert stored == 0
