"""Tests for the phase-domain transient solver core."""

import math

import numpy as np
import pytest

from repro.errors import NetlistError, SimulationError
from repro.josim import Circuit, TransientSolver
from repro.josim.elements import KAPPA, JosephsonJunction, PulseCurrent


class TestCircuit:
    def test_ground_aliases(self):
        ckt = Circuit()
        assert ckt.node("gnd") == ckt.node("0") == ckt.node("GND") == 0

    def test_node_allocation(self):
        ckt = Circuit()
        a = ckt.node("a")
        b = ckt.node("b")
        assert a != b
        assert ckt.node("a") == a
        assert ckt.num_nodes == 2

    def test_duplicate_element_rejected(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd")
        with pytest.raises(NetlistError):
            ckt.jj("J1", "b", "gnd")

    def test_element_lookup(self):
        ckt = Circuit()
        jj = ckt.jj("J1", "a", "gnd")
        assert ckt.element("J1") is jj
        with pytest.raises(NetlistError):
            ckt.element("J9")

    def test_validate_empty(self):
        with pytest.raises(NetlistError):
            Circuit().validate()

    def test_validate_floating(self):
        ckt = Circuit()
        ckt.inductor("L1", "a", "b", inductance_ph=10.0)
        with pytest.raises(NetlistError, match="ground"):
            ckt.validate()


class TestElementValidation:
    def test_self_short_rejected(self):
        with pytest.raises(ValueError):
            JosephsonJunction("J", 1, 1)

    def test_bad_ic(self):
        with pytest.raises(ValueError):
            JosephsonJunction("J", 1, 0, critical_current_ua=-5.0)

    def test_overdamped_default(self):
        jj = JosephsonJunction("J", 1, 0)
        assert jj.stewart_mccumber < 1.5

    def test_pulse_window(self):
        pulse = PulseCurrent("P", 1, 0, start_ps=10.0, amplitude_ua=100.0,
                             width_ps=4.0)
        assert pulse.value_at(5.0) == 0.0
        assert pulse.value_at(12.0) == pytest.approx(100.0)
        assert pulse.value_at(20.0) == 0.0
        assert pulse.charge_area == pytest.approx(200.0)


class TestSolverBasics:
    def test_rl_relaxation(self):
        """Bias into L parallel R: all current ends up in the inductor."""
        ckt = Circuit()
        ckt.inductor("L1", "a", "gnd", inductance_ph=10.0)
        ckt.resistor("R1", "a", "gnd", resistance_ohm=1.0)
        ckt.bias("IB", "a", current_ua=50.0, ramp_ps=2.0)
        result = TransientSolver(ckt, timestep_ps=0.05).run(200.0)
        assert result.inductor_current_ua("L1")[-1] == pytest.approx(50.0, rel=1e-3)

    def test_subcritical_bias_no_switching(self):
        """A JJ biased below Ic must settle at a static phase, not rotate."""
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=100.0)
        ckt.bias("IB", "a", current_ua=70.0)
        result = TransientSolver(ckt, timestep_ps=0.05).run(100.0)
        final = result.junction_phase("J1")[-1]
        assert final == pytest.approx(math.asin(0.7), abs=0.02)

    def test_supercritical_bias_rotates(self):
        """Above Ic the junction enters the voltage state (phase runs)."""
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=100.0)
        ckt.bias("IB", "a", current_ua=150.0)
        result = TransientSolver(ckt, timestep_ps=0.05).run(100.0)
        assert result.junction_phase("J1")[-1] > 4 * math.pi

    def test_voltage_is_kappa_phidot(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=100.0)
        ckt.bias("IB", "a", current_ua=150.0)
        result = TransientSolver(ckt, timestep_ps=0.05).run(50.0)
        # Average voltage ~ KAPPA * d(phi)/dt over the run.
        dphi = result.junction_phase("J1")[-1] - result.junction_phase("J1")[0]
        span = result.times_ps[-1] - result.times_ps[0]
        avg_v = np.mean(result.node_voltage_mv("a")[5:])
        assert avg_v == pytest.approx(KAPPA * dphi / span, rel=0.15)

    def test_invalid_timestep(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd")
        with pytest.raises(SimulationError):
            TransientSolver(ckt, timestep_ps=0.0)

    def test_invalid_duration(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd")
        with pytest.raises(SimulationError):
            TransientSolver(ckt).run(0.0)

    def test_inductor_current_type_check(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd")
        result = TransientSolver(ckt, timestep_ps=0.1).run(1.0)
        with pytest.raises(SimulationError):
            result.inductor_current_ua("J1")


class TestRecording:
    def _biased_jj(self):
        ckt = Circuit()
        ckt.jj("J1", "a", "gnd", critical_current_ua=100.0)
        ckt.bias("IB", "a", current_ua=150.0)
        return ckt

    def test_final_step_recorded_on_uneven_stride(self):
        """50 ps / 0.05 ps = 1000 steps; 1000 % 7 != 0 must still record
        the last step so the series ends at the true end of the run."""
        ckt = self._biased_jj()
        dense = TransientSolver(ckt, timestep_ps=0.05).run(50.0)
        sparse = TransientSolver(ckt, timestep_ps=0.05).run(
            50.0, record_every=7)
        assert sparse.times_ps[-1] == pytest.approx(dense.times_ps[-1])
        assert sparse.phases[-1] == pytest.approx(dense.phases[-1])
        assert sparse.velocities[-1] == pytest.approx(dense.velocities[-1])

    def test_even_stride_has_no_duplicate_final_row(self):
        ckt = self._biased_jj()
        result = TransientSolver(ckt, timestep_ps=0.05).run(
            50.0, record_every=10)
        # 1000 steps / 10 per record + the t=0 row.
        assert len(result.times_ps) == 101
        assert result.times_ps[-1] == pytest.approx(50.0)

    def test_invalid_record_every(self):
        ckt = self._biased_jj()
        with pytest.raises(SimulationError):
            TransientSolver(ckt, timestep_ps=0.05).run(1.0, record_every=0)


class TestSourceTableFallback:
    """`_run_compiled` precomputes a (steps x nodes) source table unless
    the run is too long (`_SOURCE_TABLE_LIMIT`); the per-step fallback
    must produce bitwise the same trajectories."""

    def _deck(self):
        ckt = Circuit()
        ckt.inductor("LIN", "in", "a", inductance_ph=2.0)
        ckt.jj("J1", "a", "gnd", critical_current_ua=100.0)
        ckt.bias("IB", "a", current_ua=70.0, ramp_ps=5.0)
        ckt.pulse("PIN", "in", start_ps=10.0, amplitude_ua=500.0,
                  width_ps=4.0)
        return ckt

    def test_fallback_matches_table_path(self, monkeypatch):
        import repro.josim.solver as solver_mod

        table = TransientSolver(self._deck(), timestep_ps=0.05).run(60.0)
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 0)
        fallback = TransientSolver(self._deck(), timestep_ps=0.05).run(60.0)
        np.testing.assert_array_equal(table.times_ps, fallback.times_ps)
        np.testing.assert_array_equal(table.phases, fallback.phases)
        np.testing.assert_array_equal(table.velocities, fallback.velocities)

    def test_limit_actually_gates_the_table(self, monkeypatch):
        """Guard that the monkeypatched limit really selects the
        fallback branch (so the equality above is not table-vs-table)."""
        import repro.josim.solver as solver_mod

        calls = []
        original = solver_mod._BatchedStamps.source_residual

        def counting(self, t):
            if np.ndim(t) == 0:  # one step; the table passes every time
                calls.append(t)
            return original(self, t)

        monkeypatch.setattr(solver_mod._BatchedStamps, "source_residual",
                            counting)
        TransientSolver(self._deck(), timestep_ps=0.05).run(5.0)
        assert not calls  # table path: no per-step calls
        monkeypatch.setattr(solver_mod, "_SOURCE_TABLE_LIMIT", 0)
        TransientSolver(self._deck(), timestep_ps=0.05).run(5.0)
        assert len(calls) == 100  # one per step


class TestTestbenchSingleUse:
    def test_second_run_rejected(self):
        from repro.josim.testbench import HCDROTestbench

        bench = HCDROTestbench()
        bench.run(writes=0, reads=0)
        with pytest.raises(SimulationError, match="already ran"):
            bench.run(writes=0, reads=0)
