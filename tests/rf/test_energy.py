"""Tests for the dynamic switching-energy model."""

import pytest

from repro.rf import (
    DualBankHiPerRF,
    HiPerRF,
    NdroRegisterFile,
    RFGeometry,
    design_for,
)
from repro.rf.energy import (
    E_SWITCH_AJ,
    E_SWITCH_J,
    access_energy,
    workload_rf_energy_aj,
)

GEO = RFGeometry(32, 32)


class TestSwitchEnergy:
    def test_paper_order_of_magnitude(self):
        # Section I: "little switching energy dissipation (~1e-19 J)".
        assert 1e-19 < E_SWITCH_J < 5e-19

    def test_aj_conversion(self):
        assert E_SWITCH_AJ == pytest.approx(E_SWITCH_J * 1e18)


class TestAccessEnergy:
    def test_all_positive(self):
        for cls in (NdroRegisterFile, HiPerRF, DualBankHiPerRF):
            energy = access_energy(cls(GEO))
            assert energy.read_aj > 0
            assert energy.write_aj > 0

    def test_baseline_has_no_loopback_energy(self):
        energy = access_energy(NdroRegisterFile(GEO))
        assert energy.loopback_aj == 0.0
        assert energy.effective_read_aj == energy.read_aj

    def test_hiperrf_reads_cost_more_effectively(self):
        """The loopback write makes every HiPerRF read more expensive
        dynamically - the flip side of its static-power win."""
        base = access_energy(NdroRegisterFile(GEO))
        hiper = access_energy(HiPerRF(GEO))
        assert hiper.effective_read_aj > 1.2 * base.read_aj

    def test_banked_reads_cheaper_than_unbanked(self):
        hiper = access_energy(HiPerRF(GEO))
        dual = access_energy(DualBankHiPerRF(GEO))
        assert dual.effective_read_aj < hiper.effective_read_aj

    def test_banked_ladder_priced_by_bank_count(self):
        """``hiperrf_x2`` costs what the dual-bank design costs, and each
        doubling of the banks makes a read cheaper."""
        x2 = access_energy(design_for("hiperrf_x2", GEO))
        dual = access_energy(DualBankHiPerRF(GEO))
        assert (x2.read_aj, x2.write_aj, x2.loopback_aj) == \
            (dual.read_aj, dual.write_aj, dual.loopback_aj)
        assert (round(dual.read_aj, 2), round(dual.write_aj, 2),
                round(dual.loopback_aj, 2)) == (235.53, 196.03, 141.85)
        reads = [access_energy(design_for(f"hiperrf_x{b}", GEO)).read_aj
                 for b in (2, 4, 8)]
        assert reads[0] > reads[1] > reads[2]

    def test_dynamic_energy_negligible_vs_static(self):
        """Why the paper reports static power only: at 1 GOPS the dynamic
        RF power is micro-watt-scale against ~4 mW of bias power."""
        energy = access_energy(HiPerRF(GEO))
        dynamic_power_uw = energy.effective_read_aj * 1e-18 * 1e9 * 1e6
        static_power_uw = HiPerRF(GEO).static_power_uw()
        assert dynamic_power_uw < 0.01 * static_power_uw


class TestWorkloadEnergy:
    def test_accumulates_linearly(self):
        design = HiPerRF(GEO)
        one = workload_rf_energy_aj(design, reads=1, writes=1)
        ten = workload_rf_energy_aj(design, reads=10, writes=10)
        assert ten == pytest.approx(10 * one)

    def test_zero_accesses(self):
        assert workload_rf_energy_aj(NdroRegisterFile(GEO), 0, 0) == 0.0
