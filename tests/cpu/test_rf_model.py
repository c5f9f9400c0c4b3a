"""Tests for the per-design RF timing model."""

import pytest

from repro.cpu import RFTimingModel
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.errors import ConfigError


class TestConstruction:
    @pytest.mark.parametrize("name", RF_DESIGN_NAMES)
    def test_all_designs_build(self, name):
        model = RFTimingModel.for_design(name)
        assert model.readout_cycles > 0

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            RFTimingModel.for_design("sram")

    def test_readout_quantized_in_port_cycles(self):
        # 53 ps port cycles are 2 gate cycles; readout must be a multiple.
        for name in RF_DESIGN_NAMES:
            model = RFTimingModel.for_design(name)
            assert model.readout_cycles % model.rf_cycle_gates == 0

    def test_readout_ordering(self):
        base = RFTimingModel.for_design("ndro_rf").readout_cycles
        hiper = RFTimingModel.for_design("hiperrf").readout_cycles
        dual = RFTimingModel.for_design("dual_bank_hiperrf").readout_cycles
        # Table III: baseline < dual-bank < HiPerRF; after 53 ps
        # quantization the dual-bank collapses onto the baseline.
        assert base <= dual < hiper

    def test_loopback_only_on_hiperrf_family(self):
        assert not RFTimingModel.for_design("ndro_rf").has_loopback
        for name in RF_DESIGN_NAMES[1:]:
            assert RFTimingModel.for_design(name).has_loopback

    def test_wire_aware_variant_is_slower(self):
        dry = RFTimingModel.for_design("hiperrf")
        wet = RFTimingModel.for_design("hiperrf", include_wire_delays=True)
        assert wet.readout_cycles >= dry.readout_cycles


class TestIssueGaps:
    def test_baseline_gaps(self):
        model = RFTimingModel.for_design("ndro_rf")
        assert model.issue_gap_gates((1, 2), 3) == 4   # 2 RF cycles
        assert model.issue_gap_gates((1,), 3) == 2
        assert model.issue_gap_gates((), 3) == 2
        assert model.issue_gap_gates((1, 1), 3) == 2   # RAR dedup

    def test_hiperrf_always_three_cycles(self):
        model = RFTimingModel.for_design("hiperrf")
        for sources in ((), (1,), (1, 2), (1, 1)):
            assert model.issue_gap_gates(sources, 3) == 6

    def test_dual_bank_gaps(self):
        model = RFTimingModel.for_design("dual_bank_hiperrf")
        assert model.issue_gap_gates((1, 2), 3) == 4   # cross bank
        assert model.issue_gap_gates((1, 3), 2) == 8   # same bank
        assert model.issue_gap_gates((2,), 3) == 4

    def test_ideal_dual_bank_never_serialises(self):
        model = RFTimingModel.for_design("dual_bank_hiperrf_ideal")
        assert model.issue_gap_gates((1, 3), 2) == 4


class TestReadSlots:
    def test_baseline_consecutive(self):
        model = RFTimingModel.for_design("ndro_rf")
        assert model.read_slots_gates((1, 2)) == (0, 2)
        assert model.read_slots_gates((1,)) == (0,)

    def test_hiperrf_after_reset_read(self):
        model = RFTimingModel.for_design("hiperrf")
        assert model.read_slots_gates((1, 2)) == (2, 4)

    def test_dual_bank_parallel_when_cross_bank(self):
        model = RFTimingModel.for_design("dual_bank_hiperrf")
        assert model.read_slots_gates((1, 2)) == (2, 2)
        assert model.read_slots_gates((1, 3)) == (2, 6)

    def test_rar_dedup(self):
        model = RFTimingModel.for_design("hiperrf")
        assert model.read_slots_gates((3, 3)) == (2,)

    def test_empty(self):
        model = RFTimingModel.for_design("ndro_rf")
        assert model.read_slots_gates(()) == ()

    def test_loopback_busy(self):
        model = RFTimingModel.for_design("hiperrf")
        assert model.loopback_busy_gates() == \
            2 * model.rf_cycle_gates + model.loopback_cycles
        assert RFTimingModel.for_design("ndro_rf").loopback_busy_gates() == 0
