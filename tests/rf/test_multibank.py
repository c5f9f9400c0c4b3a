"""Tests for the N-way banked HiPerRF generalisation."""

import pytest

from repro.cpu import RFTimingModel
from repro.errors import ConfigError
from repro.rf import (
    DualBankHiPerRF,
    HiPerRF,
    NdroRegisterFile,
    RFGeometry,
    design_for,
)
from repro.rf.multibank import MultiBankHiPerRF

GEO = RFGeometry(32, 32)


class TestStructure:
    def test_two_banks_match_dual_bank_design(self):
        """The generalisation must reproduce Section V's design exactly."""
        assert MultiBankHiPerRF(GEO, banks=2).jj_count() == \
            DualBankHiPerRF(GEO).jj_count()

    def test_one_bank_close_to_single_port(self):
        single = HiPerRF(GEO).jj_count()
        one_bank = design_for("hiperrf_x1", GEO).jj_count()
        assert one_bank == single  # no glue for a single bank

    def test_jj_premium_grows_with_banks(self):
        counts = [design_for(f"hiperrf_x{b}", GEO).jj_count()
                  for b in (1, 2, 4, 8)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_readout_shrinks_with_banks(self):
        delays = [design_for(f"hiperrf_x{b}", GEO).readout_delay_ps()
                  for b in (1, 2, 4, 8)]
        assert delays == sorted(delays, reverse=True)

    def test_eight_banks_beat_baseline_readout(self):
        assert MultiBankHiPerRF(GEO, banks=8).readout_delay_ps() < \
            NdroRegisterFile(GEO).readout_delay_ps()

    def test_port_counts(self):
        design = MultiBankHiPerRF(GEO, banks=4)
        assert design.read_ports == design.write_ports == 4

    @pytest.mark.parametrize("banks", [0, 1, 3, 5, 32])
    def test_invalid_bank_counts(self, banks):
        with pytest.raises(ConfigError):
            MultiBankHiPerRF(GEO, banks=banks)

    def test_bank_of_modulo(self):
        design = MultiBankHiPerRF(GEO, banks=4)
        assert design.bank_of(5) == 1
        assert design.bank_of(8) == 0
        with pytest.raises(ConfigError):
            design.bank_of(-1)

    def test_issue_cycles_rule(self):
        design = MultiBankHiPerRF(GEO, banks=4)
        assert design.issue_cycles((1, 2)) == 2     # different banks
        assert design.issue_cycles((2, 6)) == 4     # same bank mod 4
        assert design.issue_cycles((3, 3)) == 2     # RAR dedup

    def test_same_bank_probability(self):
        assert MultiBankHiPerRF(GEO, banks=8).same_bank_pair_probability() \
            == pytest.approx(1 / 8)


class TestCpuModelIntegration:
    def test_generic_names_resolve(self):
        for banks in (2, 4, 8):
            model = RFTimingModel.for_design(f"hiperrf_x{banks}")
            assert model.readout_cycles > 0
            assert model.has_loopback

    def test_bank_collision_rules_in_timing_model(self):
        x4 = RFTimingModel.for_design("hiperrf_x4")
        assert x4.issue_gap_gates((2, 6), 1) == 8    # same bank mod 4
        assert x4.issue_gap_gates((1, 2), 1) == 4
        assert x4.read_slots_gates((2, 6)) == (2, 6)
        assert x4.read_slots_gates((1, 2)) == (2, 2)

    def test_more_banks_fewer_conflicts(self):
        """x8 treats (2,6) as cross-bank where x4 serialises it."""
        x8 = RFTimingModel.for_design("hiperrf_x8")
        assert x8.issue_gap_gates((2, 6), 1) == 4

    def test_one_bank_times_like_hiperrf(self):
        """``hiperrf_x1`` is plain HiPerRF: the same issue gaps, read
        slots, readout and loopback."""
        x1 = RFTimingModel.for_design("hiperrf_x1")
        hiperrf = RFTimingModel.for_design("hiperrf")
        for sources in ((), (1,), (1, 2), (1, 3), (2, 2)):
            assert x1.issue_gap_gates(sources, 1) == \
                hiperrf.issue_gap_gates(sources, 1)
            assert x1.read_slots_gates(sources) == \
                hiperrf.read_slots_gates(sources)
        assert x1.readout_cycles == hiperrf.readout_cycles
        assert x1.loopback_cycles == hiperrf.loopback_cycles

    def test_unknown_name_still_rejected(self):
        with pytest.raises(ConfigError):
            RFTimingModel.for_design("hiperrf_y4")
