"""Tests for the three register file design models against the paper's tables.

Absolute-number tolerances are deliberately loose (a few percent): the
paper's numbers come from a proprietary cell library; what must hold is
the *shape* - orderings, ratios to baseline, growth with size (DESIGN.md
Section 5 documents the calibration).
"""

import pytest

from repro.errors import ConfigError
from repro.rf import (
    DualBankHiPerRF,
    HiPerRF,
    NdroRegisterFile,
    RFGeometry,
    compare_designs,
)

GEOS = {label: RFGeometry(n, w)
        for label, (n, w) in {"4x4": (4, 4), "16x16": (16, 16),
                              "32x32": (32, 32)}.items()}

PAPER_JJ = {
    "ndro_rf": {"4x4": 784, "16x16": 9850, "32x32": 36722},
    "hiperrf": {"4x4": 695, "16x16": 5195, "32x32": 16133},
    "dual_bank_hiperrf": {"4x4": 736, "16x16": 5626, "32x32": 17094},
}
PAPER_POWER = {
    "ndro_rf": {"4x4": 170.73, "16x16": 1997.49, "32x32": 7262.17},
    "hiperrf": {"4x4": 149.16, "16x16": 1220.05, "32x32": 3911.00},
    "dual_bank_hiperrf": {"4x4": 148.47, "16x16": 1289.89, "32x32": 4077.88},
}
PAPER_DELAY = {
    "ndro_rf": {"4x4": 77.0, "16x16": 144.0, "32x32": 177.5},
    "hiperrf": {"4x4": 122.8, "16x16": 187.8, "32x32": 220.3},
    "dual_bank_hiperrf": {"4x4": 94.8, "16x16": 159.8, "32x32": 192.3},
}
DESIGNS = {
    "ndro_rf": NdroRegisterFile,
    "hiperrf": HiPerRF,
    "dual_bank_hiperrf": DualBankHiPerRF,
}


def _all_cases():
    return [(name, label) for name in DESIGNS for label in GEOS]


class TestTable1JJCounts:
    @pytest.mark.parametrize("design,label", _all_cases())
    def test_jj_count_matches_paper(self, design, label):
        model = DESIGNS[design](GEOS[label])
        paper = PAPER_JJ[design][label]
        assert model.jj_count() == pytest.approx(paper, rel=0.09)

    def test_headline_56_percent_saving(self):
        # Abstract: 32x32 HiPerRF cuts the RF JJ count by 56.1%.
        baseline = NdroRegisterFile(GEOS["32x32"])
        hiperrf = HiPerRF(GEOS["32x32"])
        saving = 1 - hiperrf.jj_count() / baseline.jj_count()
        assert saving == pytest.approx(0.561, abs=0.02)

    def test_advantage_grows_with_size(self):
        # Section VI-A: the relative advantage grows with RF size.
        ratios = []
        for label in ("4x4", "16x16", "32x32"):
            ratios.append(HiPerRF(GEOS[label]).jj_count()
                          / NdroRegisterFile(GEOS[label]).jj_count())
        assert ratios[0] > ratios[1] > ratios[2]

    def test_dual_bank_costs_more_than_single(self):
        for label, geo in GEOS.items():
            assert DualBankHiPerRF(geo).jj_count() > HiPerRF(geo).jj_count()

    def test_dual_bank_far_cheaper_than_true_two_port(self):
        # Section V: a true 2R2W HiPerRF would nearly triple the JJs; the
        # banked design must stay well under 2x the single-port design.
        geo = GEOS["32x32"]
        assert DualBankHiPerRF(geo).jj_count() < 1.5 * HiPerRF(geo).jj_count()


class TestTable2StaticPower:
    @pytest.mark.parametrize("design,label", _all_cases())
    def test_power_matches_paper(self, design, label):
        model = DESIGNS[design](GEOS[label])
        paper = PAPER_POWER[design][label]
        assert model.static_power_uw() == pytest.approx(paper, rel=0.05)

    def test_headline_46_percent_power_saving(self):
        # Abstract: 46.2% static power reduction at 32x32.
        baseline = NdroRegisterFile(GEOS["32x32"])
        hiperrf = HiPerRF(GEOS["32x32"])
        saving = 1 - hiperrf.static_power_uw() / baseline.static_power_uw()
        assert saving == pytest.approx(0.462, abs=0.03)


class TestTable3ReadoutDelay:
    @pytest.mark.parametrize("design,label", _all_cases())
    def test_delay_matches_paper(self, design, label):
        model = DESIGNS[design](GEOS[label])
        paper = PAPER_DELAY[design][label]
        assert model.readout_delay_ps() == pytest.approx(paper, rel=0.08)

    def test_hiperrf_slower_than_baseline(self):
        # The LoopBuffer sits on the read path: HiPerRF must lose on delay.
        for label, geo in GEOS.items():
            assert HiPerRF(geo).readout_delay_ps() > \
                NdroRegisterFile(geo).readout_delay_ps()

    def test_dual_bank_recovers_most_delay(self):
        # Section VI-A: dual-banking cuts the delay overhead to ~8% at 32x32.
        geo = GEOS["32x32"]
        base = NdroRegisterFile(geo).readout_delay_ps()
        dual = DualBankHiPerRF(geo).readout_delay_ps()
        single = HiPerRF(geo).readout_delay_ps()
        assert base < dual < single
        assert (dual - base) / base < 0.12

    def test_delay_overhead_shrinks_with_size(self):
        overheads = []
        for label in ("4x4", "16x16", "32x32"):
            geo = GEOS[label]
            overheads.append(HiPerRF(geo).readout_delay_ps()
                             / NdroRegisterFile(geo).readout_delay_ps())
        assert overheads[0] > overheads[1] > overheads[2]


class TestDesignInterfaces:
    def test_cycle_time_is_53ps(self):
        for cls in DESIGNS.values():
            assert cls(GEOS["32x32"]).cycle_time_ps == 53.0

    def test_ports(self):
        geo = GEOS["32x32"]
        assert NdroRegisterFile(geo).read_ports == 1
        assert HiPerRF(geo).write_ports == 1
        assert DualBankHiPerRF(geo).read_ports == 2
        assert DualBankHiPerRF(geo).write_ports == 2

    def test_loopback_only_on_hiperrf_designs(self):
        geo = GEOS["32x32"]
        assert NdroRegisterFile(geo).loopback_path() is None
        assert HiPerRF(geo).loopback_path() is not None
        assert DualBankHiPerRF(geo).loopback_path() is not None

    def test_census_is_cached(self):
        design = HiPerRF(GEOS["16x16"])
        assert design.census() is design.census()

    def test_summary_keys(self):
        summary = HiPerRF(GEOS["16x16"]).summary()
        for key in ("jj_count", "static_power_uw", "readout_delay_ps",
                    "cycle_time_ps", "loopback_delay_ps"):
            assert key in summary

    def test_bank_of_parity(self):
        dual = DualBankHiPerRF(GEOS["32x32"])
        assert dual.bank_of(3) == 1
        assert dual.bank_of(8) == 0
        with pytest.raises(ConfigError):
            dual.bank_of(-1)

    def test_compare_designs(self):
        geo = GEOS["32x32"]
        cmp = compare_designs(NdroRegisterFile(geo), HiPerRF(geo))
        assert cmp.jj_percent_of_baseline == pytest.approx(43.93, abs=2.0)
        assert cmp.power_percent_of_baseline == pytest.approx(53.85, abs=3.0)
        assert cmp.delay_percent_of_baseline == pytest.approx(124.11, abs=3.0)

    def test_compare_designs_geometry_mismatch(self):
        with pytest.raises(ValueError):
            compare_designs(NdroRegisterFile(GEOS["4x4"]), HiPerRF(GEOS["16x16"]))


class TestCriticalPathStructure:
    def test_path_describes(self):
        text = HiPerRF(GEOS["32x32"]).readout_path().describe()
        assert "LoopBuffer" in text
        assert "total" in text

    def test_readout_hops_match_paper_wire_deltas(self):
        # Table IV deltas / 2.62 ps: 15, 19 and 17 hops.
        assert NdroRegisterFile(GEOS["32x32"]).readout_path().hop_count() == 15
        assert HiPerRF(GEOS["32x32"]).readout_path().hop_count() == 19
        assert DualBankHiPerRF(GEOS["32x32"]).readout_path().hop_count() == 17

    def test_pure_offsets_have_no_gates(self):
        path = HiPerRF(GEOS["32x32"]).readout_path()
        trains = [e for e in path.elements if "train" in e.label]
        assert trains and all(e.gate_count == 0 for e in trains)
