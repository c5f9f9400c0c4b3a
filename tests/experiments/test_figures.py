"""Shape tests for Figures 14/15, the timing figures and the analog study."""

import pytest

from repro.experiments import figure14, figure15, fullchip, josim_cells, \
    timing_figs
from repro.experiments import paper_data


class TestFigure14:
    @pytest.fixture(scope="class")
    def result(self):
        # Scale 0.6 keeps the sweep quick while preserving the profile.
        return figure14.run(scale=0.6, max_instructions=300_000)

    def test_all_workloads_present(self, result):
        assert len(result.baseline_cpi) == 12

    def test_baseline_cpi_near_paper(self, result):
        # Paper: "about 30 cycles averaged across all the benchmarks".
        assert 18.0 <= result.average_baseline_cpi() <= 38.0

    def test_average_overheads_near_paper(self, result):
        # Paper: HiPerRF +9.8%, dual-banked +3.6%, ideal +2.3%.
        assert result.average_overhead("hiperrf") == pytest.approx(9.8, abs=3.0)
        assert result.average_overhead("dual_bank_hiperrf") == \
            pytest.approx(3.6, abs=2.5)
        assert result.average_overhead("dual_bank_hiperrf_ideal") == \
            pytest.approx(2.3, abs=2.5)

    def test_ordering(self, result):
        hiper = result.average_overhead("hiperrf")
        dual = result.average_overhead("dual_bank_hiperrf")
        ideal = result.average_overhead("dual_bank_hiperrf_ideal")
        assert hiper > dual > ideal

    def test_dual_bank_recovers_majority_of_overhead(self, result):
        hiper = result.average_overhead("hiperrf")
        dual = result.average_overhead("dual_bank_hiperrf")
        assert dual < 0.65 * hiper

    def test_render(self, result):
        text = figure14.render(result)
        assert "Figure 14" in text
        assert "mcf" in text and "average" in text

    def test_render_columns_aligned(self, result):
        """Header names fill their full 20-char cells, so every design
        column lines up with its data (an 18-char truncation once left
        the long 'dual_bank_hiperrf_ideal' header two cells short)."""
        lines = figure14.render(result).splitlines()
        header = lines[2]
        designs = list(result.overhead_percent)
        prefix = len(f"{'benchmark':12s} {'base CPI':>9s}")
        assert len(header) == prefix + 21 * len(designs)
        for j, design in enumerate(designs):
            cell = header[prefix + 21 * j:prefix + 21 * (j + 1)]
            assert cell.strip() == design[:20]
        n_rows = len(result.baseline_cpi)
        table = lines[4:4 + n_rows] + [lines[5 + n_rows]]   # rows + average
        for row in table:
            assert len(row) == len(header)
            for j in range(len(designs)):
                assert row[prefix + 21 * (j + 1) - 1] == "%"


class TestFigure15:
    def test_loopback_wire_short(self):
        result = figure15.run()
        assert result["longest_wire_delay_ps"] == pytest.approx(
            paper_data.FIGURE15_LONGEST_LOOPBACK_WIRE_PS, abs=1.5)
        assert result["longest_wire_delay_ps"] < result["decoder_latency_ps"]

    def test_render(self):
        text = figure15.render()
        assert "Figure 15" in text and "loopbuffer_ndro" in text

    def test_loopback_read_sweep_lanes(self):
        """The functional companion: N restoring reads keep the value."""
        rows = figure15.loopback_read_sweep([1, 2, 5])
        assert [row["reads"] for row in rows] == [1, 2, 5]
        for row in rows:
            assert row["reads_ok"] == 1.0
            assert row["restored"] == 1.0


class TestFullChip:
    def test_result(self):
        result = fullchip.run()
        assert result["saving_percent"] == pytest.approx(16.3, abs=0.5)

    def test_render(self):
        text = fullchip.render()
        assert "Full-chip" in text and "register_file" in text


class TestTimingFigs:
    def test_schedules_validate_and_render(self):
        schedules = timing_figs.run()
        assert set(schedules) == {"figure8_ndro", "figure11_hiperrf",
                                  "figure12_dual_bank"}
        text = timing_figs.render(schedules)
        assert "figure11_hiperrf" in text and "LOOP" in text

    def test_issue_patterns(self):
        schedules = timing_figs.run()
        assert all(i == 3 for i in
                   schedules["figure11_hiperrf"].issue_intervals())
        assert all(i in (2, 4) for i in
                   schedules["figure12_dual_bank"].issue_intervals())


class TestJosimExperiment:
    @pytest.fixture(scope="class")
    def rows(self):
        return josim_cells.run()

    def test_capacity_curve(self, rows):
        for row in rows:
            expected = min(row["writes"], paper_data.HCDRO_CAPACITY_FLUXONS)
            assert row["stored"] == expected
            assert row["output_pulses"] == expected
            assert row["left_after_reads"] == 0

    def test_render_reports_reproduced(self, rows):
        assert "REPRODUCED" in josim_cells.render(rows)
