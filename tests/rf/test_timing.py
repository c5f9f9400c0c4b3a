"""Tests for the port control schedules (Figures 8, 11, 12)."""

import pytest

from repro.cells import params
from repro.errors import ConfigError, TimingViolationError
from repro.rf import RFGeometry, design_for
from repro.rf.timing import (
    Instr,
    PortSchedule,
    Signal,
    schedule_dual_bank,
    schedule_hiperrf,
    schedule_ndro,
)

MIXED = [Instr(1, (2, 3)), Instr(4, (1, 3)), Instr(2, (3, 3)),
         Instr(5, (2, 4)), Instr(None, (1,)), Instr(6, ())]


class TestInstr:
    def test_rejects_three_sources(self):
        with pytest.raises(ValueError):
            Instr(1, (2, 3, 4))


class TestSchedulesValidate:
    @pytest.mark.parametrize("builder", [schedule_ndro, schedule_hiperrf,
                                         schedule_dual_bank])
    def test_mixed_stream_validates(self, builder):
        builder(MIXED).validate()

    @pytest.mark.parametrize("builder", [schedule_ndro, schedule_hiperrf,
                                         schedule_dual_bank])
    def test_long_stream_validates(self, builder):
        stream = [Instr((i % 30) + 1, ((i % 7) + 1, (i % 11) + 2))
                  for i in range(200)]
        builder(stream).validate()

    def test_validation_catches_close_pulses(self):
        schedule = PortSchedule("synthetic", params.RF_CYCLE_PS)
        schedule.add(0, 0.0, Signal.REN, "read_port", 1)
        schedule.add(0, 20.0, Signal.REN, "read_port", 2)
        with pytest.raises(TimingViolationError, match="apart"):
            schedule.validate()

    def test_validation_catches_early_wen(self):
        schedule = PortSchedule("synthetic", params.RF_CYCLE_PS)
        schedule.add(0, 0.0, Signal.RESET, "reset_port", 1)
        schedule.add(1, 0.0, Signal.WEN, "write_port", 1)  # 53 ps later: fine
        schedule.validate()
        bad = PortSchedule("synthetic", params.RF_CYCLE_PS)
        bad.add(0, 0.0, Signal.RESET, "reset_port", 1)
        bad.add(0, 4.0, Signal.WEN, "write_port", 1)  # 4 ps < 10 ps
        with pytest.raises(TimingViolationError, match="trails"):
            bad.validate()


class TestNdroSchedule:
    def test_two_source_issue_interval(self):
        schedule = schedule_ndro([Instr(1, (2, 3)), Instr(4, (5, 6))])
        assert schedule.issue_intervals() == [2]

    def test_single_source_issue_interval(self):
        schedule = schedule_ndro([Instr(1, (2,)), Instr(3, (4,))])
        assert schedule.issue_intervals() == [1]

    def test_reset_precedes_wen_by_10ps(self):
        schedule = schedule_ndro([Instr(1, (2, 3))])
        reset = next(e for e in schedule.events if e.signal is Signal.RESET)
        wen = next(e for e in schedule.events if e.signal is Signal.WEN)
        assert wen.time_ps - reset.time_ps == pytest.approx(
            params.RESET_TO_WEN_PS)


class TestHiPerRFSchedule:
    def test_fixed_three_cycle_issue(self):
        schedule = schedule_hiperrf(MIXED)
        assert all(gap == 3 for gap in schedule.issue_intervals())

    def test_write_is_reset_read_then_wen(self):
        schedule = schedule_hiperrf([Instr(1, ())])
        reset_read = schedule.events[0]
        assert reset_read.signal is Signal.REN
        assert "reset" in reset_read.note
        wen = next(e for e in schedule.events if e.signal is Signal.WEN)
        assert wen.cycle == reset_read.cycle + 1

    def test_loopback_one_cycle_after_read(self):
        schedule = schedule_hiperrf([Instr(None, (5,))])
        read = next(e for e in schedule.events if e.signal is Signal.REN)
        loop = next(e for e in schedule.events if e.signal is Signal.LOOPBACK)
        assert loop.cycle == read.cycle + 1
        assert loop.register == read.register

    def test_rar_duplication_single_read(self):
        # R2 = R3 + R3 must read R3 only once (Section IV-D).
        schedule = schedule_hiperrf([Instr(2, (3, 3))])
        reads = [e for e in schedule.events
                 if e.signal is Signal.REN and e.register == 3]
        assert len(reads) == 1


class TestDualBankSchedule:
    def test_cross_bank_two_cycles(self):
        # Sources 2 (even bank) and 3 (odd bank): 2-cycle issue.
        schedule = schedule_dual_bank([Instr(1, (2, 3)), Instr(4, (5, 6))])
        assert schedule.issue_intervals() == [2]

    def test_same_bank_four_cycles(self):
        # Sources 2 and 4 share a bank: 4-cycle issue (Section V-B).
        schedule = schedule_dual_bank([Instr(1, (2, 4)), Instr(3, (5, 6))])
        assert schedule.issue_intervals() == [4]

    def test_reads_split_across_bank_ports(self):
        schedule = schedule_dual_bank([Instr(None, (2, 3))])
        ports = {e.port for e in schedule.events if e.signal is Signal.REN}
        assert ports == {"read_port_b0", "read_port_b1"}

    def test_cross_bank_reads_same_cycle(self):
        schedule = schedule_dual_bank([Instr(None, (2, 3))])
        cycles = [e.cycle for e in schedule.events if e.signal is Signal.REN]
        assert cycles[0] == cycles[1]


class TestIssueCyclesFor:
    @staticmethod
    def issue_cycles(name, srcs):
        return design_for(name, RFGeometry(32, 32)).issue_cycles(srcs)

    def test_baseline(self):
        assert self.issue_cycles("ndro_rf", (2, 3)) == 2
        assert self.issue_cycles("ndro_rf", (2,)) == 1
        assert self.issue_cycles("ndro_rf", ()) == 1
        assert self.issue_cycles("ndro_rf", (3, 3)) == 1  # RAR dedup

    def test_hiperrf_always_three(self):
        assert self.issue_cycles("hiperrf", (2, 3)) == 3
        assert self.issue_cycles("hiperrf", ()) == 3

    def test_dual_bank(self):
        assert self.issue_cycles("dual_bank_hiperrf", (2, 3)) == 2
        assert self.issue_cycles("dual_bank_hiperrf", (2, 4)) == 4
        assert self.issue_cycles("dual_bank_hiperrf", (3, 3)) == 2

    def test_ideal_dual_bank_always_two(self):
        assert self.issue_cycles("dual_bank_hiperrf_ideal", (2, 4)) == 2

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            self.issue_cycles("cmos_rf", (2, 3))


class TestRendering:
    def test_render_contains_ports_and_tags(self):
        text = schedule_hiperrf(MIXED).render()
        assert "read_port" in text
        assert "write_port" in text
        assert "REN" in text
        assert "LOOP" in text

    def test_event_str(self):
        schedule = schedule_hiperrf([Instr(1, (2,))])
        assert "REN" in str(schedule.events[0])
