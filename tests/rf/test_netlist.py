"""Pulse-level functional verification of the register file netlists.

This mirrors the paper's Verilog functional verification (Section VI):
write/read every register with assorted patterns, check non-destructive
behaviour, loopback restoration, erase-by-read and overwrites.
"""

import pytest

from repro.errors import ConfigError
from repro.pulse import Engine
from repro.rf.geometry import RFGeometry
from repro.rf.netlist import PulseDualBankHiPerRF, PulseHiPerRF, PulseNdroRF

PATTERNS_8 = [0x00, 0xA5, 0xFF, 0x3C, 0x01, 0x80, 0x55, 0x7E]


class TestPulseNdroRF:
    @pytest.fixture
    def rf(self):
        engine = Engine()
        return PulseNdroRF(engine, RFGeometry(8, 8))

    def test_write_read_all_registers(self, rf):
        t = 0.0
        for r, value in enumerate(PATTERNS_8):
            rf.schedule_write(r, value, t)
            t += rf.op_period_ps
        rf.engine.run(until_ps=t)
        for r, value in enumerate(PATTERNS_8):
            assert rf.read_word(r, t) == value
            t += rf.op_period_ps

    def test_reads_are_non_destructive(self, rf):
        t = 0.0
        rf.schedule_write(3, 0x5A, t)
        t += rf.op_period_ps
        rf.engine.run(until_ps=t)
        for _ in range(4):
            assert rf.read_word(3, t) == 0x5A
            t += rf.op_period_ps

    def test_overwrite(self, rf):
        t = 0.0
        rf.schedule_write(2, 0xFF, t)
        t += rf.op_period_ps
        rf.schedule_write(2, 0x0F, t)
        t += rf.op_period_ps
        rf.engine.run(until_ps=t)
        assert rf.read_word(2, t) == 0x0F

    def test_unwritten_register_reads_zero(self, rf):
        assert rf.read_word(5, 0.0) == 0

    def test_write_isolation(self, rf):
        # Writing one register must not disturb neighbours.
        t = 0.0
        rf.schedule_write(0, 0xFF, t)
        t += rf.op_period_ps
        rf.engine.run(until_ps=t)
        assert rf.stored_word(1) == 0
        assert rf.stored_word(7) == 0

    def test_value_range_checked(self, rf):
        with pytest.raises(ConfigError):
            rf.schedule_write(0, 0x100, 0.0)


class TestPulseHiPerRF:
    @pytest.fixture
    def rf(self):
        engine = Engine()
        return PulseHiPerRF(engine, RFGeometry(8, 8))

    def test_write_read_all_registers(self, rf):
        t = 0.0
        for r, value in enumerate(PATTERNS_8):
            t = rf.write_word(r, value, t)
        assert [rf.stored_word(r) for r in range(8)] == PATTERNS_8
        for r, value in enumerate(PATTERNS_8):
            assert rf.read_word(r, t) == value
            t += 2 * rf.op_period_ps

    def test_loopback_restores_after_each_read(self, rf):
        """The HC-DRO read is destructive; the LoopBuffer must restore it."""
        t = rf.write_word(4, 0xC3, 0.0)
        for _ in range(4):
            assert rf.read_word(4, t) == 0xC3
            t += 2 * rf.op_period_ps
        assert rf.stored_word(4) == 0xC3

    def test_read_without_loopback_erases(self, rf):
        """LoopBuffer reset to 0 dissipates the readout: the erase step."""
        t = rf.write_word(4, 0xC3, 0.0)
        rf.schedule_read(4, t, loopback=False)
        rf.engine.run(until_ps=t + rf.op_period_ps)
        assert rf.stored_word(4) == 0

    def test_overwrite_replaces_value(self, rf):
        t = rf.write_word(2, 0xFF, 0.0)
        t = rf.write_word(2, 0x12, t)
        assert rf.read_word(2, t) == 0x12

    def test_two_bit_cell_packing(self, rf):
        # Register width 8 -> 4 HC-DRO columns, each holding 0-3 fluxons.
        t = rf.write_word(1, 0b11100100, 0.0)  # columns encode 0,1,2,3
        assert [cell.stored_value for cell in rf.cells[1]] == [0, 1, 2, 3]

    def test_unwritten_register_reads_zero(self, rf):
        assert rf.read_word(6, 0.0) == 0

    def test_write_isolation(self, rf):
        t = rf.write_word(3, 0xFF, 0.0)
        assert rf.stored_word(2) == 0
        assert rf.stored_word(4) == 0

    def test_value_range_checked(self, rf):
        with pytest.raises(ConfigError):
            rf.schedule_write(0, 1 << 8, 0.0)

    @pytest.mark.parametrize("value", [0x00, 0x03, 0x30, 0xFC, 0xFF])
    def test_assorted_patterns_roundtrip(self, rf, value):
        t = rf.write_word(5, value, 0.0)
        assert rf.read_word(5, t) == value

    def test_probed_reads_decode_from_the_probes(self, rf):
        """A probed read leaves its value on the b0/b1 probes, each read
        in its own window, and restores the register like ``read_word``."""
        t = rf.write_word(3, 0xA5, 0.0)
        t = rf.write_word(6, 0x1E, t)
        settles = []
        for register in (3, 6, 3):
            settles.append(rf.probed_read(register, t))
            t += 2 * rf.op_period_ps
        assert [rf.probe_word(settle) for settle in settles] == \
            [0xA5, 0x1E, 0xA5]
        assert (rf.stored_word(3), rf.stored_word(6)) == (0xA5, 0x1E)


class TestPulseDualBankHiPerRF:
    @pytest.fixture
    def rf(self):
        return PulseDualBankHiPerRF(RFGeometry(8, 8))

    def test_parity_routing(self, rf):
        assert rf._locate(0) == (0, 0)
        assert rf._locate(1) == (1, 0)
        assert rf._locate(6) == (0, 3)
        assert rf._locate(7) == (1, 3)

    def test_write_read_all_registers(self, rf):
        t = 0.0
        for r, value in enumerate(PATTERNS_8):
            t = rf.write_word(r, value, t)
        for r, value in enumerate(PATTERNS_8):
            assert rf.read_word(r, t) == value
            t += 2 * rf.op_period_ps

    def test_banks_are_independent(self, rf):
        t0 = rf.write_word(0, 0xAA, 0.0)  # bank 0
        t1 = rf.write_word(1, 0x55, 0.0)  # bank 1: same time is legal
        assert rf.stored_word(0) == 0xAA
        assert rf.stored_word(1) == 0x55

    def test_loopback_within_bank(self, rf):
        t = rf.write_word(5, 0x99, 0.0)
        assert rf.read_word(5, t) == 0x99
        assert rf.stored_word(5) == 0x99

    def test_too_small_geometry_rejected(self):
        with pytest.raises(ConfigError):
            PulseDualBankHiPerRF(RFGeometry(2, 4))
