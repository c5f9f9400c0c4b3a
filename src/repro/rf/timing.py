"""Port control-signal schedules (paper Figures 8, 11 and 12).

The register file ports are pipelined NDROC trees that accept one enable
pulse per 53 ps cycle.  Within a cycle, a write's RESET (or HiPerRF's
reset-read) must precede the WEN pulse by 10 ps.  This module generates
the pulse-accurate control schedules the paper draws:

* :func:`schedule_ndro` - baseline (Figure 8): writes issue RESET then WEN
  in one cycle; the two source reads occupy consecutive cycles on the
  single read port, overlapping the next instruction's write.
* :func:`schedule_hiperrf` - HiPerRF (Figure 11): a write becomes a
  reset-read (cycle 1) followed by WEN (cycle 2); source reads trigger
  loopback writes one cycle later, so instructions issue every 3 cycles.
* :func:`schedule_dual_bank` - dual-banked HiPerRF (Figure 12): two reads
  in one cycle when the sources sit in different (parity) banks, with
  alternate cycles reserved for write-back resets; 2-cycle issue for
  cross-bank readers, 4-cycle for same-bank readers.

The schedules are validated against the device constraints.  Each design
states the same static schedule in closed form (``issue_cycles`` and
``read_slots`` on :class:`~repro.rf.base.RegisterFileDesign`), which is
what :mod:`repro.cpu` charges per instruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cells import params
from repro.errors import ConfigError, TimingViolationError


class Signal(enum.Enum):
    """Register file control signals."""

    RESET = "RESET"
    REN = "REN"
    WEN = "WEN"
    LOOPBACK = "LOOPBACK"


@dataclass(frozen=True)
class PortEvent:
    """One control pulse on one register-file port."""

    cycle: int
    time_ps: float
    signal: Signal
    port: str
    register: int
    note: str = ""

    def __str__(self) -> str:
        extra = f"  ({self.note})" if self.note else ""
        return (f"cycle {self.cycle:3d}  t={self.time_ps:8.1f} ps  "
                f"{self.signal.value:8s} {self.port:12s} r{self.register}{extra}")


@dataclass(frozen=True)
class Instr:
    """A register-access pseudo-instruction: one destination, up to two sources."""

    dest: Optional[int]
    srcs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.srcs) > 2:
            raise ValueError(f"at most two source registers, got {self.srcs}")
        if self.dest is not None and self.dest < 0:
            raise ConfigError(f"negative destination register {self.dest}")
        for src in self.srcs:
            if src < 0:
                raise ConfigError(f"negative source register {src}")

    def registers(self) -> Tuple[int, ...]:
        """Every register this instruction touches (dest first)."""
        regs = () if self.dest is None else (self.dest,)
        return regs + self.srcs


@dataclass
class PortSchedule:
    """A generated control schedule plus per-instruction issue bookkeeping."""

    design: str
    cycle_time_ps: float
    events: List[PortEvent] = field(default_factory=list)
    #: cycle at which instruction i issued its first control pulse
    issue_cycles: List[int] = field(default_factory=list)

    def add(self, cycle: int, offset_ps: float, signal: Signal, port: str,
            register: int, note: str = "") -> None:
        self.events.append(PortEvent(
            cycle=cycle,
            time_ps=cycle * self.cycle_time_ps + offset_ps,
            signal=signal,
            port=port,
            register=register,
            note=note,
        ))

    def total_cycles(self) -> int:
        if not self.events:
            return 0
        return max(e.cycle for e in self.events) + 1

    def issue_intervals(self) -> List[int]:
        """Cycles between consecutive instruction issues."""
        return [b - a for a, b in zip(self.issue_cycles, self.issue_cycles[1:])]

    def events_on(self, port: str) -> List[PortEvent]:
        return [e for e in self.events if e.port == port]

    def validate(self) -> None:
        """Check the device constraints the paper's Section III-E/IV-D state.

        * Two enable pulses entering the same port DEMUX must be at least
          53 ps apart (NDROC throughput limit).
        * A WEN pulse must trail the same register's RESET (or reset-read)
          by at least 10 ps.

        Raises
        ------
        TimingViolationError
            On the first violated constraint.
        """
        min_sep = params.NDROC_MIN_ENABLE_SEPARATION_PS
        ports = {e.port for e in self.events}
        for port in ports:
            times = sorted(e.time_ps for e in self.events_on(port)
                           if e.signal in (Signal.REN, Signal.WEN, Signal.RESET,
                                            Signal.LOOPBACK))
            for a, b in zip(times, times[1:]):
                if b - a + 1e-9 < min_sep:
                    raise TimingViolationError(
                        f"{self.design}: port {port!r} enable pulses {a:.1f} ps and "
                        f"{b:.1f} ps are {b - a:.1f} ps apart (< {min_sep} ps)")
        # WEN after RESET/reset-read of the same register.
        resets = [(e.register, e.time_ps) for e in self.events
                  if e.signal == Signal.RESET
                  or (e.signal == Signal.REN and "reset" in e.note)]
        for wen in (e for e in self.events if e.signal == Signal.WEN):
            earlier = [t for reg, t in resets
                       if reg == wen.register and t < wen.time_ps]
            if not earlier:
                continue
            gap = wen.time_ps - max(earlier)
            if gap + 1e-9 < params.RESET_TO_WEN_PS:
                raise TimingViolationError(
                    f"{self.design}: WEN for r{wen.register} trails its reset by "
                    f"{gap:.1f} ps (< {params.RESET_TO_WEN_PS} ps)")

    def render(self, max_cycles: int = 12) -> str:
        """ASCII timeline of the schedule (one row per port)."""
        ports = sorted({e.port for e in self.events})
        total = min(self.total_cycles(), max_cycles)
        width = 14
        header = "port".ljust(16) + "".join(
            f"c{c}".center(width) for c in range(total))
        lines = [header]
        for port in ports:
            cells = ["" for _ in range(total)]
            for event in self.events_on(port):
                if event.cycle >= total:
                    continue
                tag = f"{event.signal.value[:4]}:r{event.register}"
                cells[event.cycle] = (cells[event.cycle] + " " + tag).strip()
            lines.append(port.ljust(16) + "".join(c.center(width) for c in cells))
        return "\n".join(lines)


def _check_register_range(instrs: Sequence[Instr],
                          num_registers: Optional[int],
                          design: str) -> None:
    """Reject instructions addressing registers the file does not have.

    The NDROC-tree DEMUX silently misroutes an out-of-range address (the
    enable pulse exits a wrong leaf), so the scheduler refuses to encode
    one rather than generate a schedule that corrupts another register.
    """
    if num_registers is None:
        return
    if num_registers < 1:
        raise ConfigError(f"{design}: num_registers must be >= 1, "
                          f"got {num_registers}")
    for i, instr in enumerate(instrs):
        for reg in instr.registers():
            if reg >= num_registers:
                raise ConfigError(
                    f"{design}: instruction {i} addresses r{reg} but the "
                    f"register file has only {num_registers} registers")


def dedup_sources(srcs: Sequence[int]) -> Tuple[int, ...]:
    """Collapse Read-After-Read duplicates (R2 = R3 + R3 reads R3 once).

    The paper (Section IV-D): the second read of the same register would
    find an empty cell because the loopback has not landed yet, so the
    first readout is duplicated instead of re-reading.
    """
    return tuple(dict.fromkeys(srcs))


def schedule_ndro(instrs: Sequence[Instr],
                  num_registers: Optional[int] = None) -> PortSchedule:
    """Baseline NDRO RF schedule (Figure 8).

    Per instruction: RESET(dest) at cycle start, WEN(dest) 10 ps later,
    REN(src1) in the same cycle on the read port, REN(src2) the following
    cycle.  Because the single read port serves at most one read per
    cycle, two-source instructions issue every 2 cycles, single/zero
    source instructions every cycle.

    ``num_registers``, when given, bounds the addressable register
    indices; out-of-range instructions raise :class:`ConfigError`.
    """
    _check_register_range(instrs, num_registers, "ndro_rf")
    schedule = PortSchedule("ndro_rf", params.RF_CYCLE_PS)
    cycle = 0
    for instr in instrs:
        schedule.issue_cycles.append(cycle)
        if instr.dest is not None:
            schedule.add(cycle, 0.0, Signal.RESET, "reset_port", instr.dest,
                         note="clear before write")
            schedule.add(cycle, params.RESET_TO_WEN_PS, Signal.WEN,
                         "write_port", instr.dest,
                         note="write-back (internal forwarding possible)")
        srcs = dedup_sources(instr.srcs)
        for offset, src in enumerate(srcs):
            schedule.add(cycle + offset, params.RESET_TO_WEN_PS + 5.0,
                         Signal.REN, "read_port", src)
        cycle += max(len(srcs), 1)
    return schedule


def schedule_hiperrf(instrs: Sequence[Instr],
                     num_registers: Optional[int] = None) -> PortSchedule:
    """HiPerRF schedule (Figure 11): a fixed 3-cycle issue pattern.

    cycle 0: REN(dest) - destructive reset-read through the LoopBuffer
    cycle 1: WEN(dest) + REN(src1); loopback(src1) lands in cycle 2
    cycle 2: REN(src2); loopback(src2) lands in cycle 3

    The write port in cycle ``i+3`` is free again: loopback writes use the
    cycles the static pattern reserves, eliminating dynamic contention.

    ``num_registers``, when given, bounds the addressable register
    indices; out-of-range instructions raise :class:`ConfigError`.
    """
    _check_register_range(instrs, num_registers, "hiperrf")
    schedule = PortSchedule("hiperrf", params.RF_CYCLE_PS)
    cycle = 0
    for instr in instrs:
        schedule.issue_cycles.append(cycle)
        if instr.dest is not None:
            schedule.add(cycle, 0.0, Signal.REN, "read_port", instr.dest,
                         note="reset-read: LoopBuffer dissipates old value")
            schedule.add(cycle + 1, 0.0, Signal.WEN, "write_port", instr.dest,
                         note="write-back of new value")
        srcs = dedup_sources(instr.srcs)
        for offset, src in enumerate(srcs):
            read_cycle = cycle + 1 + offset
            schedule.add(read_cycle, 0.0, Signal.REN, "read_port", src)
            schedule.add(read_cycle + 1, 0.0,
                         Signal.LOOPBACK, "write_port", src,
                         note="loopback restores the value")
        cycle += 3
    return schedule


def schedule_dual_bank(instrs: Sequence[Instr],
                       num_registers: Optional[int] = None) -> PortSchedule:
    """Dual-banked HiPerRF schedule (Figure 12).

    Registers are parity-split: odd registers in bank 0, even in bank 1
    (Section V-B labels banks by parity; only the split matters).  Even
    cycles carry write-back reset-reads, odd cycles carry source reads.
    An instruction whose sources sit in different banks reads both in one
    cycle (2-cycle issue); same-bank sources serialise on one bank port
    (4-cycle issue).

    ``num_registers``, when given, bounds the addressable register
    indices; out-of-range instructions raise :class:`ConfigError`.
    """
    _check_register_range(instrs, num_registers, "dual_bank_hiperrf")
    schedule = PortSchedule("dual_bank_hiperrf", params.RF_CYCLE_PS)
    cycle = 0
    for instr in instrs:
        schedule.issue_cycles.append(cycle)
        if instr.dest is not None:
            bank = instr.dest & 1
            schedule.add(cycle, 0.0, Signal.REN, f"read_port_b{bank}",
                         instr.dest, note="reset-read")
            schedule.add(cycle + 1, 0.0, Signal.WEN, f"write_port_b{bank}",
                         instr.dest, note="write-back")
        srcs = dedup_sources(instr.srcs)
        banks = [s & 1 for s in srcs]
        same_bank = len(srcs) == 2 and banks[0] == banks[1]
        for idx, src in enumerate(srcs):
            # Cross-bank: both reads in cycle+1.  Same-bank: second read
            # waits for the next read slot of that bank (cycle+3); the
            # intervening cycle is reserved for the next write-back reset.
            read_cycle = cycle + 1 + (2 * idx if same_bank else 0)
            schedule.add(read_cycle, 0.0, Signal.REN,
                         f"read_port_b{src & 1}", src)
            schedule.add(read_cycle + 1, 0.0,
                         Signal.LOOPBACK, f"write_port_b{src & 1}", src,
                         note="loopback restores the value")
        cycle += 4 if same_bank else 2
    return schedule
