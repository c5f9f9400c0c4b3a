"""Pulse-level structural netlists of the register file designs.

These are the functional-verification models standing in for the paper's
Verilog netlists: full storage arrays, NDROC-tree DEMUX ports, splitter
and merger trees, DAND write gating, and - for HiPerRF - the HC-CLK /
HC-WRITE / HC-READ circuits and the LoopBuffer with a live loopback path.

The drivers below run one port operation per generous ``op_period_ps``
window rather than at the 53 ps pipelined rate; pipelined operation is
validated at the schedule level (:mod:`repro.rf.timing`) and at the
single-NDROC level, while these netlists verify *data* behaviour:
destructive vs non-destructive readout, loopback restore, erase-by-read,
and write-data coincidence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cells import params
from repro.errors import ConfigError
from repro.pulse import (
    DAND,
    Engine,
    HCDRO,
    HCClk,
    HCRead,
    HCWrite,
    MergeTree,
    NDRO,
    NdrocDemux,
    Probe,
    SplitTree,
)
from repro.rf.geometry import RFGeometry, log2_int

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.pulse.cache import CompiledNetlistCache

_SPL = params.DELAY_PS["splitter"]
_MRG = params.DELAY_PS["merger"]
_NDROC = params.NDROC_PROPAGATION_PS
_CLKQ = params.DELAY_PS["ndro_clk_to_q"]
_DAND = params.DELAY_PS["dand"]
#: Insertion delay of the first pulse through HC-CLK / HC-WRITE
#: (splitter + two mergers, as built in repro.pulse.hc_circuits).
_HC_FIRST = _SPL + 2 * _MRG
_HCW_FIRST = 2 * _MRG


class _CachedBuildMixin:
    """Build-once construction through :mod:`repro.pulse.cache`.

    ``build_cached`` returns a *shared*, compiled instance: the first
    call elaborates the netlist, later calls with the same key restore
    the pristine snapshot (state, queue and clock rewind) instead of
    re-elaborating.  Callers must finish with the instance before
    requesting the same key again.
    """

    @classmethod
    def build_key(cls, geometry: RFGeometry, op_period_ps: float,
                  strict_timing: bool = True) -> Tuple[object, ...]:
        """Hashable identity of one build: topology + engine semantics."""
        return (cls.__name__, geometry, op_period_ps, strict_timing)

    @classmethod
    def build_cached(cls, geometry: RFGeometry, op_period_ps: float,
                     strict_timing: bool = True,
                     cache: Optional["CompiledNetlistCache"] = None):
        from repro.pulse.cache import DEFAULT_CACHE

        store = DEFAULT_CACHE if cache is None else cache

        def builder() -> Tuple[Engine, object]:
            engine = Engine(strict_timing=strict_timing)
            return engine, cls(engine, geometry, op_period_ps)  # type: ignore[call-arg]

        _engine, rf = store.build_once(
            cls.build_key(geometry, op_period_ps, strict_timing), builder)
        return rf

    @classmethod
    def checkout_cached(cls, geometry: RFGeometry, op_period_ps: float,
                        strict_timing: bool = True,
                        cache: Optional["CompiledNetlistCache"] = None):
        """Context manager: exclusive pristine use of the cached build.

        Thread-safe variant of ``build_cached`` for concurrent jobs
        (the simulation service): a per-key lock serialises users of
        one netlist and every checkout restores the pristine snapshot,
        so interleaved jobs cannot leak state into each other.  Yields
        the driver object; do not use it after the ``with`` block.
        """
        from contextlib import contextmanager

        from repro.pulse.cache import DEFAULT_CACHE

        store = DEFAULT_CACHE if cache is None else cache

        def builder() -> Tuple[Engine, object]:
            engine = Engine(strict_timing=strict_timing)
            return engine, cls(engine, geometry, op_period_ps)  # type: ignore[call-arg]

        @contextmanager
        def lease():
            with store.checkout(
                    cls.build_key(geometry, op_period_ps, strict_timing),
                    builder) as (_engine, rf):
                yield rf

        return lease()


class PulseNdroRF(_CachedBuildMixin):
    """Pulse-level model of the baseline NDRO register file (Figure 4)."""

    def __init__(self, engine: Engine, geometry: RFGeometry,
                 op_period_ps: float = 400.0) -> None:
        self.engine = engine
        self.geometry = geometry
        self.op_period_ps = op_period_ps
        n, w = geometry.num_registers, geometry.width_bits

        # Storage array.
        self.cells: List[List[NDRO]] = [
            [engine.add(NDRO(f"rf.r{r}b{b}")) for b in range(w)]
            for r in range(n)
        ]

        # Read port: DEMUX -> per-register fan-out -> cell CLK pins.
        self.read_demux = NdrocDemux(engine, "rf.rd", n)
        for r in range(n):
            tree = SplitTree(engine, f"rf.rdfan{r}", w)
            comp, port = self.read_demux.leaf(r)
            comp.connect(port, tree.inp[0], tree.inp[1])
            for b in range(w):
                tree.connect_output(b, self.cells[r][b], "clk")

        # Reset port: DEMUX -> per-register fan-out -> cell RESET pins.
        self.reset_demux = NdrocDemux(engine, "rf.rs", n)
        for r in range(n):
            tree = SplitTree(engine, f"rf.rsfan{r}", w)
            comp, port = self.reset_demux.leaf(r)
            comp.connect(port, tree.inp[0], tree.inp[1])
            for b in range(w):
                tree.connect_output(b, self.cells[r][b], "reset")

        # Write port: WEN DEMUX -> fan-out -> DAND.a; W_DATA -> fan-out -> DAND.b.
        self.write_demux = NdrocDemux(engine, "rf.wr", n)
        self.dands: List[List[DAND]] = [
            [engine.add(DAND(f"rf.w{r}b{b}")) for b in range(w)]
            for r in range(n)
        ]
        for r in range(n):
            tree = SplitTree(engine, f"rf.wrfan{r}", w)
            comp, port = self.write_demux.leaf(r)
            comp.connect(port, tree.inp[0], tree.inp[1])
            for b in range(w):
                tree.connect_output(b, self.dands[r][b], "a")
                self.dands[r][b].connect("out", self.cells[r][b], "set")
        self.data_trees: List[SplitTree] = []
        for b in range(w):
            tree = SplitTree(engine, f"rf.data{b}", n)
            for r in range(n):
                tree.connect_output(r, self.dands[r][b], "b")
            self.data_trees.append(tree)

        # Output port: per-bit merger trees into R_DATA probes.
        self.out_probes: List[Probe] = []
        for b in range(w):
            tree = MergeTree(engine, f"rf.out{b}", n)
            for r in range(n):
                tree.connect_input(r, self.cells[r][b], "out")
            probe = engine.add(Probe(f"rf.rdata{b}"))
            comp, port = tree.out
            comp.connect(port, probe, "in")
            self.out_probes.append(probe)

        self._fanout_delay = log2_int(w) * _SPL if w > 1 else 0.0
        self._data_fan_delay = log2_int(n) * _SPL
        self._demux_delay = self.read_demux.depth * _NDROC

    def external_inputs(self) -> List[tuple]:
        """Stimulus entry pins for static analysis (``repro.lint``)."""
        pins: List[tuple] = []
        pins.extend(self.read_demux.external_inputs())
        pins.extend(self.reset_demux.external_inputs())
        pins.extend(self.write_demux.external_inputs())
        pins.extend(tree.inp for tree in self.data_trees)
        return pins

    # -- operations ----------------------------------------------------

    def schedule_read(self, address: int, t: float) -> float:
        """Read ``address``; returns the time the output word is stable."""
        self.read_demux.apply_select(address, t)
        self.read_demux.fire(t + 5.0)
        self.read_demux.apply_reset(t + self.op_period_ps - 20.0)
        arrival = (t + 5.0 + self._demux_delay + self._fanout_delay
                   + _CLKQ + log2_int(self.geometry.num_registers) * _MRG)
        return arrival + 10.0

    def schedule_write(self, address: int, value: int, t: float) -> None:
        """Reset ``address`` then write ``value`` into it."""
        width = self.geometry.width_bits
        if not 0 <= value < (1 << width):
            raise ConfigError(f"value {value:#x} exceeds {width} bits")
        # Reset port clears the entry first.
        self.reset_demux.apply_select(address, t)
        self.reset_demux.fire(t + 5.0)
        self.reset_demux.apply_reset(t + self.op_period_ps - 20.0)
        # WEN follows the reset by the RESET->WEN separation.
        wen_fire = t + 5.0 + params.RESET_TO_WEN_PS
        self.write_demux.apply_select(address, t)
        self.write_demux.fire(wen_fire)
        self.write_demux.apply_reset(t + self.op_period_ps - 20.0)
        # Inject data pulses timed to coincide with WEN at the DANDs.
        wen_arrival = wen_fire + self._demux_delay + self._fanout_delay
        data_inject = wen_arrival - self._data_fan_delay
        for b in range(width):
            if value & (1 << b):
                comp, port = self.data_trees[b].inp
                self.engine.schedule(comp, port, data_inject)

    def read_word(self, address: int, t: float) -> int:
        """Convenience: run a read to completion and decode the output word."""
        start_counts = [probe.count for probe in self.out_probes]
        done = self.schedule_read(address, t)
        self.engine.run(until_ps=t + self.op_period_ps)
        value = 0
        for b, probe in enumerate(self.out_probes):
            if probe.count > start_counts[b]:
                value |= 1 << b
        return value

    def stored_word(self, address: int) -> int:
        """Direct state observation (white-box, for test assertions)."""
        value = 0
        for b, cell in enumerate(self.cells[address]):
            if cell.stored:
                value |= 1 << b
        return value


class PulseHiPerRF(_CachedBuildMixin):
    """Pulse-level model of HiPerRF (Figure 9) with a live loopback path."""

    def __init__(self, engine: Engine, geometry: RFGeometry,
                 op_period_ps: float = 600.0) -> None:
        self.engine = engine
        self.geometry = geometry
        self.op_period_ps = op_period_ps
        n = geometry.num_registers
        self.columns = geometry.hc_cells_per_register

        # Storage array: n registers x (w/2) HC-DRO cells.
        self.cells: List[List[HCDRO]] = [
            [engine.add(HCDRO(f"hp.r{r}c{c}")) for c in range(self.columns)]
            for r in range(n)
        ]

        # Read port: DEMUX -> HC-CLK -> per-register fan-out -> cell CLK.
        self.read_demux = NdrocDemux(engine, "hp.rd", n)
        for r in range(n):
            hcclk = HCClk(engine, f"hp.rdclk{r}")
            comp, port = self.read_demux.leaf(r)
            comp.connect(port, hcclk.inp[0], hcclk.inp[1])
            tree = SplitTree(engine, f"hp.rdfan{r}", self.columns)
            hcclk.connect_output(tree.inp[0], tree.inp[1])
            for c in range(self.columns):
                tree.connect_output(c, self.cells[r][c], "clk")

        # Write port: DEMUX -> HC-CLK -> fan-out -> DAND.a.
        self.write_demux = NdrocDemux(engine, "hp.wr", n)
        self.dands: List[List[DAND]] = [
            [engine.add(DAND(f"hp.w{r}c{c}")) for c in range(self.columns)]
            for r in range(n)
        ]
        for r in range(n):
            hcclk = HCClk(engine, f"hp.wrclk{r}")
            comp, port = self.write_demux.leaf(r)
            comp.connect(port, hcclk.inp[0], hcclk.inp[1])
            tree = SplitTree(engine, f"hp.wrfan{r}", self.columns)
            hcclk.connect_output(tree.inp[0], tree.inp[1])
            for c in range(self.columns):
                tree.connect_output(c, self.dands[r][c], "a")
                self.dands[r][c].connect("out", self.cells[r][c], "d")

        # Per-column write data path: HC-WRITE -> merger(with loopback)
        # -> fan-out across registers -> DAND.b.
        self.hc_writes: List[HCWrite] = []
        self.data_trees: List[SplitTree] = []
        from repro.pulse.primitives import Merger  # local to avoid cycle noise

        self.write_mergers: List[Merger] = []
        for c in range(self.columns):
            hcw = HCWrite(engine, f"hp.hcw{c}")
            merger = engine.add(Merger(f"hp.wmrg{c}",
                                       dead_time_ps=params.HC_PULSE_SPACING_PS / 2))
            tree = SplitTree(engine, f"hp.data{c}", n)
            hcw.connect_output(merger, "in0")
            merger.connect("out", tree.inp[0], tree.inp[1])
            for r in range(n):
                tree.connect_output(r, self.dands[r][c], "b")
            self.hc_writes.append(hcw)
            self.write_mergers.append(merger)
            self.data_trees.append(tree)

        # Output port: per-column merger tree -> LoopBuffer NDRO -> splitter
        # -> (loopback to write merger, HC-READ counter).
        self.loopbuffer: List[NDRO] = []
        self.hc_reads: List[HCRead] = []
        self.b0_probes: List[Probe] = []
        self.b1_probes: List[Probe] = []
        from repro.pulse.primitives import Splitter

        for c in range(self.columns):
            tree = MergeTree(engine, f"hp.out{c}", n)
            for r in range(n):
                tree.connect_input(r, self.cells[r][c], "q")
            lb = engine.add(NDRO(f"hp.lb{c}"))
            comp, port = tree.out
            comp.connect(port, lb, "clk")
            spl = engine.add(Splitter(f"hp.lbspl{c}"))
            lb.connect("out", spl, "in")
            # Branch 0: loopback into the write-port merger.
            spl.connect("out0", self.write_mergers[c], "in1")
            # Branch 1: HC-READ counter toward the ALU.
            hcr = HCRead(engine, f"hp.hcr{c}")
            spl.connect("out1", hcr.inp[0], hcr.inp[1])
            b0 = engine.add(Probe(f"hp.b0_{c}"))
            b1 = engine.add(Probe(f"hp.b1_{c}"))
            hcr.connect_b0(b0, "in")
            hcr.connect_b1(b1, "in")
            self.loopbuffer.append(lb)
            self.hc_reads.append(hcr)
            self.b0_probes.append(b0)
            self.b1_probes.append(b1)

        # Broadcast trees for LoopBuffer SET/RESET and HC-READ triggers.
        self.lb_set_tree = SplitTree(engine, "hp.lbset", self.columns)
        self.lb_reset_tree = SplitTree(engine, "hp.lbrst", self.columns)
        self.hcr_read_tree = SplitTree(engine, "hp.hcrread", self.columns)
        self.hcr_reset_tree = SplitTree(engine, "hp.hcrrst", self.columns)
        for c in range(self.columns):
            self.lb_set_tree.connect_output(c, self.loopbuffer[c], "set")
            self.lb_reset_tree.connect_output(c, self.loopbuffer[c], "reset")
            self.hcr_read_tree.connect_output(
                c, self.hc_reads[c].counter, "read")
            self.hcr_reset_tree.connect_output(
                c, self.hc_reads[c].counter, "reset")

        self._col_fan = (log2_int(self.columns) * _SPL
                         if self.columns > 1 else 0.0)
        self._reg_fan = log2_int(n) * _SPL
        self._merge = log2_int(n) * _MRG
        self._demux_delay = self.read_demux.depth * _NDROC

    def external_inputs(self) -> List[tuple]:
        """Stimulus entry pins for static analysis (``repro.lint``)."""
        pins: List[tuple] = []
        pins.extend(self.read_demux.external_inputs())
        pins.extend(self.write_demux.external_inputs())
        for hcw in self.hc_writes:
            pins.extend(hcw.external_inputs())
        pins.extend(tree.inp for tree in (
            self.lb_set_tree, self.lb_reset_tree,
            self.hcr_read_tree, self.hcr_reset_tree))
        return pins

    # -- internal timing helpers ------------------------------------------

    def _broadcast(self, tree: SplitTree, t: float) -> None:
        comp, port = tree.inp
        self.engine.schedule(comp, port, t)

    def _cell_clk_arrival(self, fire_time: float) -> float:
        """Arrival of the first HC-CLK pulse at the storage cells."""
        return fire_time + self._demux_delay + _HC_FIRST + self._col_fan

    def _loop_clk_arrival(self, fire_time: float) -> float:
        """Arrival of the first readout pulse at a LoopBuffer CLK pin."""
        return self._cell_clk_arrival(fire_time) + _CLKQ + self._merge

    def _loop_data_arrival(self, fire_time: float) -> float:
        """Arrival of the first loopback pulse at the DAND data inputs."""
        return (self._loop_clk_arrival(fire_time)
                + _CLKQ + _SPL + _MRG + self._reg_fan)

    # -- operations ----------------------------------------------------

    def schedule_read(self, address: int, t: float,
                      loopback: bool = True,
                      loopback_skew_ps: float = 0.0) -> float:
        """Read ``address`` through the LoopBuffer.

        With ``loopback=True`` (a source-operand read) the LoopBuffer is
        pre-set so the readout both reaches HC-READ and recycles into the
        register via a loopback write.  With ``loopback=False`` the
        LoopBuffer is pre-reset: the readout is dissipated, erasing the
        entry - this is the write flow's erase step and the reason
        HiPerRF needs no reset port.

        Returns the time at which the HC-READ counters hold the value.
        """
        if loopback:
            self._broadcast(self.lb_set_tree, t)
        else:
            self._broadcast(self.lb_reset_tree, t)
        self._broadcast(self.hcr_reset_tree, t)
        fire = t + 10.0
        self.read_demux.apply_select(address, t)
        self.read_demux.fire(fire)
        self.read_demux.apply_reset(t + self.op_period_ps - 20.0)
        if loopback:
            # Loopback write: a WEN train must meet the loopback pulses at
            # the DAND gates.  Fire the write DEMUX so both trains arrive
            # in coincidence (the paper's next-cycle loopback slot).
            # ``loopback_skew_ps`` deliberately misaligns the WEN train;
            # the skew study measures how much the DAND hold window absorbs.
            wen_fire = (fire + self._loop_data_arrival(fire)
                        - self._cell_clk_arrival(fire) - _DAND
                        + loopback_skew_ps)
            self.write_demux.apply_select(address, t)
            self.write_demux.fire(wen_fire)
            self.write_demux.apply_reset(t + self.op_period_ps - 20.0)
        # All three pulses are in the counters after the last one lands.
        return self._loop_data_arrival(fire) + 2 * params.HC_PULSE_SPACING_PS + 20.0

    def schedule_write(self, address: int, value: int, t: float) -> None:
        """Erase ``address`` via a reset-read, then write ``value``.

        The two-step write of Section IV-B: a loopback-disabled read
        drains the old contents into the reset LoopBuffer, then HC-WRITE
        serialises the new value into the cleared cells.
        """
        width = self.geometry.width_bits
        if not 0 <= value < (1 << width):
            raise ConfigError(f"value {value:#x} exceeds {width} bits")
        self.schedule_read(address, t, loopback=False)
        # Step 2, one op period later: the external write.
        t2 = t + self.op_period_ps
        wen_fire = t2 + 10.0
        self.write_demux.apply_select(address, t2)
        self.write_demux.fire(wen_fire)
        self.write_demux.apply_reset(t2 + self.op_period_ps - 20.0)
        wen_arrival = self._cell_clk_arrival(wen_fire) + _DAND
        # HC-WRITE b0 path reaches the DANDs after: 2 mergers (inside
        # HC-WRITE) + write merger + register fan-out.
        data_inject = wen_arrival - (_HCW_FIRST + _MRG + self._reg_fan) - _DAND
        for c in range(self.columns):
            bits = (value >> (2 * c)) & 0b11
            hcw = self.hc_writes[c]
            if bits & 1:
                self.engine.schedule(hcw.b0[0], hcw.b0[1], data_inject)
            if bits & 2:
                self.engine.schedule(hcw.b1[0], hcw.b1[1], data_inject)

    def read_word(self, address: int, t: float) -> int:
        """Run a restoring read to completion and decode the word."""
        settle = self.schedule_read(address, t, loopback=True)
        self.engine.run(until_ps=settle)
        value = 0
        for c in range(self.columns):
            value |= self.hc_reads[c].value << (2 * c)
        self.fire_readout(settle, t)
        return value

    def probed_read(self, address: int, t: float) -> float:
        """Run a restoring read whose value lands on the b0/b1 probes.

        The HC-READ counters fire onto the probes after the settle time,
        so a lane replay can decode the value afterwards with
        :meth:`probe_word` (``read_word`` decodes the live counters
        instead).  Runs to ``t`` plus two op periods; returns the settle
        time.
        """
        settle = self.schedule_read(address, t, loopback=True)
        self.fire_readout(settle, t)
        return settle

    def fire_readout(self, settle: float, t: float) -> None:
        """End a read started at ``t`` whose counters settle at ``settle``.

        Fires the HC-READ counters onto the b0/b1 probes 5 ps after the
        settle time, clears them 10 ps later for the next operation, and
        runs the engine to ``t`` plus two op periods.
        """
        self._broadcast(self.hcr_read_tree, settle + 5.0)
        self._broadcast(self.hcr_reset_tree, settle + 15.0)
        self.engine.run(until_ps=t + 2 * self.op_period_ps)

    def probe_word(self, settle: float) -> int:
        """Decode a :meth:`probed_read` from its b0/b1 probe pulses in
        ``[settle, settle + 100]`` ps."""
        value = 0
        for c in range(self.columns):
            b0 = bool(self.b0_probes[c].pulses_in_window(settle, settle + 100.0))
            b1 = bool(self.b1_probes[c].pulses_in_window(settle, settle + 100.0))
            value |= (int(b0) | (int(b1) << 1)) << (2 * c)
        return value

    def write_word(self, address: int, value: int, t: float) -> float:
        """Run a full erase+write; returns the time the write has landed."""
        self.schedule_write(address, value, t)
        done = t + 2 * self.op_period_ps
        self.engine.run(until_ps=done)
        return done

    def stored_word(self, address: int) -> int:
        """Direct cell-state observation (white-box, for assertions)."""
        value = 0
        for c, cell in enumerate(self.cells[address]):
            value |= cell.stored_value << (2 * c)
        return value


class PulseDualBankHiPerRF:
    """Two parity-split pulse-level HiPerRF banks (Figure 13).

    The banks are electrically independent (parity banking has no
    cross-bank wiring), so each bank runs on its own engine; the
    top-level object routes operations by register parity.
    """

    def __init__(self, geometry: RFGeometry, op_period_ps: float = 600.0) -> None:
        if geometry.num_registers < 4:
            raise ConfigError("dual-bank model needs >= 4 registers")
        self.geometry = geometry
        bank_geometry = geometry.halved()
        self.banks = [_BankShim(bank_geometry, op_period_ps) for _ in range(2)]
        self.op_period_ps = op_period_ps

    @classmethod
    def build_key(cls, geometry: RFGeometry, op_period_ps: float = 600.0,
                  bank: int = 0) -> Tuple[object, ...]:
        """Per-bank key: the two banks are independent netlists."""
        return (cls.__name__, geometry, op_period_ps, bank)

    @classmethod
    def build_cached(cls, geometry: RFGeometry, op_period_ps: float = 600.0,
                     cache: Optional["CompiledNetlistCache"] = None
                     ) -> "PulseDualBankHiPerRF":
        """Build-once variant: each bank goes through the netlist cache."""
        from repro.pulse.cache import DEFAULT_CACHE

        store = DEFAULT_CACHE if cache is None else cache
        if geometry.num_registers < 4:
            raise ConfigError("dual-bank model needs >= 4 registers")
        self = cls.__new__(cls)
        self.geometry = geometry
        self.op_period_ps = op_period_ps
        bank_geometry = geometry.halved()
        banks = []
        for index in range(2):
            def builder(g: RFGeometry = bank_geometry) -> Tuple[Engine, object]:
                shim = _BankShim(g, op_period_ps)
                return shim.engine, shim
            _engine, shim = store.build_once(
                cls.build_key(geometry, op_period_ps, index), builder)
            banks.append(shim)
        self.banks = banks
        return self

    @staticmethod
    def _locate(register: int) -> tuple[int, int]:
        """Map an architectural register to (bank, local index)."""
        return register & 1, register >> 1

    def read_word(self, register: int, t: float) -> int:
        bank, local = self._locate(register)
        return self.banks[bank].rf.read_word(local, t)

    def write_word(self, register: int, value: int, t: float) -> float:
        bank, local = self._locate(register)
        return self.banks[bank].rf.write_word(local, value, t)

    def stored_word(self, register: int) -> int:
        bank, local = self._locate(register)
        return self.banks[bank].rf.stored_word(local)


class _BankShim:
    """One bank: a PulseHiPerRF on its own private engine."""

    def __init__(self, geometry: RFGeometry, op_period_ps: float) -> None:
        self.engine = Engine()
        self.rf = PulseHiPerRF(self.engine, geometry, op_period_ps)
