"""Banked HiPerRF (paper Section V) and how far the banking idea scales.

Section V splits HiPerRF by register-number parity into two half-size
banks, each with its own read port, write port, LoopBuffer and output
port (Figure 13).  Banking buys:

* two read + two write ports without the super-linear peripheral growth a
  true two-port design would need (the paper estimates ~3x JJs),
* a DEMUX tree one level shallower, cutting 24 ps of NDROC latency off the
  readout path,
* one merger and one splitter (about 10 ps) off the loopback path.

:class:`MultiBankHiPerRF` generalises the construction to ``banks``
classes (register number modulo ``banks``) with the same structure per
bank and the same top-level glue, so the trade-off can be swept: more
banks give shallower DEMUX trees and fewer same-bank conflicts, but the
fixed per-bank overheads (LoopBuffer, HC circuits, glue) amortise over
fewer registers, so the JJ premium grows.  :class:`DualBankHiPerRF` is
the paper's two-bank design.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ConfigError
from repro.rf.base import CriticalPath, RegisterFileDesign
from repro.rf.census import ComponentCensus
from repro.rf.geometry import RFGeometry
from repro.rf.hiperrf import LOOPBACK_JOIN, HiPerRF
from repro.rf.timing import dedup_sources


class MultiBankHiPerRF(RegisterFileDesign):
    """HiPerRF split into ``banks`` modulo-interleaved banks."""

    paper_name = "Multi-banked HiPerRF"

    def __init__(self, geometry: RFGeometry, banks: int = 2) -> None:
        if banks < 2 or banks & (banks - 1):
            raise ConfigError(f"banks must be a power of two >= 2, got {banks}")
        if geometry.num_registers // banks < 2:
            raise ConfigError(
                f"{banks} banks over {geometry.num_registers} registers "
                "leaves banks too small for a DEMUX")
        super().__init__(geometry)
        self.banks = banks
        self._bank = HiPerRF(RFGeometry(geometry.num_registers // banks,
                                        geometry.width_bits))

    @property
    def name(self) -> str:
        return f"hiperrf_x{self.banks}"

    @property
    def bank(self) -> HiPerRF:
        """The per-bank HiPerRF model (1/``banks`` of the registers)."""
        return self._bank

    @property
    def read_ports(self) -> int:
        return self.banks

    @property
    def write_ports(self) -> int:
        return self.banks

    def bank_of(self, register: int) -> int:
        """Bank index of an architectural register (modulo interleaving)."""
        if register < 0:
            raise ConfigError(
                f"register number must be non-negative, got {register}")
        return register % self.banks

    def same_bank(self, a: int, b: int) -> bool:
        """Whether two registers share a bank, and so its read port."""
        return self.bank_of(a) == self.bank_of(b)

    # -- structure ---------------------------------------------------------

    def _glue_census(self) -> ComponentCensus:
        """Top-level distribution: scales with the bank count."""
        geo = self.geometry
        cells = geo.hc_cells_per_register
        extra = self.banks - 1
        census = ComponentCensus()
        # External write data must be routable to every bank.
        census.add("splitter", cells * extra)
        # Bank outputs are funnelled onto the shared result bus when the
        # datapath consumes a single operand stream.
        census.add("merger", cells * extra)
        # Read/write enable and the bank-select address bit distribution.
        census.add("splitter", (2 + geo.select_bits) * extra)
        return census

    def build_census(self) -> ComponentCensus:
        census = ComponentCensus()
        census.merge(self._bank.census(), times=self.banks)
        census.merge(self._glue_census())
        return census

    # -- timing ------------------------------------------------------------

    def readout_path(self) -> CriticalPath:
        """One bank's readout path.

        Each bank drives its own output port (Figure 13), so no top-level
        merger appears on the critical path.
        """
        return self._bank.readout_path()

    def loopback_path(self) -> CriticalPath:
        """Bank-local loopback: the bank's path without the write-port
        merger, since loopback data never meets another bank's writes."""
        return CriticalPath([e for e in self._bank.loopback_path().elements
                             if e.label != LOOPBACK_JOIN])

    # -- static port schedule (Figure 12) ----------------------------------

    def _pair_shares_bank(self, sources: Sequence[int]) -> bool:
        unique = dedup_sources(sources)
        return len(unique) == 2 and self.same_bank(*unique)

    def issue_cycles(self, sources: Sequence[int]) -> int:
        """2 RF cycles, or 4 when two distinct sources share a bank."""
        return 4 if self._pair_shares_bank(sources) else 2

    def read_slots(self, sources: Sequence[int]) -> Tuple[int, ...]:
        """Every read in the cycle after issue, or +1 and +3 when two
        distinct sources serialise on one bank's read port."""
        if self._pair_shares_bank(sources):
            return (1, 3)
        return tuple(1 for _ in dedup_sources(sources))

    def same_bank_pair_probability(self) -> float:
        """P(two random distinct sources collide) = ~1/banks."""
        return 1.0 / self.banks


class DualBankHiPerRF(MultiBankHiPerRF):
    """Two parity-split HiPerRF banks with per-bank ports (Section V)."""

    name = "dual_bank_hiperrf"
    paper_name = "Dual-banked HiPerRF"

    def __init__(self, geometry: RFGeometry) -> None:
        super().__init__(geometry, banks=2)


class IdealDualBankHiPerRF(DualBankHiPerRF):
    """Ablation bound: no source pair ever shares a bank."""

    name = "dual_bank_hiperrf_ideal"

    def same_bank(self, a: int, b: int) -> bool:
        return False


class WorstDualBankHiPerRF(DualBankHiPerRF):
    """Anti-ideal ablation bound: every source pair shares a bank."""

    name = "dual_bank_hiperrf_worst"

    def same_bank(self, a: int, b: int) -> bool:
        return True
