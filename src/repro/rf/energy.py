"""Dynamic (switching) energy model for register file accesses.

The paper evaluates *static* (bias) power in Table II; SFQ switching
energy is famously tiny - "little switching energy dissipation
(~1e-19 J)" (Section I) - because each JJ switch dissipates roughly

    E_switch = Ic * PHI0

(about 2e-19 J at Ic = 100 uA).  This extension quantifies the dynamic
side: the energy of one read or write is the switch energy summed over
every JJ that fires along the access path - DEMUX routing, enable
fan-out, the storage cells, output merging, and (for HiPerRF) the
HC circuits and the loopback write that every read implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells import get_cell
from repro.errors import ConfigError
from repro.rf.base import RegisterFileDesign
from repro.rf.geometry import log2_int
from repro.rf.hiperrf import HiPerRF
from repro.rf.multibank import MultiBankHiPerRF
from repro.rf.ndro_rf import NdroRegisterFile
from repro.units import PHI0_WB

#: Typical junction critical current in the cell library (amperes).
TYPICAL_IC_A = 100e-6

#: Energy per junction switch, Ic * Phi0 (joules) - ~2e-19 J.
E_SWITCH_J = TYPICAL_IC_A * PHI0_WB

#: Attojoules per switch, the convenient reporting unit.
E_SWITCH_AJ = E_SWITCH_J * 1e18


def _cell_switch_jj(name: str) -> int:
    """JJs that fire when a cell processes one pulse (roughly half the
    junctions in storage/logic cells; all of a JTL/splitter)."""
    spec = get_cell(name)
    if name in ("jtl", "splitter", "merger", "ptl_driver", "ptl_receiver"):
        return spec.jj_count
    return max(spec.jj_count // 2, 1)


@dataclass(frozen=True)
class AccessEnergy:
    """Per-operation dynamic energy of one design (attojoules)."""

    design: str
    read_aj: float
    write_aj: float
    loopback_aj: float

    @property
    def effective_read_aj(self) -> float:
        """A read plus the loopback write it triggers (HiPerRF designs)."""
        return self.read_aj + self.loopback_aj


def _demux_switches(num_registers: int) -> int:
    """JJ switches of one DEMUX traversal: one NDROC per level plus the
    select-bit set/reset activity amortised per operation."""
    levels = log2_int(num_registers)
    per_level = _cell_switch_jj("ndroc")
    # set + clk-route + reset per level, roughly 3 activations.
    return levels * per_level * 3


def access_energy(design: RegisterFileDesign) -> AccessEnergy:
    """Estimate per-read/write switching energy for a design.

    Priced by storage type: the NDRO baseline, and the HC-DRO formula
    for HiPerRF and its banked variants.  Any other design raises
    :class:`~repro.errors.ConfigError`.
    """
    geo = design.geometry
    n = geo.num_registers
    name = design.name

    if isinstance(design, NdroRegisterFile):
        columns = geo.width_bits
        read = (_demux_switches(n)
                + (columns - 1) * _cell_switch_jj("splitter")   # enable fan
                + columns * _cell_switch_jj("ndro")             # cells read
                + columns * log2_int(n) * _cell_switch_jj("merger"))
        write = (2 * _demux_switches(n)                         # reset+write
                 + 2 * (columns - 1) * _cell_switch_jj("splitter")
                 + columns * _cell_switch_jj("dand")
                 + columns * _cell_switch_jj("ndro"))
        loopback = 0.0
        return AccessEnergy(name, read * E_SWITCH_AJ, write * E_SWITCH_AJ,
                            loopback)

    if not isinstance(design, (HiPerRF, MultiBankHiPerRF)):
        raise ConfigError(f"no access-energy model for design {name!r}")
    # HiPerRF family: per-column pulse trains carry up to 3 pulses; use
    # the average occupancy of 1.5 pulses per 2-bit column.
    columns = geo.hc_cells_per_register
    avg_pulses = 1.5
    bank_n = n // design.banks
    demux = _demux_switches(max(bank_n, 2))
    hc_clk = _cell_switch_jj("hc_clk")
    read = (demux + hc_clk
            + (columns - 1) * _cell_switch_jj("splitter")
            + avg_pulses * columns * _cell_switch_jj("hcdro")
            + avg_pulses * columns * log2_int(max(bank_n, 2))
            * _cell_switch_jj("merger")
            + avg_pulses * columns * _cell_switch_jj("ndro")    # LoopBuffer
            + avg_pulses * columns * _cell_switch_jj("splitter")
            + columns * _cell_switch_jj("hc_read"))
    loopback = (demux + hc_clk
                + avg_pulses * columns * (_cell_switch_jj("merger")
                                          + _cell_switch_jj("dand")
                                          + _cell_switch_jj("hcdro"))
                + avg_pulses * columns * log2_int(max(bank_n, 2))
                * _cell_switch_jj("splitter"))
    write = (2 * demux + 2 * hc_clk                    # erase read + write
             + columns * _cell_switch_jj("hc_write")
             + avg_pulses * columns * (_cell_switch_jj("dand")
                                       + _cell_switch_jj("hcdro"))
             + avg_pulses * columns * log2_int(max(bank_n, 2))
             * _cell_switch_jj("splitter"))
    return AccessEnergy(name, read * E_SWITCH_AJ, write * E_SWITCH_AJ,
                        loopback * E_SWITCH_AJ)


def workload_rf_energy_aj(design: RegisterFileDesign, reads: int,
                          writes: int) -> float:
    """Total RF switching energy of a workload (attojoules).

    Every HiPerRF read implies a loopback write; baseline reads do not.
    """
    energy = access_energy(design)
    return reads * energy.effective_read_aj + writes * energy.write_aj
