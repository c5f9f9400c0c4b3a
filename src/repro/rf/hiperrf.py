"""HiPerRF: HC-DRO storage with LoopBuffer non-destructive readout (Section IV).

Differences from the NDRO baseline (Figure 9):

* storage uses 3-JJ 2-bit HC-DRO cells, halving the cell column count,
* there is no reset port: the read port doubles as the reset port because
  DRO-family reads are destructive and the LoopBuffer can dissipate a value,
* HC-CLK circuits sit between each DEMUX output and the storage cells to
  turn a single enable pulse into the 3-pulse train that drains a cell,
* HC-WRITE circuits serialise each 2-bit datum into up to 3 pulses, and
  HC-READ two-bit counters deserialise the pulse train back to 2 bits,
* the output port carries the LoopBuffer - one shared NDRO cell per cell
  column - whose output is split between the ALU-facing HC-READ and the
  loopback path that rewrites the value into the source register,
* the write port gains one merger per cell column to accept both external
  write-back data and loopback data.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.cells import params
from repro.rf.base import CriticalPath, PathElement, RegisterFileDesign
from repro.rf.census import (
    ComponentCensus,
    demux_census,
    demux_depth,
    fanout_splitters,
    merger_tree_mergers,
)
from repro.rf.geometry import log2_int
from repro.rf.timing import dedup_sources

#: JTL padding stages on the loopback path that align loopback pulses with
#: the write-enable coincidence window at the DAND gates.
LOOPBACK_JTL_PADDING = 4

#: Loopback-path stage where loopback data joins external write data at
#: the write port; a banked file's bank-local loopback skips it.
LOOPBACK_JOIN = "write-port merger (loopback join)"


class HiPerRF(RegisterFileDesign):
    """HC-DRO register file with a LoopBuffer output port."""

    name = "hiperrf"
    paper_name = "HiPerRF"

    # -- structure ---------------------------------------------------------

    def _read_port_census(self) -> ComponentCensus:
        geo = self.geometry
        cells = geo.hc_cells_per_register
        census = demux_census(geo.num_registers)
        # One HC-CLK per register turns the enable pulse into a 3-pulse train.
        census.add("hc_clk", geo.num_registers)
        # The train is fanned out across the register's cell columns.
        census.add("splitter", geo.num_registers * fanout_splitters(cells))
        return census

    def _write_port_census(self) -> ComponentCensus:
        geo = self.geometry
        cells = geo.hc_cells_per_register
        census = demux_census(geo.num_registers)
        census.add("hc_clk", geo.num_registers)
        census.add("splitter", geo.num_registers * fanout_splitters(cells))
        # HC-WRITE serialisers, one per 2-bit column of the write data bus.
        census.add("hc_write", cells)
        # Mergers joining external write data with loopback data (Figure 9).
        census.add("merger", cells)
        # Data fan-out: each cell column's pulse train reaches every register.
        census.add("splitter", cells * fanout_splitters(geo.num_registers))
        census.add("dand", geo.num_registers * cells)
        return census

    def _output_port_census(self) -> ComponentCensus:
        geo = self.geometry
        cells = geo.hc_cells_per_register
        census = ComponentCensus()
        # Per-column merger trees funnel every register into the LoopBuffer.
        census.add("merger", cells * merger_tree_mergers(geo.num_registers))
        # The LoopBuffer: one shared NDRO cell per cell column.
        census.add("ndro", cells)
        # LoopBuffer output splits toward HC-READ (ALU) and loopback (write).
        census.add("splitter", cells)
        census.add("hc_read", cells)
        # Loopback timing padding (JTLs) to hit the DAND coincidence window.
        census.add("jtl", cells * LOOPBACK_JTL_PADDING)
        return census

    def build_census(self) -> ComponentCensus:
        geo = self.geometry
        census = ComponentCensus()
        census.add("hcdro", geo.num_registers * geo.hc_cells_per_register)
        census.merge(self._read_port_census())
        census.merge(self._write_port_census())
        census.merge(self._output_port_census())
        return census

    # -- timing ------------------------------------------------------------

    def _demux_levels(self) -> int:
        return demux_depth(self.geometry.num_registers)

    def _merge_levels(self) -> int:
        return log2_int(self.geometry.num_registers)

    def readout_path(self) -> CriticalPath:
        geo = self.geometry
        d = params.DELAY_PS
        demux_levels = self._demux_levels()
        split_levels = log2_int(geo.hc_cells_per_register) \
            if geo.hc_cells_per_register > 1 else 0
        merge_levels = self._merge_levels()
        elements = [
            PathElement(f"NDROC DEMUX tree ({demux_levels} levels)",
                        demux_levels * d["ndroc"], gate_count=demux_levels),
            PathElement("HC-CLK insertion", d["hc_clk_insertion"], gate_count=2),
            PathElement("3-pulse train tail (2 x 10 ps spacing)",
                        2 * params.HC_PULSE_SPACING_PS, gate_count=0),
            PathElement(f"enable splitter tree ({split_levels} levels)",
                        split_levels * d["splitter"], gate_count=split_levels),
            PathElement("HC-DRO cell clk-to-q", d["hcdro_clk_to_q"], gate_count=1),
            PathElement(f"output merger tree ({merge_levels} levels)",
                        merge_levels * d["merger"], gate_count=merge_levels),
            PathElement("LoopBuffer NDRO", d["ndro_clk_to_q"], gate_count=1),
            PathElement("LoopBuffer output splitter", d["splitter"], gate_count=1),
            PathElement("HC-READ counter settle", d["hc_read_settle"], gate_count=1),
        ]
        return CriticalPath(elements)

    def loopback_path(self) -> CriticalPath:
        """Path from the LoopBuffer output back into the source register."""
        geo = self.geometry
        d = params.DELAY_PS
        fanout_levels = log2_int(geo.num_registers)
        elements = [
            PathElement("LoopBuffer NDRO", d["ndro_clk_to_q"], gate_count=1),
            PathElement("LoopBuffer output splitter", d["splitter"], gate_count=1),
            PathElement(f"JTL alignment padding ({LOOPBACK_JTL_PADDING} stages)",
                        LOOPBACK_JTL_PADDING * d["jtl"],
                        gate_count=LOOPBACK_JTL_PADDING),
            PathElement(LOOPBACK_JOIN, d["merger"], gate_count=1),
            PathElement(f"data fan-out tree ({fanout_levels} levels)",
                        fanout_levels * d["splitter"], gate_count=fanout_levels),
            PathElement("DAND write gate", d["dand"], gate_count=1),
            PathElement("HC-DRO setup", params.SETUP_PS, gate_count=0),
            PathElement("3-pulse train tail (2 x 10 ps spacing)",
                        2 * params.HC_PULSE_SPACING_PS, gate_count=0),
        ]
        return CriticalPath(elements)

    # -- static port schedule (Figure 11) ----------------------------------

    def issue_cycles(self, sources: Sequence[int]) -> int:
        """The fixed pattern: reset-read, WEN + first read, second read."""
        return 3

    def read_slots(self, sources: Sequence[int]) -> Tuple[int, ...]:
        """Source reads at +1 and +2, after the issue-cycle reset-read."""
        return tuple(k + 1 for k in range(len(dedup_sources(sources))))
