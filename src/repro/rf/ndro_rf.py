"""The clock-less NDRO register file baseline (paper Section III).

Structure (Figure 4):

* one NDRO cell per stored bit,
* a read port: NDROC-tree DEMUX on R_ADDR + per-register splitter tree
  fanning the read-enable pulse across the register's width,
* a reset port: identical structure driven by RESET_ENABLE / W_ADDR
  (SFQ cells cannot be overwritten; every write is preceded by a reset),
* a write port: DEMUX on W_ADDR, WEN fan-out tree, W_DATA fan-out trees
  (one per bit, across all registers) and one DAND coincidence gate per
  stored bit,
* an output port: per-bit merger trees funnelling every register's output
  into the single R_DATA bus.
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


class NdroRegisterFile(RegisterFileDesign):
    """Baseline design: one 11-JJ NDRO cell per bit, three access ports."""

    name = "ndro_rf"
    paper_name = "NDRO RF (Baseline Design)"

    # -- structure ---------------------------------------------------------

    def _enable_port_census(self) -> ComponentCensus:
        """DEMUX plus per-register enable fan-out across the word width.

        Shared shape of the read port and the reset port: the selected
        register's enable pulse must be split ``width_bits`` ways to touch
        every cell in the entry.
        """
        geo = self.geometry
        census = demux_census(geo.num_registers)
        census.add("splitter",
                   geo.num_registers * fanout_splitters(geo.width_bits))
        return census

    def _write_port_census(self) -> ComponentCensus:
        geo = self.geometry
        census = demux_census(geo.num_registers)
        # WEN fan-out across the register width (drives one DAND per bit).
        census.add("splitter",
                   geo.num_registers * fanout_splitters(geo.width_bits))
        # W_DATA fan-out: each data bit must reach every register's DAND.
        census.add("splitter",
                   geo.width_bits * fanout_splitters(geo.num_registers))
        # One dynamic AND per stored bit gates data with the write enable.
        census.add("dand", geo.num_registers * geo.width_bits)
        return census

    def _output_port_census(self) -> ComponentCensus:
        geo = self.geometry
        census = ComponentCensus()
        census.add("merger",
                   geo.width_bits * merger_tree_mergers(geo.num_registers))
        return census

    def build_census(self) -> ComponentCensus:
        geo = self.geometry
        census = ComponentCensus()
        census.add("ndro", geo.num_registers * geo.width_bits)
        census.merge(self._enable_port_census())   # read port
        census.merge(self._enable_port_census())   # reset port
        census.merge(self._write_port_census())
        census.merge(self._output_port_census())
        return census

    # -- timing ------------------------------------------------------------

    def readout_path(self) -> CriticalPath:
        geo = self.geometry
        d = params.DELAY_PS
        demux_levels = demux_depth(geo.num_registers)
        split_levels = log2_int(geo.width_bits)
        merge_levels = log2_int(geo.num_registers)
        elements = []
        elements.append(PathElement(
            f"NDROC DEMUX tree ({demux_levels} levels)",
            demux_levels * d["ndroc"], gate_count=demux_levels))
        elements.append(PathElement(
            f"read-enable splitter tree ({split_levels} levels)",
            split_levels * d["splitter"], gate_count=split_levels))
        elements.append(PathElement(
            "NDRO cell clk-to-q", d["ndro_clk_to_q"], gate_count=1))
        elements.append(PathElement(
            f"output merger tree ({merge_levels} levels)",
            merge_levels * d["merger"], gate_count=merge_levels))
        return CriticalPath(elements)

    # -- static port schedule (Figure 8) -----------------------------------

    def issue_cycles(self, sources: Sequence[int]) -> int:
        """One RF cycle per distinct source on the single read port."""
        return max(len(dedup_sources(sources)), 1)

    def read_slots(self, sources: Sequence[int]) -> Tuple[int, ...]:
        """Reads on consecutive RF cycles starting at issue."""
        return tuple(range(len(dedup_sources(sources))))
