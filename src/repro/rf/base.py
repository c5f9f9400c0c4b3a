"""Abstract register-file design: census + critical-path timing interface."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cells import params
from repro.rf.census import ComponentCensus
from repro.rf.geometry import RFGeometry


@dataclass(frozen=True)
class PathElement:
    """One stage on a critical path.

    ``gate_count`` is the number of physical gates this stage contributes
    to the path; wire-aware models (Table IV) charge one average PTL hop
    per gate-to-gate edge.  Stages with ``gate_count == 0`` are pure timing
    offsets (e.g. the 20 ps tail of a 3-pulse HC-DRO train).
    """

    label: str
    delay_ps: float
    gate_count: int = 1


class CriticalPath:
    """An ordered sequence of :class:`PathElement` with roll-up helpers."""

    def __init__(self, elements: Sequence[PathElement]) -> None:
        self._elements: List[PathElement] = list(elements)

    @property
    def elements(self) -> List[PathElement]:
        return list(self._elements)

    def delay_ps(self) -> float:
        """Total gate delay along the path, excluding wires."""
        return sum(e.delay_ps for e in self._elements)

    def gate_count(self) -> int:
        """Number of physical gates on the path."""
        return sum(e.gate_count for e in self._elements)

    def hop_count(self) -> int:
        """Gate-to-gate wire hops along the path (gates minus one)."""
        return max(self.gate_count() - 1, 0)

    def wire_delay_ps(self, avg_hop_ps: float = params.AVG_WIRE_DELAY_PS) -> float:
        """Total PTL wire delay at ``avg_hop_ps`` per hop (Section VI-C)."""
        return self.hop_count() * avg_hop_ps

    def delay_with_wires_ps(self, avg_hop_ps: float = params.AVG_WIRE_DELAY_PS) -> float:
        """Gate delay plus average wire delay (Table IV model)."""
        return self.delay_ps() + self.wire_delay_ps(avg_hop_ps)

    def describe(self) -> str:
        """Multi-line human-readable breakdown of the path."""
        lines = [
            f"  {e.label:<38s} {e.delay_ps:7.1f} ps  ({e.gate_count} gate(s))"
            for e in self._elements
        ]
        lines.append(f"  {'total':<38s} {self.delay_ps():7.1f} ps  "
                     f"({self.gate_count()} gates, {self.hop_count()} hops)")
        return "\n".join(lines)


class RegisterFileDesign(abc.ABC):
    """Common interface of the three register file designs."""

    #: Short identifier used in tables and plots.
    name: str = "abstract"
    #: Name used in the paper's tables.
    paper_name: str = "abstract"
    #: Modulo-interleaved banks, each with its own port pair.
    banks: int = 1

    def __init__(self, geometry: RFGeometry) -> None:
        self.geometry = geometry
        self._census_cache: Optional[ComponentCensus] = None

    # -- structure ---------------------------------------------------------

    @abc.abstractmethod
    def build_census(self) -> ComponentCensus:
        """Construct the full structural component census for this design."""

    def census(self) -> ComponentCensus:
        """Cached component census."""
        if self._census_cache is None:
            self._census_cache = self.build_census()
        return self._census_cache

    def jj_count(self) -> int:
        """Total JJ count including all peripheral circuitry (Table I)."""
        return self.census().jj_count()

    def static_power_uw(self) -> float:
        """Total static power in microwatts (Table II)."""
        return self.census().static_power_uw()

    # -- timing ------------------------------------------------------------

    @abc.abstractmethod
    def readout_path(self) -> CriticalPath:
        """Critical path from read-enable arrival to data at the output port."""

    def readout_delay_ps(self) -> float:
        """Readout delay without wire parasitics (Table III)."""
        return self.readout_path().delay_ps()

    def loopback_path(self) -> Optional[CriticalPath]:
        """Loopback-write path, or ``None`` for designs without loopback."""
        return None

    @property
    def cycle_time_ps(self) -> float:
        """Port cycle time, limited by the NDROC enable separation (53 ps)."""
        return params.RF_CYCLE_PS

    # -- ports -------------------------------------------------------------

    @property
    def read_ports(self) -> int:
        return 1

    @property
    def write_ports(self) -> int:
        return 1

    # -- static port schedule (Figures 8, 11 and 12) -----------------------

    def issue_cycles(self, sources: Sequence[int]) -> int:
        """RF cycles an instruction reading ``sources`` holds the ports."""
        raise NotImplementedError(f"{self.name} has no CPU port schedule")

    def read_slots(self, sources: Sequence[int]) -> Tuple[int, ...]:
        """RF cycle after issue of each distinct source's read enable."""
        raise NotImplementedError(f"{self.name} has no CPU port schedule")

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """One-row summary used by the experiment harness."""
        row: Dict[str, float] = {
            "jj_count": float(self.jj_count()),
            "static_power_uw": self.static_power_uw(),
            "readout_delay_ps": self.readout_delay_ps(),
            "cycle_time_ps": self.cycle_time_ps,
        }
        loopback = self.loopback_path()
        if loopback is not None:
            row["loopback_delay_ps"] = loopback.delay_ps()
        return row

    def __repr__(self) -> str:
        return f"{type(self).__name__}(geometry={self.geometry.label()})"


@dataclass(frozen=True)
class DesignComparison:
    """A design's metrics expressed relative to a baseline design."""

    design: str
    geometry: str
    jj_count: int
    jj_percent_of_baseline: float
    static_power_uw: float
    power_percent_of_baseline: float
    readout_delay_ps: float
    delay_percent_of_baseline: float


def compare_designs(baseline: RegisterFileDesign,
                    design: RegisterFileDesign) -> DesignComparison:
    """Compute the percent-of-baseline columns used throughout Section VI."""
    if baseline.geometry != design.geometry:
        raise ValueError(
            f"geometry mismatch: {baseline.geometry.label()} vs {design.geometry.label()}")
    return DesignComparison(
        design=design.name,
        geometry=design.geometry.label(),
        jj_count=design.jj_count(),
        jj_percent_of_baseline=100.0 * design.jj_count() / baseline.jj_count(),
        static_power_uw=design.static_power_uw(),
        power_percent_of_baseline=(
            100.0 * design.static_power_uw() / baseline.static_power_uw()),
        readout_delay_ps=design.readout_delay_ps(),
        delay_percent_of_baseline=(
            100.0 * design.readout_delay_ps() / baseline.readout_delay_ps()),
    )
