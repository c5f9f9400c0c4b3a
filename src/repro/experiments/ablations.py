"""Ablation studies over HiPerRF's design choices.

DESIGN.md calls out three load-bearing choices; each is ablated here:

1. **Dual-bit storage** - how much of the Table I saving comes from the
   2-bit HC-DRO cells versus from merely tolerating destructive readout
   with a LoopBuffer?  We insert the 1-bit ``SingleBitLoopbackRF``
   between the baseline and HiPerRF.
2. **Static banking policy** - Figure 14 brackets the measured parity
   policy with an "ideal" (always cross-bank) variant; we add the
   anti-ideal "worst" (always same-bank) bound to show the full CPI
   range the bank-assignment policy controls.
3. **Banking versus a true second port pair** - quantified JJ cost of
   the monolithic 2R2W alternative (also in the alternatives study).
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Tuple

from repro.cpu import CoreConfig, tape_for_program
from repro.cpu.batched import lanes_for_designs, replay_lanes
from repro.experiments.parallel import CacheLike, cached_map
from repro.isa import assemble
from repro.rf import HiPerRF, NdroRegisterFile, RFGeometry
from repro.rf.alternatives import SingleBitLoopbackRF
from repro.workloads import all_workloads

_POLICY_DESIGNS = ("ndro_rf", "dual_bank_hiperrf_ideal", "dual_bank_hiperrf",
                   "dual_bank_hiperrf_worst", "hiperrf")


def dual_bit_ablation(geometry: RFGeometry | None = None) -> Dict[str, float]:
    """JJ decomposition: baseline -> 1-bit loopback -> 2-bit HiPerRF."""
    geometry = geometry or RFGeometry(32, 32)
    baseline = NdroRegisterFile(geometry).jj_count()
    single_bit = SingleBitLoopbackRF(geometry).jj_count()
    hiperrf = HiPerRF(geometry).jj_count()
    return {
        "baseline_jj": float(baseline),
        "single_bit_loopback_jj": float(single_bit),
        "hiperrf_jj": float(hiperrf),
        "loopback_idea_saving_percent": 100.0 * (1 - single_bit / baseline),
        "dual_bit_extra_saving_percent": 100.0 * (single_bit - hiperrf)
        / baseline,
        "total_saving_percent": 100.0 * (1 - hiperrf / baseline),
    }


def _bank_policy_workload(point: Tuple[str, float, int]) -> Dict[str, float]:
    """One workload's CPI under every bank policy (worker-process body)."""
    from repro.workloads import get_workload

    name, scale, max_instructions = point
    config = CoreConfig()
    tape = tape_for_program(assemble(get_workload(name).build(scale)),
                            max_instructions=max_instructions,
                            num_registers=config.num_registers,
                            workload_name=name, strict=False)
    lanes = lanes_for_designs(_POLICY_DESIGNS, config)
    return {design: result.cpi
            for design, result in zip(_POLICY_DESIGNS,
                                      replay_lanes(tape, lanes))}


def bank_policy_ablation(scale: float = 0.6,
                         max_instructions: int = 300_000,
                         workers: Optional[int] = None,
                         cache: CacheLike = None) -> Dict[str, float]:
    """Average CPI overhead for ideal / parity / worst bank policies.

    Each workload replays through all five policies as one design-lane
    set (:func:`repro.cpu.batched.replay_lanes`) in one worker;
    workloads fan out over :mod:`repro.experiments.parallel`.
    """
    points = [(workload.name, scale, max_instructions)
              for workload in all_workloads()]
    rows = cached_map("ablations-bank-policy-v1", _bank_policy_workload,
                      points, workers=workers, cache=cache)

    def mean_cpi(design: str) -> float:
        return statistics.mean(row[design] for row in rows)

    baseline = mean_cpi("ndro_rf")
    result = {"baseline_cpi": baseline}
    for design in ("dual_bank_hiperrf_ideal", "dual_bank_hiperrf",
                   "dual_bank_hiperrf_worst", "hiperrf"):
        result[f"{design}_overhead_percent"] = \
            100.0 * (mean_cpi(design) / baseline - 1.0)
    return result


def run() -> Dict[str, Dict[str, float]]:
    return {
        "dual_bit": dual_bit_ablation(),
        "bank_policy": bank_policy_ablation(),
    }


def render(result: Dict[str, Dict[str, float]] | None = None) -> str:
    result = result or run()
    dual_bit = result["dual_bit"]
    policy = result["bank_policy"]
    title = "Ablation studies"
    lines = [
        title, "=" * len(title), "",
        "1. Where the JJ saving comes from (32x32):",
        f"   NDRO baseline            {dual_bit['baseline_jj']:>10,.0f} JJ",
        f"   + loopback idea (1-bit)  "
        f"{dual_bit['single_bit_loopback_jj']:>10,.0f} JJ  "
        f"(-{dual_bit['loopback_idea_saving_percent']:.1f}%)",
        f"   + dual-bit cells         {dual_bit['hiperrf_jj']:>10,.0f} JJ  "
        f"(-{dual_bit['dual_bit_extra_saving_percent']:.1f}% more; "
        f"total -{dual_bit['total_saving_percent']:.1f}%)",
        "",
        "2. Static bank-assignment policy (average CPI overhead):",
        f"   always cross-bank (ideal)   "
        f"{policy['dual_bank_hiperrf_ideal_overhead_percent']:+6.2f}%",
        f"   parity split (measured)     "
        f"{policy['dual_bank_hiperrf_overhead_percent']:+6.2f}%",
        f"   always same-bank (worst)    "
        f"{policy['dual_bank_hiperrf_worst_overhead_percent']:+6.2f}%",
        f"   no banking (HiPerRF)        "
        f"{policy['hiperrf_overhead_percent']:+6.2f}%",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
