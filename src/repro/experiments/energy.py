"""Dynamic-energy extension study: what loopback costs per access.

Table II shows HiPerRF halving the *static* (bias) power.  The flip side
is dynamic: every HiPerRF read triggers a loopback write, so per-access
switching energy goes up.  This study quantifies both per-access energy
and per-workload RF energy (using each workload's actual read/write
counts), and shows why the paper is right to focus on static power: the
dynamic side is three orders of magnitude smaller.
"""

from __future__ import annotations

from typing import Dict

from repro.isa import Executor, assemble
from repro.rf import PAPER_DESIGNS, RFGeometry, design_for
from repro.rf.energy import access_energy, workload_rf_energy_aj
from repro.workloads import get_workload


def count_rf_traffic(workload_name: str, scale: float = 1.0) -> Dict[str, int]:
    """Register file reads/writes of one workload's retirement stream."""
    executor = Executor(assemble(get_workload(workload_name).build(scale)))
    reads = writes = 0
    for op in executor.trace():
        reads += len(set(op.sources))
        if op.destination is not None:
            writes += 1
    return {"reads": reads, "writes": writes}


def run(workload: str = "mcf",
        geometry: RFGeometry | None = None) -> Dict[str, Dict[str, float]]:
    geometry = geometry or RFGeometry(32, 32)
    traffic = count_rf_traffic(workload)
    result: Dict[str, Dict[str, float]] = {}
    for name in PAPER_DESIGNS:
        design = design_for(name, geometry)
        per_access = access_energy(design)
        total_aj = workload_rf_energy_aj(design, traffic["reads"],
                                         traffic["writes"])
        result[name] = {
            "read_aj": per_access.read_aj,
            "effective_read_aj": per_access.effective_read_aj,
            "write_aj": per_access.write_aj,
            "workload_total_fj": total_aj / 1000.0,
            "static_power_uw": design.static_power_uw(),
        }
    result["_traffic"] = {k: float(v) for k, v in traffic.items()}
    result["_traffic"]["workload"] = 0.0  # placeholder; name in render
    return result


def render(result: Dict[str, Dict[str, float]] | None = None,
           workload: str = "mcf") -> str:
    result = result or run(workload)
    traffic = result["_traffic"]
    title = f"Dynamic RF energy (workload: {workload})"
    lines = [title, "=" * len(title),
             f"RF traffic: {traffic['reads']:.0f} reads, "
             f"{traffic['writes']:.0f} writes",
             "",
             f"{'design':20s} {'read aJ':>8s} {'eff. read aJ':>13s} "
             f"{'write aJ':>9s} {'workload fJ':>12s} {'static uW':>10s}"]
    for name, row in result.items():
        if name.startswith("_"):
            continue
        lines.append(f"{name:20s} {row['read_aj']:>8.0f} "
                     f"{row['effective_read_aj']:>13.0f} "
                     f"{row['write_aj']:>9.0f} "
                     f"{row['workload_total_fj']:>12.1f} "
                     f"{row['static_power_uw']:>10.0f}")
    lines.append("")
    lines.append("HiPerRF pays ~60% more switching energy per effective "
                 "read (the loopback write), but at ~2e-19 J per JJ switch "
                 "the dynamic side stays negligible next to the bias power "
                 "- which is why Table II's static numbers decide the design.")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render())
