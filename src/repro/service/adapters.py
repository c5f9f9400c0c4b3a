"""Experiment adapters: decompose jobs into unit work items.

The coalescing scheduler does not understand experiments - it
understands :class:`WorkItem`\\ s.  Each supported experiment registers
an adapter that

1. **decomposes** request params into items whose ``(namespace, key)``
   pairs match the on-disk caches the experiment runners already use
   (the cache key is the API contract), and
2. **recomposes** the per-item values into the job's artifact.

Items of the same *kind* sharing a *group* token batch into one
dispatch:

* ``hcdro`` items group by :func:`repro.josim.sweep.topology_key` and
  run through :func:`repro.josim.sweep.hcdro_values` - strangers'
  margin points share a dispatch, whose lane count picks the scalar
  solver or one :class:`~repro.josim.solver.BatchedTransientSolver`
  transient; their ``hcdro-v1`` entries are the ones
  :func:`repro.josim.sweep.run_configs` reads and writes,
* ``cpu`` items group by program: the dispatcher replays one shared op
  tape through the *union* of every requester's designs, then hands
  each item its own subset - bitwise identical to running the request
  alone, because per-design replays are independent,
* ``pulse`` items group by netlist build key and take exclusive
  checkouts of one cached compiled netlist
  (:meth:`~repro.pulse.cache.CompiledNetlistCache.checkout`),
* ``call`` items are opaque single computations (deduplicated and
  cached, never batched).

:func:`run_job_naive` is the per-request comparator: it computes every
item individually - no batching, no dedup, no caches - and must return
a bitwise-identical artifact (the service benchmark enforces this).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.experiments.parallel import stable_key

Params = Dict[str, Any]
Recompose = Callable[[List[Any]], Any]


@dataclass(frozen=True)
class WorkItem:
    """One unit of coalescible work.

    ``kind`` selects the dispatcher, ``group`` the batch it may join,
    and ``(namespace, key)`` its cache identity - shared with the
    experiment runners' own on-disk caches wherever the unit matches
    (e.g. Figure 14 workload rows reuse the ``figure14-v1`` namespace,
    so a CLI sweep warms the service and vice versa).  ``payload`` is
    dispatcher-specific and never serialised.
    """

    kind: str
    namespace: str
    key: Any
    group: Hashable
    payload: Any

    def digest(self) -> str:
        """Singleflight/cache identity of this item."""
        return f"{self.kind}:{self.namespace}:{stable_key(self.key)}"


@dataclass(frozen=True)
class DecomposedJob:
    """A job's unit items plus the artifact recomposer."""

    items: Tuple[WorkItem, ...]
    recompose: Recompose


def jsonable(value: Any) -> Any:
    """Cache- and wire-safe view: dataclasses/enums/numpy scalars out."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and type(value).__module__ == "numpy":
        return value.item()
    return value


# ---------------------------------------------------------------------------
# figure14 (and ad-hoc CPI requests): one item per workload, design-union
# coalescing at dispatch.


def _cpu_item(name: str, scale: float, designs: Tuple[str, ...],
              max_instructions: int) -> WorkItem:
    from repro.experiments import figure14

    # figure14.run's own cache entry, so service and CLI share rows.
    key = figure14.row_key(name, scale, designs, None, max_instructions)
    return WorkItem(kind="cpu", namespace=figure14.NAMESPACE, key=key,
                    group=("cpu", name, scale, max_instructions),
                    payload=(name, scale, designs, max_instructions))


def _cpu_compute(payloads: Sequence[Tuple[str, float, Tuple[str, ...], int]]
                 ) -> List[Dict[str, Any]]:
    """Run one program once, replay the union of designs, one row per item.

    The design union replays as **one lane set** over one op tape
    (:func:`repro.cpu.batched.replay_lanes`, via ``simulate_program``);
    each item's row is :func:`repro.experiments.figure14.workload_row`
    over its own designs.  :data:`CPU_LANE_METRICS` records the lane
    occupancy of every dispatch for ``stats()["cpu_lanes"]``, mirroring
    ``pulse_lanes``.
    """
    from repro.cpu import simulate_program
    from repro.experiments.figure14 import workload_row
    from repro.isa import assemble
    from repro.workloads import get_workload

    if not payloads:
        return []
    name, scale, _, max_instructions = payloads[0]
    union: List[str] = []
    for _, _, designs, _ in payloads:
        for design in designs:
            if design not in union:
                union.append(design)
    program = assemble(get_workload(name).build(scale))
    reports = simulate_program(program, union, name,
                               max_instructions=max_instructions)
    CPU_LANE_METRICS.record(len(union))
    return [workload_row(name, reports, designs)
            for _, _, designs, _ in payloads]


def _decompose_figure14(params: Params) -> DecomposedJob:
    from repro.cpu.rf_model import RF_DESIGN_NAMES
    from repro.experiments.figure14 import FIGURE14_WORKLOADS
    from repro.workloads import get_workload

    scale = float(params.get("scale", 1.0))
    max_instructions = int(params.get("max_instructions", 400_000))
    designs = tuple(params.get("designs", RF_DESIGN_NAMES))
    if "ndro_rf" not in designs:  # every row is an overhead vs baseline
        designs = ("ndro_rf",) + designs
    for design in designs:
        if design not in RF_DESIGN_NAMES:
            raise ValueError(f"unknown design {design!r}; "
                             f"choose from {RF_DESIGN_NAMES}")
    workloads = tuple(params.get("workloads", FIGURE14_WORKLOADS))
    for name in workloads:
        get_workload(name)  # raises KeyError-alike on unknown workloads
    items = tuple(_cpu_item(name, scale, designs, max_instructions)
                  for name in workloads)

    def recompose(values: List[Any]) -> Any:
        overhead: Dict[str, Dict[str, float]] = {
            d: {} for d in designs if d != "ndro_rf"}
        baseline_cpi: Dict[str, float] = {}
        instructions: Dict[str, int] = {}
        for name, row in zip(workloads, values):
            baseline_cpi[name] = float(row["baseline_cpi"])
            instructions[name] = int(row["instructions"])
            for design, pct in row["overhead_percent"].items():
                overhead[design][name] = pct
        count = max(1, len(workloads))
        return {
            "experiment": "figure14",
            "scale": scale,
            "baseline_cpi": baseline_cpi,
            "instructions": instructions,
            "overhead_percent": overhead,
            "average_baseline_cpi": sum(baseline_cpi.values()) / count,
            "average_overhead_percent": {
                design: sum(series.values()) / count
                for design, series in overhead.items()},
        }

    return DecomposedJob(items=items, recompose=recompose)


# ---------------------------------------------------------------------------
# margins: one item per HC-DRO operating point, topology-grouped batching.


def _margin_configs(params: Params) -> Tuple[List[Any], List[float], List[int]]:
    from repro.josim.cells import (
        RECOMMENDED_J2_BIAS_UA,
        RECOMMENDED_READ_PULSE_UA,
    )
    from repro.josim.sweep import HCDROConfig

    scales = [float(s) for s in params.get("scales",
                                           (0.90, 0.95, 1.0, 1.05, 1.10))]
    write_counts = [int(w) for w in params.get("write_counts", (0, 2, 3))]
    reads = int(params.get("reads", 4))
    j2_bias_ua = float(params.get("j2_bias_ua", RECOMMENDED_J2_BIAS_UA))
    extras: Params = {}
    for field in ("settle_ps", "pulse_spacing_ps", "pulse_width_ps",
                  "timestep_ps"):
        if field in params:
            extras[field] = float(params[field])
    if not scales or not write_counts:
        raise ValueError("margins needs non-empty scales and write_counts")
    configs = [HCDROConfig(writes=writes, reads=reads,
                           read_amplitude_ua=RECOMMENDED_READ_PULSE_UA * scale,
                           j2_bias_ua=j2_bias_ua, **extras)
               for scale in scales for writes in write_counts]
    return configs, scales, write_counts


def _hcdro_item(config: Any) -> WorkItem:
    from repro.josim.sweep import HCDRO_NAMESPACE, topology_key

    return WorkItem(kind="hcdro", namespace=HCDRO_NAMESPACE, key=config,
                    group=("hcdro",) + tuple(topology_key(config)),
                    payload=config)


def _hcdro_compute(payloads: Sequence[Any]) -> List[Dict[str, Any]]:
    """One same-topology group: ``run_configs``' own group step."""
    from repro.josim.sweep import hcdro_values

    return hcdro_values(payloads)


def _decompose_margins(params: Params) -> DecomposedJob:
    configs, scales, write_counts = _margin_configs(params)
    items = tuple(_hcdro_item(config) for config in configs)
    stride = len(write_counts)

    def recompose(values: List[Any]) -> Any:
        from repro.josim.margins import MarginPoint, working_margin_percent
        from repro.josim.sweep import hcdro_correct

        verdicts = [hcdro_correct(config.writes, **value)
                    for config, value in zip(configs, values)]
        points = []
        rows = []
        for index, scale in enumerate(scales):
            config = configs[index * stride]
            correct = all(verdicts[index * stride:(index + 1) * stride])
            points.append(MarginPoint(
                read_amplitude_ua=config.read_amplitude_ua,
                j2_bias_ua=config.j2_bias_ua, correct=correct))
            rows.append({"scale": scale,
                         "read_amplitude_ua": config.read_amplitude_ua,
                         "j2_bias_ua": config.j2_bias_ua,
                         "correct": correct})
        return {
            "experiment": "margins",
            "points": rows,
            "working_margin_percent": working_margin_percent(points),
        }

    return DecomposedJob(items=items, recompose=recompose)


# ---------------------------------------------------------------------------
# Single-computation experiments ride the "call" kind: deduplicated and
# cached, dispatched individually.


def _call_item(namespace: str, key: Any, fn: Callable[[], Any]) -> WorkItem:
    return WorkItem(kind="call", namespace=namespace, key=key,
                    group=("call", namespace, stable_key(key)), payload=fn)


def _first(values: List[Any]) -> Any:
    return values[0]


def _decompose_figure15(params: Params) -> DecomposedJob:
    from repro.experiments import figure15

    cell_pitch_um = float(params.get("cell_pitch_um", 75.0))
    # figure15.run's own cache entry.
    item = _call_item(figure15.NAMESPACE, figure15.report_key(cell_pitch_um),
                      lambda: figure15.loopback_report(cell_pitch_um))
    return DecomposedJob(items=(item,), recompose=_first)


def _decompose_montecarlo(params: Params) -> DecomposedJob:
    samples = int(params.get("samples", 96))
    seed = int(params.get("seed", 1234))
    sigma_ic = float(params.get("sigma_ic", 0.02))
    sigma_l = float(params.get("sigma_l", 0.03))
    sigma_bias = float(params.get("sigma_bias", 0.02))
    read_scales = tuple(float(s) for s in
                        params.get("read_scales", (0.95, 1.0, 1.05)))
    key = {"samples": samples, "seed": seed, "sigma_ic": sigma_ic,
           "sigma_l": sigma_l, "sigma_bias": sigma_bias,
           "read_scales": list(read_scales)}

    def compute() -> Any:
        from repro.josim.montecarlo import (
            SpreadSpec,
            YieldConfig,
            run_yield_analysis,
        )

        config = YieldConfig(samples=samples, seed=seed,
                             spreads=SpreadSpec(sigma_ic=sigma_ic,
                                                sigma_l=sigma_l,
                                                sigma_bias=sigma_bias),
                             read_scales=read_scales)
        report = jsonable(run_yield_analysis(config, workers=1))
        # Wall-clock fields can never be bitwise reproducible; the
        # artifact carries only the deterministic roll-ups.
        report.pop("elapsed_s", None)
        report.pop("lanes_per_sec", None)
        return report

    item = _call_item("service-montecarlo-v2", key, compute)
    return DecomposedJob(items=(item,), recompose=_first)


def _decompose_banking(params: Params) -> DecomposedJob:
    scale = float(params.get("scale", 0.6))
    max_instructions = int(params.get("max_instructions", 300_000))

    def compute() -> Any:
        from repro.experiments import banking

        return banking.run(scale=scale, max_instructions=max_instructions)

    item = _call_item("service-banking-v1",
                      {"scale": scale, "max_instructions": max_instructions},
                      compute)
    return DecomposedJob(items=(item,), recompose=_first)


def _decompose_ablations(params: Params) -> DecomposedJob:
    scale = float(params.get("scale", 0.6))
    max_instructions = int(params.get("max_instructions", 300_000))

    def compute() -> Any:
        from repro.experiments import ablations

        return {
            "dual_bit": ablations.dual_bit_ablation(),
            "bank_policy": ablations.bank_policy_ablation(
                scale=scale, max_instructions=max_instructions, workers=1),
        }

    item = _call_item("service-ablations-v1",
                      {"scale": scale, "max_instructions": max_instructions},
                      compute)
    return DecomposedJob(items=(item,), recompose=_first)


# ---------------------------------------------------------------------------
# pulse_rf: write/read a pattern through a cached compiled pulse netlist.
# Concurrent jobs on one netlist are the sharing hazard the checkout API
# exists for - the dispatcher never touches an engine outside a checkout.


def _decompose_pulse_rf(params: Params) -> DecomposedJob:
    registers = int(params.get("registers", 8))
    width = int(params.get("width", 8))
    op_period_ps = float(params.get("op_period_ps", 600.0))
    pattern = [[int(r), int(v)] for r, v in
               params.get("pattern", [[1, 0b1011], [2, 0b0110]])]
    for register, value in pattern:
        if not 0 <= register < registers:
            raise ValueError(f"pattern register {register} outside "
                             f"[0, {registers})")
        if not 0 <= value < (1 << width):
            raise ValueError(f"pattern value {value} needs more than "
                             f"{width} bits")
    key = {"registers": registers, "width": width,
           "op_period_ps": op_period_ps, "pattern": pattern}
    item = WorkItem(kind="pulse", namespace="service-pulse-rf-v1", key=key,
                    group=("pulse", registers, width, op_period_ps),
                    payload=(registers, width, op_period_ps, pattern))
    return DecomposedJob(items=(item,), recompose=_first)


def _pulse_schedule(rf: Any, pattern: List[List[int]]) -> List[float]:
    """Schedule one item's write/read program (live or under capture).

    Writes every pattern word (each one op period after the previous
    write ends), then reads each register back with a
    :meth:`~repro.rf.netlist.PulseHiPerRF.probed_read`, four op periods
    apart, so each value survives in the lane record.  Returns the
    settle time of every read, in pattern order.
    """
    t = rf.op_period_ps
    for register, value in pattern:
        t = rf.write_word(register, value, t) + rf.op_period_ps
    settles = []
    for register, _ in pattern:
        settles.append(rf.probed_read(register, t))
        t += 4 * rf.op_period_ps
    return settles


def _pulse_observe(rf: Any, pattern: List[List[int]],
                   settles: List[float]) -> Dict[str, Any]:
    """One item's value from its installed lane state."""
    return {"stored": {str(register): rf.stored_word(register)
                       for register, _ in pattern},
            "read": {str(register): rf.probe_word(settle)
                     for (register, _), settle in zip(pattern, settles)}}


def _pulse_compute(payloads: Sequence[Any]) -> List[Dict[str, Any]]:
    """One lane set over the group's shared cached netlist.

    Every payload in a group shares the build key, so the whole batch
    is one :meth:`~repro.rf.netlist.PulseHiPerRF.run_trials` sweep:
    one exclusive checkout, one stimulus lane per item.  Per-item
    values are identical whether the item dispatches alone or with
    strangers - the equivalence the service benchmark enforces.
    """
    from repro.rf import RFGeometry
    from repro.rf.netlist import PulseHiPerRF

    if not payloads:
        return []
    registers, width, op_period_ps, _ = payloads[0]
    values = PulseHiPerRF.run_trials(
        RFGeometry(registers, width), op_period_ps,
        [payload[3] for payload in payloads], _pulse_schedule,
        _pulse_observe)
    PULSE_LANE_METRICS.record(len(payloads))
    return values


class _LaneMetrics:
    """Thread-safe lane-occupancy record of lane-set dispatches: one
    dispatch count per lane size, so it stays as small as the number
    of distinct sizes however many dispatches it records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: "collections.Counter[int]" = collections.Counter()

    def record(self, lanes: int) -> None:
        with self._lock:
            self._counts[int(lanes)] += 1

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = sorted(self._counts.items())
        dispatches = sum(count for _, count in counts)
        if not dispatches:
            return {"dispatches": 0, "lanes_total": 0,
                    "batches_coalesced": 0, "lanes_max": 0,
                    "lanes_p50": 0.0, "lanes_p95": 0.0}

        def rank(p: float) -> float:  # nearest-rank percentile
            index = min(dispatches - 1, max(0, math.ceil(p * dispatches) - 1))
            for lanes, count in counts:
                if index < count:
                    break
                index -= count
            return float(lanes)

        return {"dispatches": dispatches,
                "lanes_total": sum(lanes * count for lanes, count in counts),
                "batches_coalesced": sum(count for lanes, count in counts
                                         if lanes > 1),
                "lanes_max": counts[-1][0],
                "lanes_p50": rank(0.50),
                "lanes_p95": rank(0.95)}


#: Lane occupancy of every ``pulse`` dispatch in this process (the
#: coalescing engine surfaces a snapshot under ``stats()["pulse_lanes"]``).
PULSE_LANE_METRICS = _LaneMetrics()


def pulse_lane_stats() -> Dict[str, Any]:
    """Snapshot of :data:`PULSE_LANE_METRICS` for ``/stats`` payloads."""
    return PULSE_LANE_METRICS.snapshot()


#: Lane occupancy of every ``cpu`` design-union dispatch in this process
#: (surfaced under ``stats()["cpu_lanes"]``, mirroring ``pulse_lanes``).
CPU_LANE_METRICS = _LaneMetrics()


def cpu_lane_stats() -> Dict[str, Any]:
    """Snapshot of :data:`CPU_LANE_METRICS` for ``/stats`` payloads."""
    return CPU_LANE_METRICS.snapshot()


def _call_compute(payloads: Sequence[Any]) -> List[Any]:
    return [fn() for fn in payloads]


# ---------------------------------------------------------------------------
# Registries.


ADAPTERS: Dict[str, Callable[[Params], DecomposedJob]] = {
    "figure14": _decompose_figure14,
    "figure15": _decompose_figure15,
    "margins": _decompose_margins,
    "montecarlo": _decompose_montecarlo,
    "banking": _decompose_banking,
    "ablations": _decompose_ablations,
    "pulse_rf": _decompose_pulse_rf,
}

SUPPORTED_EXPERIMENTS: Tuple[str, ...] = tuple(sorted(ADAPTERS))

#: kind -> batch dispatcher: payloads (one group) in, values (same order) out.
DISPATCHERS: Dict[str, Callable[[Sequence[Any]], List[Any]]] = {
    "hcdro": _hcdro_compute,
    "cpu": _cpu_compute,
    "pulse": _pulse_compute,
    "call": _call_compute,
}


def decompose(experiment: str, params: Optional[Params]) -> DecomposedJob:
    """Decompose a request; raises ``ValueError`` on a bad one."""
    adapter = ADAPTERS.get(experiment)
    if adapter is None:
        raise ValueError(f"unknown experiment {experiment!r}; "
                         f"choose from {', '.join(SUPPORTED_EXPERIMENTS)}")
    try:
        return adapter(dict(params or {}))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad {experiment} params: {exc}") from exc


def dispatch_group(kind: str, payloads: Sequence[Any]) -> List[Any]:
    """Run one coalesced batch; values come back in payload order."""
    return DISPATCHERS[kind](payloads)


def compute_item(item: WorkItem) -> Any:
    """Scalar per-item path: what one request costs on its own.

    Every item dispatches as a singleton group (an ``hcdro`` item thus
    runs the scalar solver, which shares the batched tier's formulation;
    the per-element reference tier is the oracle of both) - so a naive
    run exercises per-request execution with no sharing of any sort.
    """
    return dispatch_group(item.kind, [item.payload])[0]


def run_job_naive(experiment: str, params: Optional[Params]) -> Any:
    """Per-request execution: every item computed alone, uncached.

    The benchmark's baseline and the coalescing engine's equivalence
    comparator - artifacts must match the engine's bitwise.
    """
    job = decompose(experiment, params)
    return job.recompose([compute_item(item) for item in job.items])
