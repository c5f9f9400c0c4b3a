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
  run through :func:`repro.josim.testbench.run_hcdro_batch` - strangers'
  margin points share a dispatch, whose lane count picks the scalar
  solver or one :class:`~repro.josim.solver.BatchedTransientSolver`
  transient,
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
    from repro.cpu import CoreConfig

    # Key layout matches repro.experiments.figure14.run's cached_map
    # keys exactly, so service and CLI share the figure14-v1 namespace.
    key = (name, scale, list(designs), CoreConfig(), max_instructions)
    return WorkItem(kind="cpu", namespace="figure14-v1", key=key,
                    group=("cpu", name, scale, max_instructions),
                    payload=(name, scale, designs, max_instructions))


def _cpu_compute(payloads: Sequence[Tuple[str, float, Tuple[str, ...], int]]
                 ) -> List[Dict[str, Any]]:
    """Run one program once, replay the union of designs, slice per item.

    The design union replays as **one lane set** over one op tape
    (:func:`repro.cpu.batched.replay_lanes`, via ``simulate_program``);
    :data:`CPU_LANE_METRICS` records the lane occupancy of every
    dispatch for ``stats()["cpu_lanes"]``, mirroring ``pulse_lanes``.
    """
    from repro.cpu import simulate_program
    from repro.errors import ExecutionError
    from repro.isa import assemble
    from repro.workloads import PASS_EXIT_CODE, get_workload

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
    baseline = reports["ndro_rf"]
    if baseline.exit_code != PASS_EXIT_CODE:
        raise ExecutionError(
            f"{name}: self-check failed (exit {baseline.exit_code})")
    values: List[Dict[str, Any]] = []
    for _, _, designs, _ in payloads:
        values.append({
            "baseline_cpi": baseline.cpi,
            "instructions": baseline.instructions,
            "overhead_percent": {
                design: 100.0 * (reports[design].cpi / baseline.cpi - 1.0)
                for design in designs if design != "ndro_rf"},
        })
    return values


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
    from repro.josim.sweep import topology_key

    return WorkItem(kind="hcdro", namespace="service-hcdro-v1", key=config,
                    group=("hcdro",) + tuple(topology_key(config)),
                    payload=config)


def _hcdro_value(config: Any, report: Any) -> Dict[str, Any]:
    expected = min(config.writes, 3)
    return {
        "stored_after_writes": report.stored_after_writes,
        "stored_at_end": report.stored_at_end,
        "output_pulses": report.output_pulses,
        "correct": (report.stored_after_writes == expected
                    and report.output_pulses == expected
                    and report.stored_at_end == 0),
    }


def _hcdro_compute(payloads: Sequence[Any]) -> List[Dict[str, Any]]:
    """One ``run_hcdro_batch`` call over same-topology lanes."""
    from repro.josim.testbench import run_hcdro_batch

    reports = run_hcdro_batch(list(payloads))
    return [_hcdro_value(config, report)
            for config, report in zip(payloads, reports)]


def _decompose_margins(params: Params) -> DecomposedJob:
    configs, scales, write_counts = _margin_configs(params)
    items = tuple(_hcdro_item(config) for config in configs)
    stride = len(write_counts)

    def recompose(values: List[Any]) -> Any:
        from repro.josim.margins import MarginPoint, working_margin_percent

        points = []
        rows = []
        for index, scale in enumerate(scales):
            verdicts = values[index * stride:(index + 1) * stride]
            config = configs[index * stride]
            correct = all(v["correct"] for v in verdicts)
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
    cell_pitch_um = float(params.get("cell_pitch_um", 75.0))

    def compute() -> Any:
        from repro.rf import HiPerRF, RFGeometry, placed_loopback_report

        design = HiPerRF(RFGeometry(32, 32))
        return placed_loopback_report(design, cell_pitch_um=cell_pitch_um)

    # Same namespace/key as repro.experiments.figure15.run's cached_call.
    item = _call_item("figure15-v1", {"cell_pitch_um": cell_pitch_um}, compute)
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


def _pulse_schedule_one(rf: Any, op_period_ps: float,
                        pattern: List[List[int]]) -> List[float]:
    """Schedule one item's write/read program (live or under capture).

    Writes every pattern word (each one op period after the previous
    write ends), then reads each register back with loopback, four op
    periods apart.  Each read also fires the
    HC-READ counters onto the b0/b1 probes so the value survives in the
    lane record (a lane outcome cannot pause at the settle time to
    decode live counters the way ``read_word`` does).  Returns the
    settle time of every read, in pattern order.
    """
    engine = rf.engine
    t = op_period_ps
    for register, value in pattern:
        t = rf.write_word(register, value, t) + op_period_ps
    settles = []
    for register, _ in pattern:
        settle = rf.schedule_read(register, t, loopback=True)
        rf._broadcast(rf.hcr_read_tree, settle + 5.0)
        rf._broadcast(rf.hcr_reset_tree, settle + 15.0)
        engine.run(until_ps=t + 2 * rf.op_period_ps)
        settles.append(settle)
        t += 4 * op_period_ps
    return settles


def _pulse_probe_word(rf: Any, settle: float) -> int:
    """Decode one read's value from its b0/b1 probe pulse window."""
    value = 0
    for c in range(rf.columns):
        b0 = bool(rf.b0_probes[c].pulses_in_window(settle, settle + 100.0))
        b1 = bool(rf.b1_probes[c].pulses_in_window(settle, settle + 100.0))
        value |= (int(b0) | (int(b1) << 1)) << (2 * c)
    return value


def _pulse_compute(payloads: Sequence[Any]) -> List[Dict[str, Any]]:
    """One lane set over the group's shared cached netlist.

    Every payload in a group shares the build key, so the whole batch
    is one exclusive checkout: each item's program is captured as a
    stimulus lane and the group replays in a single
    :meth:`~repro.pulse.engine.Engine.run_lanes` call, one
    snapshot/restore replay per item.  Per-item values decode
    from the installed lane state and are identical whether the item
    dispatches alone or with strangers - the equivalence the service
    benchmark enforces.
    """
    from repro.pulse import capture_stimulus, install_lane
    from repro.rf import RFGeometry
    from repro.rf.netlist import PulseHiPerRF

    if not payloads:
        return []
    registers, width, op_period_ps, _ = payloads[0]
    geometry = RFGeometry(registers, width)
    with PulseHiPerRF.checkout_cached(geometry, op_period_ps) as rf:
        engine = rf.engine
        stimuli = []
        settle_lists = []
        for _, _, _, pattern in payloads:
            with capture_stimulus(engine) as capture:
                settle_lists.append(
                    _pulse_schedule_one(rf, op_period_ps, pattern))
            stimuli.append(capture.stimulus())
        outcomes = engine.run_lanes(stimuli, on_error="raise")
        PULSE_LANE_METRICS.record(len(stimuli))
        compiled = engine.compile()
        values: List[Dict[str, Any]] = []
        for payload, settles, outcome in zip(payloads, settle_lists,
                                             outcomes):
            pattern = payload[3]
            install_lane(compiled, outcome)
            stored = {str(register): rf.stored_word(register)
                      for register, _ in pattern}
            read_back = {}
            for (register, _), settle in zip(pattern, settles):
                read_back[str(register)] = _pulse_probe_word(rf, settle)
            values.append({"stored": stored, "read": read_back})
        return values


class _LaneMetrics:
    """Thread-safe lane-occupancy record of lane-set dispatches."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lanes: List[int] = []

    def record(self, lanes: int) -> None:
        with self._lock:
            self._lanes.append(int(lanes))

    def reset(self) -> None:
        with self._lock:
            self._lanes.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            lanes = sorted(self._lanes)
        if not lanes:
            return {"dispatches": 0, "lanes_total": 0,
                    "batches_coalesced": 0, "lanes_max": 0,
                    "lanes_p50": 0.0, "lanes_p95": 0.0}

        def rank(p: float) -> float:  # nearest-rank percentile
            return float(lanes[min(len(lanes) - 1,
                                   max(0, math.ceil(p * len(lanes)) - 1))])

        return {"dispatches": len(lanes),
                "lanes_total": sum(lanes),
                "batches_coalesced": sum(1 for n in lanes if n > 1),
                "lanes_max": lanes[-1],
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
    runs the scalar solver, the batched tier's oracle) - so a naive
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
