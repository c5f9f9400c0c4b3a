"""Monte Carlo parametric yield tier for the HC-DRO cell.

Real SFQ sign-off is statistical: fabrication spreads junction critical
currents, inductances and bias delivery around their design values, so
a cell is characterised by its *parametric yield* — the fraction of
sampled process corners that still behave perfectly — rather than a
single worst-case margin.  This module layers that analysis on the
chunked block-diagonal batched solver:

* :func:`hcdro_parameter_specs` enumerates the perturbable parameters
  of the HC-DRO netlist (per-junction Ic, per-inductor L, per-source
  bias) with Gaussian fractional spreads from :class:`SpreadSpec`.
* :func:`sample_multipliers` draws the full ``(samples, params)``
  multiplier matrix from one seeded generator **up front**, so chunk
  size and worker count can never influence which parameters a sample
  receives (bitwise reproducibility).
* :func:`run_yield_analysis` shards ``samples x read_scales`` lanes
  through :class:`~repro.josim.solver.BatchedTransientSolver` (one
  topology group, one solver chunk per shard, streamed via
  ``run_reduced`` so waveforms never accumulate), optionally fanning
  shards out across worker processes, and rolls the integer verdicts
  up into a
  :class:`YieldReport` (yield %, percentile margins, per-parameter
  sensitivity).
* :func:`verify_against_scalar` replays randomly sampled lanes through
  the scalar :class:`~repro.josim.solver.TransientSolver` oracle and
  reports the worst phase deviation (the 1e-9 equivalence bar).

CLI::

    python -m repro.josim.montecarlo --samples 1000 --seed 7 --json

Lane ordering is sample-major (``lane = sample * len(scales) +
scale_index``); every roll-up is computed from the full verdict matrix
after all shards return, so results are invariant to sharding.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.parallel import parallel_map
from repro.josim.cells import (
    CellHandles,
    RECOMMENDED_J2_BIAS_UA,
    RECOMMENDED_PULSE_WIDTH_PS,
    RECOMMENDED_READ_PULSE_UA,
    RECOMMENDED_WRITE_PULSE_UA,
    build_hcdro_cell,
)
from repro.josim.elements import BiasCurrent, Inductor, JosephsonJunction
from repro.josim.solver import (
    BatchedTransientSolver,
    TransientResult,
    TransientSolver,
    chunk_lane_limit,
)
from repro.josim.testbench import HCDRORunReport, _reduce_report, _stamp_stimulus

#: Parameter kinds sampled per element class.
KIND_IC = "ic"
KIND_INDUCTANCE = "l"
KIND_BIAS = "bias"

#: Multipliers are clipped here so a deep negative tail can never flip
#: the sign of a physical parameter (element validation would reject it).
MIN_MULTIPLIER = 0.05


@dataclass(frozen=True)
class SpreadSpec:
    """Fractional 1-sigma Gaussian spreads per element class.

    The defaults approximate a mature Nb process: ~2% Ic spread, ~3%
    inductance spread, ~2% bias-delivery spread.
    """

    sigma_ic: float = 0.02
    sigma_l: float = 0.03
    sigma_bias: float = 0.02

    def __post_init__(self) -> None:
        for label, value in (("sigma_ic", self.sigma_ic),
                             ("sigma_l", self.sigma_l),
                             ("sigma_bias", self.sigma_bias)):
            if value < 0.0:
                raise ConfigError(f"{label} must be >= 0, got {value}")


@dataclass(frozen=True)
class ParameterSpec:
    """One perturbable netlist parameter: an element field plus its sigma."""

    element: str
    kind: str
    sigma: float

    @property
    def label(self) -> str:
        return f"{self.element}.{self.kind}"


@dataclass(frozen=True)
class YieldConfig:
    """One Monte Carlo yield study, fully determined by its fields."""

    samples: int = 1000
    seed: int = 1234
    spreads: SpreadSpec = field(default_factory=SpreadSpec)
    read_scales: Tuple[float, ...] = (0.95, 1.0, 1.05)
    writes: int = 3
    reads: int = 4
    write_amplitude_ua: float = RECOMMENDED_WRITE_PULSE_UA
    read_amplitude_ua: float = RECOMMENDED_READ_PULSE_UA
    j2_bias_ua: float = RECOMMENDED_J2_BIAS_UA
    pulse_width_ps: float = RECOMMENDED_PULSE_WIDTH_PS
    pulse_spacing_ps: float = 25.0
    settle_ps: float = 30.0
    timestep_ps: float = 0.05
    record_every: int = 20

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ConfigError(f"samples must be positive, got {self.samples}")
        if not self.read_scales:
            raise ConfigError("read_scales must be non-empty")
        if any(scale <= 0.0 for scale in self.read_scales):
            raise ConfigError("read_scales must be positive")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")

    @property
    def lanes(self) -> int:
        """Total transient lanes the study runs (samples x scales)."""
        return self.samples * len(self.read_scales)

    @property
    def nominal_index(self) -> int:
        """Index of the read scale closest to 1.0 (the yield scale)."""
        return int(np.argmin(np.abs(np.asarray(self.read_scales) - 1.0)))


@dataclass(frozen=True)
class YieldReport:
    """Roll-up of one Monte Carlo yield study."""

    config: YieldConfig
    yield_percent: float
    scale_yield: Dict[float, float]
    margin_mean_percent: float
    margin_p5_percent: float
    margin_p50_percent: float
    margin_p95_percent: float
    sensitivity: Dict[str, float]
    elapsed_s: float
    lanes_per_sec: float


def hcdro_parameter_specs(
        spreads: Optional[SpreadSpec] = None) -> Tuple[ParameterSpec, ...]:
    """Enumerate the HC-DRO cell's perturbable parameters, template order.

    Junctions spread in Ic, inductors in L, bias sources in delivered
    current.  Parameters whose class sigma is zero are omitted so the
    multiplier matrix only carries live columns.  The template circuit
    fixes the ordering, which in turn fixes the meaning of each column
    of :func:`sample_multipliers` for a given :class:`SpreadSpec`.
    """
    spreads = spreads or SpreadSpec()
    template = build_hcdro_cell()
    specs: List[ParameterSpec] = []
    for element in template.circuit.elements:
        if isinstance(element, JosephsonJunction) and spreads.sigma_ic > 0:
            specs.append(ParameterSpec(element.name, KIND_IC,
                                       spreads.sigma_ic))
        elif isinstance(element, Inductor) and spreads.sigma_l > 0:
            specs.append(ParameterSpec(element.name, KIND_INDUCTANCE,
                                       spreads.sigma_l))
        elif isinstance(element, BiasCurrent) and spreads.sigma_bias > 0:
            specs.append(ParameterSpec(element.name, KIND_BIAS,
                                       spreads.sigma_bias))
    return tuple(specs)


def sample_multipliers(specs: Sequence[ParameterSpec], samples: int,
                       seed: int) -> np.ndarray:
    """Draw the full ``(samples, len(specs))`` multiplier matrix.

    One seeded generator, one draw, before any sharding — so the same
    ``(specs, samples, seed)`` triple yields a bitwise-identical matrix
    regardless of chunk size or worker count.  Multipliers are
    ``1 + sigma * z`` with ``z ~ N(0, 1)``, clipped at
    :data:`MIN_MULTIPLIER`.
    """
    if samples <= 0:
        raise ConfigError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, len(specs)))
    sigmas = np.asarray([spec.sigma for spec in specs], dtype=float)
    return np.maximum(1.0 + z * sigmas, MIN_MULTIPLIER)


def apply_multipliers(handles: CellHandles,
                      specs: Sequence[ParameterSpec],
                      multipliers: np.ndarray) -> None:
    """Scale one cell's parameters in place by one multiplier row.

    Mutates the named element fields and re-runs their validation /
    derived-constant hooks (``__post_init__``) so precomputed stamps
    like ``inv_l`` stay consistent with the perturbed values.
    """
    if len(multipliers) != len(specs):
        raise ConfigError(
            f"multiplier row has {len(multipliers)} entries for "
            f"{len(specs)} parameter specs")
    for spec, multiplier in zip(specs, multipliers):
        element = handles.circuit.element(spec.element)
        scale = float(multiplier)
        if spec.kind == KIND_IC:
            assert isinstance(element, JosephsonJunction)
            element.critical_current_ua *= scale
            element.__post_init__()
        elif spec.kind == KIND_INDUCTANCE:
            assert isinstance(element, Inductor)
            element.inductance_ph *= scale
            element.__post_init__()
        elif spec.kind == KIND_BIAS:
            assert isinstance(element, BiasCurrent)
            element.current_ua *= scale
        else:  # pragma: no cover - specs built by hcdro_parameter_specs
            raise ConfigError(f"unknown parameter kind {spec.kind!r}")


def _build_lane(config: YieldConfig, specs: Sequence[ParameterSpec],
                multiplier_row: np.ndarray,
                read_scale: float) -> Tuple[CellHandles, float, float]:
    """Build one perturbed, stimulus-stamped cell; return (handles, read_start, end)."""
    handles = build_hcdro_cell(j2_bias_ua=config.j2_bias_ua)
    apply_multipliers(handles, specs, multiplier_row)
    read_start, end = _stamp_stimulus(
        handles, config.writes, config.reads,
        write_amplitude_ua=config.write_amplitude_ua,
        read_amplitude_ua=config.read_amplitude_ua * read_scale,
        pulse_width_ps=config.pulse_width_ps,
        pulse_spacing_ps=config.pulse_spacing_ps,
        settle_ps=config.settle_ps)
    return handles, read_start, end


#: Integer outcome of one lane: (stored_after_writes, stored_at_end,
#: output_pulses).  Integers — not floats — cross the shard boundary,
#: so roll-ups are exactly invariant to sharding and worker count.
LaneOutcome = Tuple[int, int, int]


@dataclass(frozen=True)
class _ShardTask:
    """Picklable unit of work: a contiguous slice of the lane list."""

    config: YieldConfig
    specs: Tuple[ParameterSpec, ...]
    multiplier_rows: np.ndarray  # (lanes_in_shard, params)
    read_scales: Tuple[float, ...]  # per-lane read scale


def _run_shard(task: _ShardTask) -> List[LaneOutcome]:
    """Run one shard's lanes as one batched-solver chunk."""
    config = task.config
    lanes = [
        _build_lane(config, task.specs, task.multiplier_rows[i], scale)
        for i, scale in enumerate(task.read_scales)
    ]
    solver = BatchedTransientSolver(
        [handles.circuit for handles, _, _ in lanes],
        timestep_ps=config.timestep_ps,
        labels=[f"mc lane {i} (scale {scale:g})"
                for i, scale in enumerate(task.read_scales)])
    outcomes: List[Optional[LaneOutcome]] = [None] * len(lanes)

    def reduce(lane: int, result: TransientResult) -> None:
        handles, read_start, _ = lanes[lane]
        report: HCDRORunReport = _reduce_report(
            result, handles, config.writes, config.reads, read_start)
        outcomes[lane] = (report.stored_after_writes, report.stored_at_end,
                          report.output_pulses)

    solver.run_reduced([end for _, _, end in lanes], reduce,
                       record_every=config.record_every)
    return [outcome for outcome in outcomes if outcome is not None]


def run_lanes(config: YieldConfig, multipliers: np.ndarray,
              specs: Sequence[ParameterSpec],
              workers: Optional[int] = None) -> List[LaneOutcome]:
    """Evaluate every (sample, scale) lane; returns sample-major outcomes.

    Lanes are split into shards of one batched-solver chunk
    (:data:`~repro.josim.solver.CHUNK_LANES`), so peak memory is one
    chunk's; shards fan out across worker processes when more than one
    worker resolves and more than one shard exists.
    """
    scales = config.read_scales
    lane_scales = [scale for _ in range(config.samples) for scale in scales]
    lane_samples = [s for s in range(config.samples) for _ in scales]
    shard = chunk_lane_limit()
    tasks: List[_ShardTask] = []
    for start in range(0, len(lane_scales), shard):
        stop = min(start + shard, len(lane_scales))
        tasks.append(_ShardTask(
            config=config,
            specs=tuple(specs),
            multiplier_rows=multipliers[lane_samples[start:stop]],
            read_scales=tuple(lane_scales[start:stop])))
    shard_results = parallel_map(_run_shard, tasks, workers=workers)
    outcomes: List[LaneOutcome] = []
    for result in shard_results:
        outcomes.extend(result)
    return outcomes


def _verdicts(config: YieldConfig,
              outcomes: Sequence[LaneOutcome]) -> np.ndarray:
    """Boolean (samples, scales) verdict matrix from lane outcomes."""
    expected = min(config.writes, 3)
    flat = np.asarray([
        stored_mid == expected and stored_end == 0 and pulses == expected
        for stored_mid, stored_end, pulses in outcomes
    ], dtype=bool)
    return flat.reshape(config.samples, len(config.read_scales))


def _margins_percent(config: YieldConfig, verdicts: np.ndarray) -> np.ndarray:
    """Per-sample contiguous working window around nominal, in percent.

    Mirrors :func:`repro.josim.margins.working_margin_percent`: expand
    from the nominal scale outwards while every tested scale passes;
    the margin is the smaller one-sided span.  A sample failing at
    nominal has zero margin.
    """
    order = np.argsort(np.asarray(config.read_scales))
    scales = np.asarray(config.read_scales)[order]
    nominal_pos = int(np.argmin(np.abs(scales - 1.0)))
    nominal = float(scales[nominal_pos])
    margins = np.zeros(verdicts.shape[0], dtype=float)
    ordered = verdicts[:, order]
    for sample in range(verdicts.shape[0]):
        if not ordered[sample, nominal_pos]:
            continue
        low = high = nominal
        for pos in range(nominal_pos - 1, -1, -1):
            if not ordered[sample, pos]:
                break
            low = float(scales[pos])
        for pos in range(nominal_pos + 1, len(scales)):
            if not ordered[sample, pos]:
                break
            high = float(scales[pos])
        margins[sample] = 100.0 * min(nominal - low, high - nominal)
    return margins


def _sensitivity(specs: Sequence[ParameterSpec], multipliers: np.ndarray,
                 passed: np.ndarray) -> Dict[str, float]:
    """Mean multiplier shift of failing vs passing samples, in sigmas.

    A strongly positive value means failures sit above nominal on that
    parameter (it fails high); negative means it fails low; near zero
    means the yield is insensitive to it.  Zero when either group is
    empty — with no contrast there is no signal.
    """
    sensitivity: Dict[str, float] = {}
    failed = ~passed
    for column, spec in enumerate(specs):
        if not passed.any() or not failed.any() or spec.sigma <= 0:
            sensitivity[spec.label] = 0.0
            continue
        delta = (float(multipliers[failed, column].mean())
                 - float(multipliers[passed, column].mean()))
        sensitivity[spec.label] = delta / spec.sigma
    return sensitivity


def run_yield_analysis(config: Optional[YieldConfig] = None,
                       workers: Optional[int] = None) -> YieldReport:
    """Full Monte Carlo yield study: sample, simulate, roll up."""
    config = config or YieldConfig()
    specs = hcdro_parameter_specs(config.spreads)
    multipliers = sample_multipliers(specs, config.samples, config.seed)
    started = time.perf_counter()
    outcomes = run_lanes(config, multipliers, specs, workers=workers)
    elapsed = time.perf_counter() - started
    verdicts = _verdicts(config, outcomes)
    nominal = config.nominal_index
    passed = verdicts[:, nominal]
    margins = _margins_percent(config, verdicts)
    scale_yield = {
        float(scale): 100.0 * float(verdicts[:, k].mean())
        for k, scale in enumerate(config.read_scales)
    }
    return YieldReport(
        config=config,
        yield_percent=100.0 * float(passed.mean()),
        scale_yield=scale_yield,
        margin_mean_percent=float(margins.mean()),
        margin_p5_percent=float(np.percentile(margins, 5.0)),
        margin_p50_percent=float(np.percentile(margins, 50.0)),
        margin_p95_percent=float(np.percentile(margins, 95.0)),
        sensitivity=_sensitivity(specs, multipliers, passed),
        elapsed_s=elapsed,
        lanes_per_sec=config.lanes / elapsed if elapsed > 0 else 0.0,
    )


def verify_against_scalar(config: Optional[YieldConfig] = None,
                          lanes: int = 32) -> float:
    """Replay sampled lanes through the scalar oracle; return max |dphi|.

    Builds each picked lane's perturbed circuit twice from the same
    multiplier row — once for the batched tier, once for the scalar
    :class:`TransientSolver` — and compares full phase trajectories at
    ``record_every=1``.  The acceptance bar is 1e-9.
    """
    config = config or YieldConfig()
    specs = hcdro_parameter_specs(config.spreads)
    multipliers = sample_multipliers(specs, config.samples, config.seed)
    rng = np.random.default_rng(config.seed + 1)
    total = config.lanes
    picked = rng.choice(total, size=min(lanes, total), replace=False)
    num_scales = len(config.read_scales)
    built = []
    for lane in picked:
        sample, scale_idx = divmod(int(lane), num_scales)
        scale = config.read_scales[scale_idx]
        built.append((
            _build_lane(config, specs, multipliers[sample], scale),
            _build_lane(config, specs, multipliers[sample], scale),
        ))
    solver = BatchedTransientSolver(
        [batched[0].circuit for batched, _ in built],
        timestep_ps=config.timestep_ps)
    batched_results = solver.run([batched[2] for batched, _ in built])
    worst = 0.0
    for (_, scalar_lane), batched_result in zip(built, batched_results):
        handles, _, end = scalar_lane
        scalar_result = TransientSolver(
            handles.circuit, timestep_ps=config.timestep_ps).run(end)
        deviation = float(np.max(np.abs(
            batched_result.phases - scalar_result.phases)))
        worst = max(worst, deviation)
    return worst


def render(report: YieldReport) -> str:
    """Human-readable summary of a yield study."""
    config = report.config
    title = (f"HC-DRO Monte Carlo yield — {config.samples} samples x "
             f"{len(config.read_scales)} read scales "
             f"({config.lanes} lanes, seed {config.seed})")
    lines = [title, "=" * len(title)]
    lines.append(f"spreads: Ic {100 * config.spreads.sigma_ic:.1f}%  "
                 f"L {100 * config.spreads.sigma_l:.1f}%  "
                 f"bias {100 * config.spreads.sigma_bias:.1f}%  (1-sigma)")
    lines.append(f"parametric yield at nominal read: "
                 f"{report.yield_percent:.2f}%")
    lines.append("yield by read scale:")
    for scale in sorted(report.scale_yield):
        lines.append(f"  x{scale:<5g} {report.scale_yield[scale]:6.2f}%")
    lines.append(f"read margin (percent of nominal): "
                 f"mean {report.margin_mean_percent:.2f}  "
                 f"p5 {report.margin_p5_percent:.2f}  "
                 f"p50 {report.margin_p50_percent:.2f}  "
                 f"p95 {report.margin_p95_percent:.2f}")
    lines.append("per-parameter sensitivity (fail-vs-pass shift, sigmas):")
    ranked = sorted(report.sensitivity.items(),
                    key=lambda item: -abs(item[1]))
    for label, value in ranked:
        lines.append(f"  {label:<12s} {value:+.3f}")
    lines.append(f"throughput: {report.lanes_per_sec:,.0f} lanes/sec "
                 f"({report.elapsed_s:.2f} s)")
    return "\n".join(lines)


def _report_dict(report: YieldReport) -> Dict[str, object]:
    return {
        "samples": report.config.samples,
        "seed": report.config.seed,
        "lanes": report.config.lanes,
        "read_scales": list(report.config.read_scales),
        "yield_percent": report.yield_percent,
        "scale_yield": {str(k): v for k, v in report.scale_yield.items()},
        "margin_mean_percent": report.margin_mean_percent,
        "margin_p5_percent": report.margin_p5_percent,
        "margin_p50_percent": report.margin_p50_percent,
        "margin_p95_percent": report.margin_p95_percent,
        "sensitivity": report.sensitivity,
        "elapsed_s": report.elapsed_s,
        "lanes_per_sec": report.lanes_per_sec,
    }


def _parse_scales(text: str) -> Tuple[float, ...]:
    try:
        scales = tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ConfigError(f"bad --scales value {text!r}") from exc
    if not scales:
        raise ConfigError("--scales must name at least one scale")
    return scales


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.josim.montecarlo",
        description="Monte Carlo parametric yield of the HC-DRO cell.")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--sigma-ic", type=float, default=0.02,
                        help="fractional 1-sigma Ic spread")
    parser.add_argument("--sigma-l", type=float, default=0.03,
                        help="fractional 1-sigma inductance spread")
    parser.add_argument("--sigma-bias", type=float, default=0.02,
                        help="fractional 1-sigma bias spread")
    parser.add_argument("--scales", type=str, default="0.95,1.0,1.05",
                        help="comma-separated read-amplitude scales")
    parser.add_argument("--writes", type=int, default=3)
    parser.add_argument("--reads", type=int, default=4)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--verify", type=int, default=0, metavar="LANES",
                        help="also replay LANES lanes through the scalar "
                             "oracle and report max |dphi|")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = YieldConfig(
            samples=args.samples,
            seed=args.seed,
            spreads=SpreadSpec(sigma_ic=args.sigma_ic, sigma_l=args.sigma_l,
                               sigma_bias=args.sigma_bias),
            read_scales=_parse_scales(args.scales),
            writes=args.writes,
            reads=args.reads)
        report = run_yield_analysis(config, workers=args.workers)
        payload = _report_dict(report)
        if args.verify > 0:
            deviation = verify_against_scalar(config, lanes=args.verify)
            payload["scalar_oracle_max_dphi"] = deviation
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render(report))
            if args.verify > 0:
                print(f"scalar-oracle max |dphi| over {args.verify} lanes: "
                      f"{payload['scalar_oracle_max_dphi']:.3e}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
