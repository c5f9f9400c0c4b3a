"""Benchmark the analog RCSJ solver on the Section II-D cell study.

``test_hcdro_analog_study`` tracks the compiled-stamp hot path;
``test_hcdro_reference_solver`` keeps the per-element assembly's cost
on record so the speedup trajectory stays visible in BENCH_josim.json
(see ``make bench-josim``).  ``test_batched_margin_grid_speedup``
times the lane-parallel batched backend against the scalar compiled
path on a full 5x5 margin grid (x3 write counts = 75 lanes) and
enforces the single-worker speedup bar.
``test_megabatch_monte_carlo_yield`` scales the same testbench through
the chunked Monte Carlo tier and records lanes/sec at each batch size.

The benchmarks run with ``REPRO_CACHE_DIR`` unset, so every sweep
simulates every lane and a developer's warm cache never leaks in;
``test_margin_sweep_cached_revisit`` times a revisit on its own
temporary cache root.
"""

import os
import time

import pytest

from repro.experiments import josim_cells
from repro.josim import sweep, testbench
from repro.josim.margins import sweep_margin_grid
from repro.josim.sweep import HCDROConfig
from repro.josim.testbench import run_hcdro_batch

#: Read/bias scale axes of the margin-grid benchmark: the Section II-D
#: grid, 25 operating points x 3 write counts = 75 testbench lanes.
GRID_SCALES = (0.90, 0.95, 1.00, 1.05, 1.10)

# The quiet-machine acceptance bar; the CI smoke job relaxes it
# ("batched must not be slower") and runs one timing rep - shared
# runners are too noisy for the 3x bar BENCH_josim.json records.
MIN_BATCH_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_BATCH_MIN_SPEEDUP", "3.0"))
TIMING_REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))

#: Mega-batch Monte Carlo scenario: lanes/sec at each batch size.  The
#: committed BENCH_josim.json runs the full ladder; CI smoke caps it
#: via REPRO_BENCH_MEGABATCH_MAX_LANES and relaxes the speedup floor.
MEGABATCH_SIZES = (75, 1_000, 10_000, 50_000)
MEGABATCH_MAX_LANES = int(
    os.environ.get("REPRO_BENCH_MEGABATCH_MAX_LANES", "50000"))


@pytest.fixture(autouse=True)
def _no_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
MIN_MEGABATCH_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MEGABATCH_MIN_SPEEDUP", "10.0"))


def _best_of(fn, reps: int = TIMING_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_hcdro_analog_study(benchmark):
    def full_capacity_roundtrip():
        return run_hcdro_batch([HCDROConfig(writes=3, reads=4)])[0]

    report = benchmark(full_capacity_roundtrip)
    benchmark.extra_info["stored"] = report.stored_after_writes
    benchmark.extra_info["popped"] = report.output_pulses
    assert report.stored_after_writes == 3
    assert report.output_pulses == 3


def test_hcdro_reference_solver(benchmark):
    import repro.josim.testbench as tb
    from repro.josim.solver import TransientSolver

    class _ReferenceSolver(TransientSolver):
        def __init__(self, circuit, **kwargs):
            kwargs["reference"] = True
            super().__init__(circuit, **kwargs)

    def run_reference():
        original = tb.TransientSolver
        tb.TransientSolver = _ReferenceSolver
        try:
            return run_hcdro_batch([HCDROConfig(writes=3, reads=4)])[0]
        finally:
            tb.TransientSolver = original

    report = benchmark.pedantic(run_reference, rounds=1, iterations=1)
    benchmark.extra_info["stored"] = report.stored_after_writes
    benchmark.extra_info["popped"] = report.output_pulses
    assert report.stored_after_writes == 3
    assert report.output_pulses == 3


def test_josim_experiment_sweep(benchmark):
    rows = benchmark.pedantic(josim_cells.run, rounds=1, iterations=1)
    for row in rows:
        assert row["stored"] == min(row["writes"], 3)


def test_batched_margin_grid_speedup(benchmark):
    """Batched vs scalar margin grid on a single worker.

    Both paths sweep the identical 5x5 (read, bias) grid with the
    default three write counts (75 lanes), uncached so every lane is
    simulated.  The batched path groups the 75 configs into
    three 25-lane topology batches; the scalar path lifts the lane-count
    rule above 25 lanes, so the scalar solver runs once per grid
    config.  Verdicts must agree point-for-point - the two tiers share
    one formulation.
    """
    def grid():
        return sweep_margin_grid(GRID_SCALES, GRID_SCALES, workers=1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testbench, "BATCHED_MIN_LANES", 2**30)
        scalar_points = grid()
        t_scalar = _best_of(grid)
    batched_points = grid()
    t_batched = _best_of(grid)
    assert [(p.read_amplitude_ua, p.j2_bias_ua, p.correct)
            for p in batched_points] == \
           [(p.read_amplitude_ua, p.j2_bias_ua, p.correct)
            for p in scalar_points]

    lanes = len(GRID_SCALES) ** 2 * 3
    speedup = t_scalar / t_batched
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["grid_points"] = len(batched_points)
    benchmark.extra_info["scalar_s"] = t_scalar
    benchmark.extra_info["batched_s"] = t_batched
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["scalar_per_lane_us"] = t_scalar / lanes * 1e6
    benchmark.extra_info["batched_per_lane_us"] = t_batched / lanes * 1e6
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched margin-grid speedup {speedup:.2f}x "
        f"< {MIN_BATCH_SPEEDUP:g}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_megabatch_monte_carlo_yield(benchmark):
    """Mega-batch Monte Carlo lanes/sec vs the scalar solver.

    Every lane is one full HC-DRO margin-testbench program (3 writes,
    4 reads) with sampled Ic/L/bias process spreads, evaluated on one
    worker through the chunked block-diagonal batched tier (peak
    memory bounded by ``CHUNK_LANES``, never a ``(B, n, n)`` dense
    stack across the whole batch).  The scalar baseline runs sampled
    lanes through ``TransientSolver`` one by one, and its probe lanes
    are interleaved with the largest batch's shards (one before each
    shard, one after the last), so the floor's two rates are timed
    over the same minutes of a host whose speed drifts.  The recorded
    floor is batched-vs-scalar lanes/sec at the largest batch size.
    """
    from repro.josim.montecarlo import (
        YieldConfig,
        _build_lane,
        hcdro_parameter_specs,
        run_lanes,
        sample_multipliers,
    )
    from repro.josim.solver import TransientSolver, chunk_lane_limit

    seed = 20260808
    specs = hcdro_parameter_specs()
    sizes = [size for size in MEGABATCH_SIZES
             if size <= MEGABATCH_MAX_LANES] or [max(MEGABATCH_MAX_LANES, 8)]
    largest = max(sizes)

    # Scalar probe lanes: a handful of sampled lanes, one solver each,
    # taken in turn.
    probe_config = YieldConfig(samples=4, seed=seed, read_scales=(1.0,))
    probe_rows = sample_multipliers(specs, probe_config.samples, seed)
    probe_times = []

    def scalar_probe():
        row = probe_rows[len(probe_times) % len(probe_rows)]
        t0 = time.perf_counter()
        handles, _, end = _build_lane(probe_config, specs, row, 1.0)
        TransientSolver(handles.circuit,
                        timestep_ps=probe_config.timestep_ps).run(
            end, record_every=probe_config.record_every)
        probe_times.append(time.perf_counter() - t0)

    rates = {}
    for size in sizes:
        multipliers = sample_multipliers(specs, size, seed)
        # The largest batch runs one shard (one solver chunk) per
        # run_lanes call, with a scalar probe before each shard; the
        # smaller ones run whole.
        step = chunk_lane_limit() if size == largest else size
        elapsed = 0.0
        lanes = 0
        for start in range(0, size, step):
            if size == largest:
                scalar_probe()
            shard = multipliers[start:start + step]
            config = YieldConfig(samples=len(shard), seed=seed,
                                 read_scales=(1.0,))
            t0 = time.perf_counter()
            lanes += len(run_lanes(config, shard, specs, workers=1))
            elapsed += time.perf_counter() - t0
        if size == largest:
            scalar_probe()
        assert lanes == size
        rates[size] = size / elapsed
        benchmark.extra_info[f"lanes_per_sec_B{size}"] = rates[size]
        benchmark.extra_info[f"elapsed_s_B{size}"] = elapsed

    scalar_rate = len(probe_times) / sum(probe_times)
    speedup = rates[largest] / scalar_rate
    benchmark.extra_info["scalar_lanes_per_sec"] = scalar_rate
    benchmark.extra_info["scalar_probe_lanes"] = len(probe_times)
    benchmark.extra_info["largest_batch"] = largest
    benchmark.extra_info["megabatch_speedup"] = speedup
    assert speedup >= MIN_MEGABATCH_SPEEDUP, (
        f"mega-batch lanes/sec speedup {speedup:.2f}x at B={largest} "
        f"< {MIN_MEGABATCH_SPEEDUP:g}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_margin_sweep_cached_revisit(benchmark, tmp_path, monkeypatch):
    """A margin sweep revisiting cached points must be near-free."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    points = sweep_margin_grid((0.95, 1.0, 1.05))
    assert points[1].correct

    def revisit():
        return sweep_margin_grid((0.95, 1.0, 1.05))

    again = benchmark(revisit)
    benchmark.extra_info["cache_entries"] = len(list(
        (tmp_path / sweep.HCDRO_NAMESPACE).glob("*.json")))
    assert [p.correct for p in again] == [p.correct for p in points]
