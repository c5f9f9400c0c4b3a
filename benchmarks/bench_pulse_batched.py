"""Benchmark the batched pulse wheel against sequential compiled replay.

The workload is the acceptance case from the fault study: the
exhaustive 64-lane HiPerRF fault-injection sweep (2 fault kinds x 8
registers x 4 HC columns on an 8x8 geometry), every lane a captured
write/fault/read program over one cached build - the wheel's side of
``run_lanes``'s lane-count rule.  Both paths are called directly and
replay the *identical* stimulus lanes from the identical compiled
netlist; the wheel must produce outcome-equal lanes at >= 3x the
lanes/sec of one-lane-at-a-time snapshot/restore replay (``make
bench-pulse-batched`` records the ratio in BENCH_pulse.json; the CI
smoke job relaxes the floor - shared runners are noisy).
"""

from __future__ import annotations

import os
import time

from repro.experiments.fault_study import SWEEP_GEOMETRY, sweep_trials
from repro.pulse import capture_stimulus
from repro.pulse.batched import run_lanes_batched, run_lanes_sequential
from repro.rf.faults import _HIPERRF_PERIOD_PS, _schedule_hiperrf_trial
from repro.rf.netlist import PulseHiPerRF

MIN_LANES_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_LANES_MIN_SPEEDUP", "3.0"))
TIMING_REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))


def _capture_sweep():
    """The 64 fault-sweep lanes over one cached 8x8 build."""
    rf = PulseHiPerRF.build_cached(SWEEP_GEOMETRY, _HIPERRF_PERIOD_PS)
    engine = rf.engine
    stimuli = []
    for trial in sweep_trials(SWEEP_GEOMETRY):
        with capture_stimulus(engine) as capture:
            _schedule_hiperrf_trial(rf, trial)
        stimuli.append(capture.stimulus())
    return engine.compile(), stimuli


def _best_of(fn, reps: int = TIMING_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fault_sweep_lanes_batched(benchmark):
    compiled, stimuli = _capture_sweep()
    run_lanes_batched(compiled, stimuli)  # warm descriptor caches

    def batched():
        return run_lanes_batched(compiled, stimuli)

    outcomes = benchmark(batched)
    benchmark.extra_info["lanes"] = len(outcomes)
    benchmark.extra_info["events_per_lane"] = (
        sum(o.delivered for o in outcomes) / len(outcomes))


def test_fault_sweep_lanes_compiled(benchmark):
    compiled, stimuli = _capture_sweep()

    def sequential():
        return run_lanes_sequential(compiled, stimuli)

    outcomes = benchmark.pedantic(sequential, rounds=TIMING_REPS,
                                  iterations=1)
    benchmark.extra_info["lanes"] = len(outcomes)


def test_lanes_speedup_summary(benchmark):
    """Record (and enforce) the batched wheel's lanes/sec speedup.

    Identical lanes, identical compiled netlist, warm caches on both
    sides; the only variable is the replay path.  Outcome equality is
    asserted before timing counts for anything.
    """
    compiled, stimuli = _capture_sweep()
    batched_out = run_lanes_batched(compiled, stimuli)  # warm
    sequential_out = run_lanes_sequential(compiled, stimuli)
    assert batched_out == sequential_out

    t_batched = _best_of(lambda: run_lanes_batched(compiled, stimuli))
    t_sequential = _best_of(lambda: run_lanes_sequential(compiled, stimuli))
    lanes = len(stimuli)
    speedup = t_sequential / t_batched
    benchmark.extra_info["lanes"] = lanes
    benchmark.extra_info["sequential_s"] = t_sequential
    benchmark.extra_info["batched_s"] = t_batched
    benchmark.extra_info["sequential_lanes_per_sec"] = lanes / t_sequential
    benchmark.extra_info["batched_lanes_per_sec"] = lanes / t_batched
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_LANES_SPEEDUP, (
        f"batched lane replay speedup {speedup:.2f}x "
        f"< {MIN_LANES_SPEEDUP:g}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
