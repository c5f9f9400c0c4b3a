"""Benchmark the CPU tier: cold tape builds and the compiled replay.

Two summaries (``make bench-cpu`` writes BENCH_cpu.json):

* **cold tapes**: the 12 Figure 14 op tapes (scale 1.0, cap 400,000)
  built by the oracle - the functional :class:`~repro.isa.Executor`'s
  ``ExecutedOp`` stream lowered by :meth:`~repro.cpu.OpTape.from_ops` -
  and by :meth:`~repro.cpu.OpTape.from_program`'s pre-decoded
  interpreter.  ``test_cold_tape_speedup_summary`` asserts the tapes are
  equal (arrays, dtypes, fingerprint, exit code, halt reason) and records
  ``oracle_s``, ``fast_s`` and ``speedup``.
* **replay**: the multi-design Figure 14 sweep - every workload across
  every register file design in one process - run two ways:

  * **reference**: one tape per workload, then
    :class:`~repro.cpu.pipeline.GateLevelPipeline` fed op-by-op for each
    design (:func:`repro.cpu.compiled.replay_tape_reference`),
  * **compiled warm**: op tapes served from a warm on-disk
    :class:`~repro.cpu.TraceCache` (no functional pass) and replayed
    through :func:`repro.cpu.replay_tape`'s table-driven loop
    (``simulate_program``).

  ``test_cpu_sweep_speedup_summary`` asserts that both sides return
  integer-identical reports.

Both summaries hold their speedup to the >= 3x acceptance bar.  The CI
smoke job relaxes that floor (shared runners are noisy) via
``REPRO_BENCH_CPU_MIN_SPEEDUP`` and runs one timing rep
(``REPRO_BENCH_REPS=1``); the tape-equality checks run at full scale
either way.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cpu import (
    CoreConfig,
    OpTape,
    RFTimingModel,
    TraceCache,
    simulate_program,
    tape_for_program,
)
from repro.cpu.compiled import replay_tape_reference
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.cpu.stats import CpiReport
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.isa import Executor, assemble
from repro.workloads import get_workload

SCALE = 1.0
MAX_INSTRUCTIONS = 400_000

MIN_CPU_SPEEDUP = float(os.environ.get("REPRO_BENCH_CPU_MIN_SPEEDUP", "3.0"))
TIMING_REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))


@pytest.fixture(scope="module")
def programs():
    """Assembled once: assembly time is not part of either side."""
    return {name: assemble(get_workload(name).build(SCALE))
            for name in FIGURE14_WORKLOADS}


def _sweep(programs, trace_cache):
    return {name: simulate_program(program, RF_DESIGN_NAMES, name,
                                   max_instructions=MAX_INSTRUCTIONS,
                                   trace_cache=trace_cache)
            for name, program in programs.items()}


def _sweep_reference(programs):
    config = CoreConfig()
    reports = {}
    for name, program in programs.items():
        tape = tape_for_program(program, max_instructions=MAX_INSTRUCTIONS,
                                num_registers=config.num_registers,
                                workload_name=name)
        reports[name] = {
            design: CpiReport.from_result(
                name, replay_tape_reference(
                    tape, RFTimingModel.for_design(design, config), config),
                exit_code=tape.exit_code)
            for design in RF_DESIGN_NAMES}
    return reports


def _sweep_key(reports):
    """Every integer the equivalence contract covers, per workload/design."""
    return {name: {design: (r.instructions, r.total_cycles, r.cpi,
                            r.stall_cycles, r.exit_code)
                   for design, r in designs.items()}
            for name, designs in reports.items()}


def _tapes_oracle(programs):
    """Cold tapes the oracle's way: ``ExecutedOp`` stream + ``from_ops``."""
    tapes = {}
    for name, program in programs.items():
        executor = Executor(program)
        tape = OpTape.from_ops(
            executor.trace(max_instructions=MAX_INSTRUCTIONS),
            max_instructions=MAX_INSTRUCTIONS)
        tape.exit_code = executor.exit_code
        tape.halt_reason = (executor.halt_reason.name
                            if executor.halt_reason is not None else None)
        tapes[name] = tape
    return tapes


def _tapes_fast(programs):
    return {name: OpTape.from_program(program,
                                      max_instructions=MAX_INSTRUCTIONS)
            for name, program in programs.items()}


def _tape_key(tape):
    """Everything two equal tapes share: arrays with dtypes, metadata."""
    arrays = tuple((arr.dtype.str, arr.shape, arr.tobytes())
                   for arr in (tape.sig, tape.flags, tape.mem_addr,
                               tape.sig_srcs, tape.sig_dest))
    return (arrays, tape.exit_code, tape.halt_reason,
            tape.max_instructions, tape.num_registers,
            tape.content_fingerprint())


def _best_of(fn, reps: int = TIMING_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_figure14_sweep_reference(benchmark, programs):
    reports = benchmark.pedantic(
        lambda: _sweep_reference(programs),
        rounds=TIMING_REPS, iterations=1)
    benchmark.extra_info["instructions"] = sum(
        r["ndro_rf"].instructions for r in reports.values())


def test_figure14_sweep_compiled_warm(benchmark, programs, tmp_path):
    cache = TraceCache(tmp_path)
    _sweep(programs, cache)  # warm the tapes
    reports = benchmark.pedantic(
        lambda: _sweep(programs, cache),
        rounds=TIMING_REPS, iterations=1)
    assert cache.misses == len(FIGURE14_WORKLOADS)  # cold pass only
    benchmark.extra_info["instructions"] = sum(
        r["ndro_rf"].instructions for r in reports.values())


def test_cpu_sweep_speedup_summary(benchmark, programs, tmp_path):
    """Record (and enforce) the warm-cache compiled sweep speedup."""
    cache = TraceCache(tmp_path)
    compiled_reports = _sweep(programs, cache)
    reference_reports = _sweep_reference(programs)
    assert _sweep_key(compiled_reports) == _sweep_key(reference_reports)

    t_compiled = _best_of(lambda: _sweep(programs, cache))
    t_reference = _best_of(lambda: _sweep_reference(programs))
    speedup = t_reference / t_compiled

    benchmark.extra_info["workloads"] = len(FIGURE14_WORKLOADS)
    benchmark.extra_info["designs"] = len(RF_DESIGN_NAMES)
    benchmark.extra_info["instructions"] = sum(
        r["ndro_rf"].instructions for r in reference_reports.values())
    benchmark.extra_info["reference_s"] = t_reference
    benchmark.extra_info["compiled_warm_s"] = t_compiled
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_CPU_SPEEDUP, (
        f"compiled CPU sweep speedup {speedup:.2f}x < {MIN_CPU_SPEEDUP:g}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_cold_tape_speedup_summary(benchmark, programs):
    """Record (and enforce) the cold tape-build speedup over the oracle."""
    oracle = _tapes_oracle(programs)
    fast = _tapes_fast(programs)
    for name in programs:
        assert _tape_key(fast[name]) == _tape_key(oracle[name]), name

    t_oracle = _best_of(lambda: _tapes_oracle(programs))
    t_fast = _best_of(lambda: _tapes_fast(programs))
    speedup = t_oracle / t_fast

    benchmark.extra_info["workloads"] = len(programs)
    benchmark.extra_info["instructions"] = sum(
        tape.instructions for tape in fast.values())
    benchmark.extra_info["oracle_s"] = t_oracle
    benchmark.extra_info["fast_s"] = t_fast
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_CPU_SPEEDUP, (
        f"cold tape build speedup {speedup:.2f}x < {MIN_CPU_SPEEDUP:g}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
