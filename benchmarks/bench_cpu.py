"""Benchmark the CPU tier: cold tape builds and the compiled replay.

Two speedup summaries (``make bench-cpu`` writes BENCH_cpu.json):

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
    :class:`~repro.experiments.parallel.ResultCache` (no functional
    pass) and replayed through :func:`repro.cpu.replay_tape`'s
    table-driven loop (``simulate_program``).

  ``test_cpu_sweep_speedup_summary`` asserts that both sides return
  integer-identical reports.

Both summaries hold their speedup to the >= 3x acceptance bar.  The CI
smoke job relaxes that floor (shared runners are noisy) via
``REPRO_BENCH_CPU_MIN_SPEEDUP`` and runs one timing rep
(``REPRO_BENCH_REPS=1``); the tape-equality checks run at full scale
either way.

A third summary, ``test_replay_memo_summary``, records what the
``(block, state)`` memo of :func:`repro.cpu.replay_tape` does on the
Figure 14 tapes at scale 1.0 and 2.0: block executions, distinct pairs
stored, hit rate, and the cold 4-lane replay time (segmentation
included) against one plain pass of the same segment routine over each
tape.  It also times a synthetic tape whose blocks never repeat, the
memo's worst case, and asserts the scale-1 results equal the reference
pipeline's.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cpu import (
    CoreConfig,
    OpTape,
    RFTimingModel,
    simulate_program,
    tape_for_program,
)
from repro.cpu import compiled
from repro.cpu.compiled import replay_tape_reference
from repro.cpu.optape import FLAG_BRANCH, FLAG_LOAD, FLAG_STORE, FLAG_TAKEN
from repro.cpu.rf_model import RF_DESIGN_NAMES
from repro.cpu.stats import CpiReport
from repro.experiments.figure14 import FIGURE14_WORKLOADS
from repro.experiments.parallel import ResultCache
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
    cache = ResultCache(tmp_path)
    _sweep(programs, cache)  # warm the tapes
    reports = benchmark.pedantic(
        lambda: _sweep(programs, cache),
        rounds=TIMING_REPS, iterations=1)
    assert cache.misses == len(FIGURE14_WORKLOADS)  # cold pass only
    benchmark.extra_info["instructions"] = sum(
        r["ndro_rf"].instructions for r in reports.values())


def test_cpu_sweep_speedup_summary(benchmark, programs, tmp_path):
    """Record (and enforce) the warm-cache compiled sweep speedup."""
    cache = ResultCache(tmp_path)
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


#: Scales of the memo summary; at 2.0 towers retires 442,356
#: instructions, past the sweep's usual cap.
MEMO_SCALES = (1.0, 2.0)
MEMO_MAX_INSTRUCTIONS = 1_000_000


def _synthetic_tape(n=60_000, signatures=300, seed=1):
    """Random ops over random signatures, with a branch every 4-12 ops:
    blocks that never repeat, the memo's worst case."""
    rng = np.random.default_rng(seed)
    srcs = rng.integers(-1, 32, size=(signatures, 2))
    srcs[:, 1] = np.where((srcs[:, 0] < 0) | (srcs[:, 1] == srcs[:, 0]),
                          -1, srcs[:, 1])
    branch = np.zeros(n, dtype=bool)
    positions = np.cumsum(rng.integers(4, 13, size=n // 4))
    branch[positions[positions < n]] = True
    kind = rng.integers(0, 8, size=n)
    flags = (np.where(kind == 0, FLAG_LOAD, 0)
             | np.where(kind == 1, FLAG_STORE, 0)
             | np.where(branch, FLAG_BRANCH, 0)
             | np.where(branch & (rng.random(n) < 0.5), FLAG_TAKEN, 0))
    return OpTape(
        sig=rng.integers(0, signatures, size=n).astype(np.int32),
        flags=flags.astype(np.uint8),
        mem_addr=np.where((flags & (FLAG_LOAD | FLAG_STORE)) != 0,
                          4 * rng.integers(0, 4096, size=n), -1),
        sig_srcs=srcs.astype(np.int16),
        sig_dest=rng.integers(-1, 32, size=signatures).astype(np.int16),
        max_instructions=n, num_registers=32)


def _memo_replay(tapes, rfs, config):
    """Cold memoized replays of every tape on every lane: per-lane
    results plus the memo's hits and stored pairs, summed."""
    results, hits, stored = [], 0, 0
    for tape in tapes:
        tape.blocks = None  # segmentation is part of a cold replay
        for rf in rfs:
            result, tape_hits, tape_stored = compiled._replay(
                tape, rf, config, None)
            results.append(result)
            hits += tape_hits
            stored += tape_stored
    return results, hits, stored


def _plain_replay(tapes, rfs, config):
    """The same segment routine run once over each whole tape per lane:
    the replay without the memo."""
    totals = []
    for tape in tapes:
        for rf in rfs:
            gap_table, operand_table = compiled.design_tables(tape, rf)
            rows = compiled._lane_rows(
                tape, gap_table, operand_table + config.execute_depth,
                FLAG_TAKEN, config.memory_latency)
            registers = config.num_registers
            totals.append(compiled._run_segment(
                rows[compiled._op_codes(tape)].T.tolist(), [0] * registers,
                [False] * registers, 0,
                compiled._lane_timing(rf, config))[2])
    return totals


def test_replay_memo_summary(benchmark):
    """Record the block memo's statistics and cold replay times."""
    config = CoreConfig()
    rfs = [RFTimingModel.for_design(design, config)
           for design in RF_DESIGN_NAMES]
    for scale in MEMO_SCALES:
        tapes = [OpTape.from_program(assemble(get_workload(name).build(scale)),
                                     max_instructions=MEMO_MAX_INSTRUCTIONS)
                 for name in FIGURE14_WORKLOADS]
        assert not any(tape.hit_instruction_limit for tape in tapes)
        for tape in tapes:
            for rf in rfs:
                compiled.design_tables(tape, rf)  # a stage of its own
        results, hits, stored = _memo_replay(tapes, rfs, config)
        assert [r.total_cycles for r in results] == \
            _plain_replay(tapes, rfs, config)
        if scale == 1.0:
            assert [(r.total_cycles, r.stalls.as_dict(), r.branches_taken,
                     r.loads) for r in results] == \
                [(r.total_cycles, r.stalls.as_dict(), r.branches_taken,
                  r.loads) for r in (replay_tape_reference(tape, rf, config)
                                     for tape in tapes for rf in rfs)]
        executions = sum(compiled._tape_blocks(tape).count for tape in tapes)
        prefix = f"scale_{scale:g}_"
        info = benchmark.extra_info
        info[prefix + "instructions"] = sum(t.instructions for t in tapes)
        info[prefix + "block_executions_per_lane"] = executions
        info[prefix + "distinct_blocks"] = sum(
            compiled._tape_blocks(tape).distinct for tape in tapes)
        info[prefix + "stored_pairs"] = stored
        info[prefix + "hit_rate"] = hits / (executions * len(rfs))
        info[prefix + "memo_4_lanes_s"] = _best_of(
            lambda: _memo_replay(tapes, rfs, config))
        info[prefix + "plain_4_lanes_s"] = _best_of(
            lambda: _plain_replay(tapes, rfs, config))

    synthetic = _synthetic_tape()
    blocks = compiled._tape_blocks(synthetic)
    assert blocks.distinct == blocks.count  # no block repeats
    for rf in rfs:
        compiled.design_tables(synthetic, rf)
    assert [r.total_cycles for r in
            _memo_replay([synthetic], rfs, config)[0]] == \
        _plain_replay([synthetic], rfs, config)
    info["synthetic_instructions"] = synthetic.instructions
    info["synthetic_memo_4_lanes_s"] = _best_of(
        lambda: _memo_replay([synthetic], rfs, config))
    info["synthetic_plain_4_lanes_s"] = _best_of(
        lambda: _plain_replay([synthetic], rfs, config))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
