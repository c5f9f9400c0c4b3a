"""Compiled trace-replay tier for the gate-level CPU timing model.

Mirrors the tiering pattern of :mod:`repro.josim` (reference / compiled /
batched solvers) and :mod:`repro.pulse` (reference / compiled event
loops): :class:`~repro.cpu.pipeline.GateLevelPipeline` stays as the
readable reference implementation and equivalence oracle, while this
module replays an :class:`~repro.cpu.optape.OpTape` with everything
precomputed out of the per-instruction path:

* the two :class:`~repro.cpu.rf_model.RFTimingModel` calls per op (issue
  gap, read-slot offsets) collapse into per-design lookup tables built
  once per ``(tape, design)`` - one entry per distinct ``(sources, dest)``
  signature - then gathered into flat per-op lists,
* the operand path, execute depth and (flat-memory) load latency fold
  into a single per-op additive constant,
* register readiness lives in fixed-size integer lists indexed by
  register number instead of dicts,
* loads-retired and redirect counters fall out of vectorized flag sums.

Replay results are **exactly integer-equal** to the reference pipeline -
cycles, stall attribution (port/raw/loopback/branch), branch and load
counters, and the interaction order with a stateful ``memory_model`` -
for every design; ``tests/cpu/test_compiled.py`` enforces this across
the Figure 14 suite and randomized programs.

Every production caller replays through :func:`replay_tape`;
:func:`replay_tape_reference` feeds the same tape through the reference
pipeline and exists for the equivalence suite and ``bench_cpu``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.cpu.config import CoreConfig
from repro.cpu.optape import (
    FLAG_BRANCH,
    FLAG_LOAD,
    FLAG_STORE,
    FLAG_TAKEN,
    OpTape,
)
from repro.cpu.pipeline import GateLevelPipeline, PipelineResult, StallBreakdown
from repro.cpu.rf_model import RFTimingModel
from repro.errors import ExecutionError


def compiled_enabled() -> bool:
    """Whether replays run on the compiled loop: always True.

    The reference pipeline is the test oracle only; this reporter is
    kept so run reports can record the active CPU path.
    """
    return True


#: Entries kept by the ``design_tables`` memo.  A Figure 14-scale sweep
#: touches (workloads x designs) ~ a few dozen pairs; the cap only
#: bounds pathological non-repeating workloads.
_TABLES_LRU_MAX = 256

_tables_lru: "OrderedDict[Tuple[str, RFTimingModel], Tuple[np.ndarray, np.ndarray]]" = OrderedDict()


def design_tables(tape: OpTape,
                  rf: RFTimingModel) -> Tuple[np.ndarray, np.ndarray]:
    """Per-signature timing tables for one design (memoized).

    Returns ``(issue_gap, operand_add)`` arrays indexed by signature:
    ``issue_gap[s]`` is :meth:`RFTimingModel.issue_gap_gates` for the
    signature's sources/destination, and ``operand_add[s]`` the
    issue-to-operands-at-ALU latency (same-bank slot skew + readout
    cycles for reading ops, one RF port cycle otherwise).  These two
    numbers are the *entire* per-design contract of the replay: a new
    design only has to answer them per signature.

    Repeated replays of one tape against one design - every lane batch,
    every warm benchmark rep - hit a small LRU keyed on the tape's
    content fingerprint plus the (hashable, frozen) timing model, so
    only the first replay pays the per-signature model calls.  Callers
    must treat the returned arrays as read-only.
    """
    key = (tape.content_fingerprint(), rf)
    hit = _tables_lru.get(key)
    if hit is not None:
        _tables_lru.move_to_end(key)
        return hit
    tables = _build_design_tables(tape, rf)
    _tables_lru[key] = tables
    while len(_tables_lru) > _TABLES_LRU_MAX:
        _tables_lru.popitem(last=False)
    return tables


def _build_design_tables(tape: OpTape,
                         rf: RFTimingModel) -> Tuple[np.ndarray, np.ndarray]:
    count = tape.signature_count
    issue_gap = np.zeros(count, dtype=np.int64)
    operand_add = np.zeros(count, dtype=np.int64)
    for s, (sources, dest) in enumerate(tape.signatures()):
        issue_gap[s] = rf.issue_gap_gates(sources, dest)
        if sources:
            slots = rf.read_slots_gates(sources)
            extra = max(slots) - min(slots) if len(slots) > 1 else 0
            operand_add[s] = extra + rf.readout_cycles
        else:
            operand_add[s] = rf.rf_cycle_gates
    return issue_gap, operand_add


def replay_tape(tape: OpTape, rf: RFTimingModel,
                config: Optional[CoreConfig] = None,
                memory_model: Optional[Any] = None) -> PipelineResult:
    """Replay one tape under one design's timing - the compiled tier."""
    config = config or CoreConfig()
    num_registers = config.num_registers
    if tape.signature_count:
        top = max(int(tape.sig_srcs.max()), int(tape.sig_dest.max()))
        if top >= num_registers:
            raise ExecutionError(
                f"tape addresses register {top}, outside the "
                f"{num_registers}-register file")
    n = tape.instructions
    gap_table, operand_table = design_tables(tape, rf)
    sig = tape.sig
    gaps: List[int] = gap_table[sig].tolist()
    src0: List[int] = tape.sig_srcs[sig, 0].tolist() if n else []
    src1: List[int] = tape.sig_srcs[sig, 1].tolist() if n else []
    dest: List[int] = tape.sig_dest[sig].tolist() if n else []

    flags = tape.flags
    is_load = (flags & FLAG_LOAD) != 0
    if config.fall_through_speculation:
        redirect_mask = (flags & FLAG_TAKEN) != 0
    else:
        redirect_mask = (flags & (FLAG_TAKEN | FLAG_BRANCH)) != 0
    loads_total = int(np.count_nonzero(is_load))
    branches_total = int(np.count_nonzero(redirect_mask))
    redirects: List[bool] = redirect_mask.tolist()

    # Operand path + execute depth (+ flat-memory load latency) collapse
    # into one additive constant per op; a stateful memory model keeps
    # its per-access call in the loop to preserve interaction order.
    use_mem = memory_model is not None
    path_add_arr = operand_table[sig] + config.execute_depth
    if not use_mem:
        path_add_arr = path_add_arr + np.where(is_load,
                                               config.memory_latency, 0)
    path_add: List[int] = path_add_arr.tolist()
    load_list: List[bool] = is_load.tolist()
    store_list: List[bool] = ((flags & FLAG_STORE) != 0).tolist()
    addr_list: List[int] = tape.mem_addr.tolist()
    access = memory_model.access if use_mem else None

    has_loopback = rf.has_loopback
    loop_busy = rf.loopback_busy_gates()
    write_extra = rf.write_visible_extra_gates()
    wb_depth = config.writeback_depth
    redirect_penalty = config.branch_redirect_penalty

    ready_at: List[int] = [0] * num_registers
    ready_loopback: List[bool] = [False] * num_registers
    next_issue_ok = 0
    front_ready = 0
    port_stalls = 0
    raw_stalls = 0
    loop_stalls = 0
    branch_stalls = 0
    last_completion = 0

    for i in range(n):
        s0 = src0[i]
        s1 = src1[i]
        t_dep = 0
        dep_loopback = False
        if s0 >= 0:
            ready = ready_at[s0]
            if ready > t_dep:
                t_dep = ready
                dep_loopback = ready_loopback[s0]
            if s1 >= 0:
                ready = ready_at[s1]
                if ready > t_dep:
                    t_dep = ready
                    dep_loopback = ready_loopback[s1]
        t_port = next_issue_ok
        t_issue = t_port
        if front_ready > t_issue:
            t_issue = front_ready
        if t_dep > t_issue:
            t_issue = t_dep
        if t_issue > t_port:
            lost = t_issue - t_port
            if t_dep >= front_ready:
                if dep_loopback:
                    loop_stalls += lost
                else:
                    raw_stalls += lost
            else:
                branch_stalls += lost
        gap = gaps[i]
        port_stalls += gap
        if has_loopback and s0 >= 0:
            busy_until = t_issue + loop_busy
            if busy_until > ready_at[s0]:
                ready_at[s0] = busy_until
                ready_loopback[s0] = True
            if s1 >= 0 and busy_until > ready_at[s1]:
                ready_at[s1] = busy_until
                ready_loopback[s1] = True
        exec_done = t_issue + path_add[i]
        if use_mem:
            if load_list[i]:
                addr = addr_list[i]
                exec_done += access(None if addr < 0 else addr,
                                    is_store=False)
            elif store_list[i]:
                addr = addr_list[i]
                access(None if addr < 0 else addr, is_store=True)
        writeback = exec_done + wb_depth
        d = dest[i]
        if d >= 0:
            ready_at[d] = writeback + write_extra
            ready_loopback[d] = False
        if redirects[i]:
            front_ready = exec_done + redirect_penalty
        next_issue_ok = t_issue + gap
        if writeback > last_completion:
            last_completion = writeback

    return PipelineResult(
        design=rf.name,
        instructions=n,
        total_cycles=last_completion,
        stalls=StallBreakdown(port=port_stalls, raw=raw_stalls,
                              loopback=loop_stalls, branch=branch_stalls),
        branches_taken=branches_total,
        loads=loads_total,
    )


def replay_tape_reference(tape: OpTape, rf: RFTimingModel,
                          config: Optional[CoreConfig] = None,
                          memory_model: Optional[Any] = None
                          ) -> PipelineResult:
    """Replay one tape through the reference pipeline (the oracle tier)."""
    pipeline = GateLevelPipeline(rf, config, memory_model=memory_model)
    for op in tape.iter_ops():
        pipeline.feed(op)
    return pipeline.result()

