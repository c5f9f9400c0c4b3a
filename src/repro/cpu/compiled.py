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
  signature - then into one row per op code (signature plus load and
  branch bits), gathered into flat per-op lists for each slice replayed,
* the operand path, execute depth and (flat-memory) load latency fold
  into a single per-op additive constant,
* register readiness lives in fixed-size integer lists indexed by
  register number instead of dicts,
* loads-retired and redirect counters fall out of vectorized flag sums.

**Memoized replay.**  :func:`_run_segment` is the one per-op timing loop.
A flat-memory replay does not run it over the whole tape: it walks the
tape block by block and memoizes ``(block, block-entry state)`` -> the
block's outcome, in the manner of FastSim (Schnarr and Larus, "Fast
Out-of-Order Processor Simulation Using Memoization", ASPLOS 1998):

* A *block* ends after every op with ``FLAG_BRANCH`` or ``FLAG_TAKEN``
  and holds at most :data:`BLOCK_CAP` ops.  Its identity is its ops'
  signatures and ``FLAG_LOAD | FLAG_TAKEN | FLAG_BRANCH`` bits (store
  bits and addresses matter only to a memory model), interned to an
  int.  Both redirect bits are in the key, so one segmentation serves
  both speculation modes.  It is computed once per tape object and kept
  on :attr:`OpTape.blocks`.
* The *state* at a block entry is, relative to ``next_issue_ok`` at
  that entry: each register's readiness offset clipped at 0, its
  loopback flag while that offset is positive, and the front-end
  offset clipped at 0, interned to an int.
* The memo maps ``(block id, state id)`` to ``(advance of
  next_issue_ok, next state id, largest write-back offset, outcome)``;
  an outcome holds the block's four stall deltas, and the replay
  multiplies them by their hit counts at the end.  Total cycles are the
  maximum over blocks of the entry ``next_issue_ok`` plus the write-back
  offset.

Why the clipped state is exact: within a block ``next_issue_ok`` never
decreases, because issue gaps are >= 0 (:func:`design_tables` checks it).
So a readiness at or before the entry's ``next_issue_ok`` can neither
delay an issue nor change a stall's attribution, and a loopback flag is
read only when its register delays issue.  Write-backs never land
before their issue (operand latencies are >= 0, also checked), so the
write-back offsets are >= 0 as well.

A block that has not occurred earlier in the tape cannot hit, so each
run of consecutive first-seen blocks replays as one segment whose
blocks are neither looked up nor stored.  A tape whose blocks never
repeat therefore costs one segmentation pass more than the plain
loop.  The memo and the state table live for one ``(tape, lane)``
replay.  A lane with a stateful ``memory_model`` runs
:func:`_run_segment` once over the whole tape with the model's access
hook, so the model sees the reference call order, and uses no memo.

Replay results are **exactly integer-equal** to the reference pipeline -
cycles, stall attribution (port/raw/loopback/branch), branch and load
counters, and the interaction order with a stateful ``memory_model`` -
for every design; ``tests/cpu/test_compiled.py`` enforces this across
the Figure 14 suite, randomized programs and hand-built tapes at the
memo's edges.

Every production caller replays through :func:`replay_tape`;
:func:`replay_tape_reference` feeds the same tape through the reference
pipeline and exists for the equivalence suite and ``bench_cpu``.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.errors import ConfigError, ExecutionError


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
    design only has to answer them per signature.  Both must be >= 0,
    which the memoized replay's exactness rests on; a model that breaks
    that raises :class:`~repro.errors.ConfigError`.

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
    if count and (issue_gap.min() < 0 or operand_add.min() < 0):
        raise ConfigError(
            f"{rf.name}: replay needs issue gaps and operand latencies "
            f">= 0, got minima {int(issue_gap.min())} and "
            f"{int(operand_add.min())}")
    return issue_gap, operand_add


# -- the segment routine: the one per-op timing loop -------------------------

#: Per-op lists of one tape slice under one lane: ``[src0, src1, dest,
#: gaps, path_add, redirects]``.
_Ops = List[List[int]]

#: Per-lane constants: ``(has_loopback, loopback_busy_gates,
#: writeback_depth, branch_redirect_penalty)``.
_Timing = Tuple[bool, int, int, int]


def _run_segment(ops: _Ops, ready_at: List[int], ready_loopback: List[bool],
                 front_ready: int, timing: _Timing,
                 memory: Optional[Tuple[List[bool], List[bool], List[int],
                                        Callable[..., int]]] = None
                 ) -> Tuple[int, int, int, int, int, int, int]:
    """Replay the ops of one tape slice, starting at ``next_issue_ok = 0``.

    ``ready_at``/``ready_loopback`` (updated in place) and
    ``front_ready`` are the state at the slice's entry on the same time
    axis.  ``memory`` is ``(is_load, is_store, address, access)`` for a
    stateful memory model, whose ``access`` hook is called per load and
    store in op order; without it the flat load latency is already in
    ``path_add``.  Returns ``(next_issue_ok, front_ready,
    last_completion, port, raw, loopback, branch)`` at the slice's exit.
    """
    src0, src1, dest, gaps, path_add, redirects = ops
    has_loopback, loop_busy, wb_depth, redirect_penalty = timing
    use_mem = memory is not None
    if use_mem:
        load_list, store_list, addr_list, access = memory  # type: ignore[misc]
    next_issue_ok = 0
    port_stalls = 0
    raw_stalls = 0
    loop_stalls = 0
    branch_stalls = 0
    last_completion = 0

    for i in range(len(gaps)):
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
            ready_at[d] = writeback
            ready_loopback[d] = False
        if redirects[i]:
            front_ready = exec_done + redirect_penalty
        next_issue_ok = t_issue + gap
        if writeback > last_completion:
            last_completion = writeback

    return (next_issue_ok, front_ready, last_completion,
            port_stalls, raw_stalls, loop_stalls, branch_stalls)


# -- blocks: a pure function of the tape -------------------------------------

#: Most ops one block holds; a longer straight-line run is cut every
#: ``BLOCK_CAP`` ops.
BLOCK_CAP = 64

#: Flag bits in an op's code (the store bit only matters to a memory
#: model, which replays without the memo).
_CODE_FLAGS = FLAG_LOAD | FLAG_TAKEN | FLAG_BRANCH


def _op_codes(tape: OpTape) -> np.ndarray:
    """One int32 per op: ``sig << 4 | (flags & _CODE_FLAGS)``.

    Everything a flat-memory lane reads of an op is a function of its
    code, so a block's identity is the bytes of its codes.
    """
    return ((tape.sig.astype(np.int32) << 4)
            | (tape.flags & _CODE_FLAGS)).astype(np.int32)


@dataclass(frozen=True)
class _Blocks:
    """A tape cut into blocks, runs of first-seen blocks merged.

    ``ids[k]`` names the k-th item in tape order: a block id below
    ``distinct``, or an id at or above it for a run of consecutive blocks
    that had not occurred earlier in the tape (each run its own id, so
    it can never hit).  ``spans[2 * id : 2 * id + 2]`` is the ``[start,
    stop)`` of a block's first occurrence or of a run; items tile the
    tape in order.  ``count`` is the number of blocks before merging and
    ``codes`` the tape's :func:`_op_codes`.
    """

    ids: List[int]
    spans: "array[int]"
    distinct: int
    count: int
    codes: np.ndarray


def _tape_blocks(tape: OpTape) -> _Blocks:
    """The tape's blocks, computed once per tape object."""
    blocks = tape.blocks
    if blocks is None:
        blocks = tape.blocks = _segment(tape)
    return blocks


def _segment(tape: OpTape) -> _Blocks:
    n = tape.instructions
    ends = np.flatnonzero(tape.flags & (FLAG_BRANCH | FLAG_TAKEN)) + 1
    bounds = np.concatenate(([0], ends[ends < n], [n]))
    pieces = -(-np.diff(bounds) // BLOCK_CAP)
    offsets = np.arange(int(pieces.sum())) - np.repeat(
        np.cumsum(pieces) - pieces, pieces)
    starts = np.append(np.repeat(bounds[:-1], pieces) + BLOCK_CAP * offsets,
                       n)
    # Interned in order of first occurrence.
    codes = _op_codes(tape)
    raw = codes.tobytes()
    cuts = (4 * starts).tolist()
    index: Dict[bytes, int] = {}
    ids = np.array([index.setdefault(raw[a:b], len(index))
                    for a, b in zip(cuts, cuts[1:])], dtype=np.int64)
    distinct = len(index)
    # Block k is first-seen when its id exceeds every earlier one; each
    # maximal run of first-seen blocks becomes one item with its own id.
    first = ids > np.concatenate(([-1], np.maximum.accumulate(ids)[:-1]))
    run_head = first & ~np.concatenate(([False], first[:-1]))
    item = ~first | run_head
    item_ids = np.where(first, distinct + np.cumsum(run_head) - 1, ids)[item]
    item_starts = starts[:-1][item]
    item_stops = np.append(item_starts, n)[1:]
    is_run = run_head[item]
    spans = np.concatenate((
        np.column_stack((starts[:-1][first], starts[1:][first])).ravel(),
        np.column_stack((item_starts[is_run], item_stops[is_run])).ravel()))
    return _Blocks(ids=item_ids.tolist(), spans=array("q", spans.tolist()),
                   distinct=distinct, count=len(ids), codes=codes)


# -- replay ------------------------------------------------------------------


def _lane_timing(rf: RFTimingModel, config: CoreConfig) -> _Timing:
    return (rf.has_loopback, rf.loopback_busy_gates(),
            config.writeback_depth, config.branch_redirect_penalty)


def _lane_rows(tape: OpTape, gap_table: np.ndarray, path_table: np.ndarray,
               redirect_bits: int, memory_latency: int) -> np.ndarray:
    """One lane's per-op row for every op code (:func:`_op_codes`).

    Row ``code`` is ``(src0, src1, dest, gap, path_add, redirect)``;
    ``path_add`` includes ``memory_latency`` for loads.
    """
    code = np.arange(16 * tape.signature_count)
    sig = code >> 4
    return np.column_stack((
        tape.sig_srcs[sig, 0], tape.sig_srcs[sig, 1], tape.sig_dest[sig],
        gap_table[sig],
        path_table[sig] + memory_latency * (code & FLAG_LOAD),
        (code & redirect_bits) != 0)).astype(np.int64)


def _replay_blocks(blocks: _Blocks, rows: np.ndarray, timing: _Timing,
                   num_registers: int) -> Tuple[int, List[int], int, int]:
    """Memoized replay of every block; see the module docstring.

    Returns ``(total_cycles, [port, raw, loopback, branch], hits,
    stored)``: the stall totals, the block executions served from the
    memo and the ``(block, state)`` pairs it stored.
    """
    ids = blocks.ids
    spans = blocks.spans
    codes = blocks.codes
    distinct = blocks.distinct
    stride = len(spans) // 2
    memo: Dict[int, Tuple[int, int, int, int]] = {}
    memo_get = memo.get
    # A state is (front offset, then register, offset pairs in register
    # order); a loopback-set register carries its offset negated.
    states: List[Tuple[int, ...]] = [(0,)]
    state_ids: Dict[Tuple[int, ...], int] = {(0,): 0}
    outcomes: List[Sequence[int]] = []
    counts: List[int] = []
    block_ops: List[Optional[Tuple[_Ops, frozenset]]] = [None] * distinct
    ready = [0] * num_registers
    loopback = [False] * num_registers
    run_stalls = [0, 0, 0, 0]
    base = 0    # next_issue_ok at the current block's entry
    total = 0
    skey = 0    # state id * stride
    for bid in ids:
        hit = memo_get(skey + bid)
        if hit is not None:
            advance, skey, wb, outcome = hit
            end = base + wb
            if end > total:
                total = end
            base += advance
            counts[outcome] += 1
            continue
        # A miss, or a run of first-seen blocks: run the segment from the
        # materialized state, then read the exit state back.  A miss
        # touches only the registers the entry state carries or the
        # block uses; a run, which can be the whole tape, all of them.
        state = states[skey // stride]
        carried = state[1::2]
        for r, offset in zip(carried, state[2::2]):
            if offset < 0:
                ready[r] = -offset
                loopback[r] = True
            else:
                ready[r] = offset
        start = spans[2 * bid]
        stop = spans[2 * bid + 1]
        if bid < distinct:
            entry = block_ops[bid]
            if entry is None:
                ops = rows[codes[start:stop]].T.tolist()
                entry = block_ops[bid] = (
                    ops, frozenset(ops[0]).union(ops[1], ops[2]) - {-1})
            ops, used = entry
            regs: Sequence[int] = sorted(used.union(carried))
        else:
            ops = rows[codes[start:stop]].T.tolist()
            regs = range(num_registers)
        advance, front, wb, *stalls = _run_segment(
            ops, ready, loopback, state[0], timing)
        key = [front - advance if front > advance else 0]
        for r in regs:
            offset = ready[r] - advance
            if offset > 0:
                key += (r, -offset if loopback[r] else offset)
            ready[r] = 0
            loopback[r] = False
        exit_state = tuple(key)
        sid = state_ids.setdefault(exit_state, len(states))
        if sid == len(states):
            states.append(exit_state)
        if bid < distinct:
            memo[skey + bid] = (advance, sid * stride, wb, len(outcomes))
            outcomes.append(stalls)
            counts.append(1)
        else:
            run_stalls = [a + b for a, b in zip(run_stalls, stalls)]
        skey = sid * stride
        end = base + wb
        if end > total:
            total = end
        base += advance
    stall_totals = [run + sum(c * o[k] for c, o in zip(counts, outcomes))
                    for k, run in enumerate(run_stalls)]
    return total, stall_totals, sum(counts) - len(counts), len(memo)


def _replay(tape: OpTape, rf: RFTimingModel, config: Optional[CoreConfig],
            memory_model: Optional[Any]) -> Tuple[PipelineResult, int, int]:
    """:func:`replay_tape` plus its memo's ``(hits, stored)`` counts."""
    config = config or CoreConfig()
    num_registers = config.num_registers
    if tape.signature_count:
        top = max(int(tape.sig_srcs.max()), int(tape.sig_dest.max()))
        if top >= num_registers:
            raise ExecutionError(
                f"tape addresses register {top}, outside the "
                f"{num_registers}-register file")
    gap_table, operand_table = design_tables(tape, rf)
    flags = tape.flags
    redirect_bits = FLAG_TAKEN
    if not config.fall_through_speculation:
        redirect_bits |= FLAG_BRANCH
    timing = _lane_timing(rf, config)
    path_table = operand_table + config.execute_depth
    hits = stored = 0
    if memory_model is None:
        rows = _lane_rows(tape, gap_table, path_table, redirect_bits,
                          config.memory_latency)
        total, stalls, hits, stored = _replay_blocks(
            _tape_blocks(tape), rows, timing, num_registers)
    else:
        # The model's latencies depend on its history, so no state is
        # closed: one segment over the whole tape, in op order.
        rows = _lane_rows(tape, gap_table, path_table, redirect_bits, 0)
        memory = (((flags & FLAG_LOAD) != 0).tolist(),
                  ((flags & FLAG_STORE) != 0).tolist(),
                  tape.mem_addr.tolist(), memory_model.access)
        _, _, total, *stalls = _run_segment(
            rows[_op_codes(tape)].T.tolist(), [0] * num_registers,
            [False] * num_registers, 0, timing, memory)
    port, raw, loop, branch = stalls
    result = PipelineResult(
        design=rf.name,
        instructions=tape.instructions,
        total_cycles=total,
        stalls=StallBreakdown(port=port, raw=raw, loopback=loop,
                              branch=branch),
        branches_taken=int(np.count_nonzero(flags & redirect_bits)),
        loads=int(np.count_nonzero(flags & FLAG_LOAD)),
    )
    return result, hits, stored


def replay_tape(tape: OpTape, rf: RFTimingModel,
                config: Optional[CoreConfig] = None,
                memory_model: Optional[Any] = None) -> PipelineResult:
    """Replay one tape under one design's timing - the compiled tier."""
    return _replay(tape, rf, config, memory_model)[0]


def replay_tape_reference(tape: OpTape, rf: RFTimingModel,
                          config: Optional[CoreConfig] = None,
                          memory_model: Optional[Any] = None
                          ) -> PipelineResult:
    """Replay one tape through the reference pipeline (the oracle tier)."""
    pipeline = GateLevelPipeline(rf, config, memory_model=memory_model)
    for op in tape.iter_ops():
        pipeline.feed(op)
    return pipeline.result()
