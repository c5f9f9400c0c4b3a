"""Compiled pulse-simulation backend: the flat-array event loop.

The reference :class:`repro.pulse.engine.Engine` dispatches one
``on_pulse`` virtual call per event over ``Component``/``Wire`` object
graphs - attribute chasing, dict lookups and Python method calls on
every delivered pulse.  This backend lowers a *built* netlist once into
flat typed arrays and runs the event loop over those arrays:

* one integer **kind code** per component (``K_DELAY`` .. ``K_FALLBACK``),
* contiguous per-component **state slots** (``i0..i2`` ints,
  ``f0..f1`` floats - fluxon counts, NDRO bits, merger/DAND
  bookkeeping, per-pin last-arrival times for the timing checks),
* CSR-style **wire tables**: per-component output-slot base indices into
  ``wire_tgt``/``wire_delay`` arrays, each target packing
  ``(sink_id << 8) | (sink_kind << 3) | sink_port_index`` into one int
  (``-1`` when the output dissipates into a matched termination), so
  delivering a pulse needs no object traversal at all,
* a two-level **event queue** tuned for SFQ pulse traffic: a heap of
  *distinct* pulse times plus one FIFO bucket of packed targets per
  time.  Within a bucket, insertion order is exactly the reference
  engine's ``(time_ps, seq)`` order, so delivery order - including
  simultaneous-pulse ties from broadcast trees - is *identical* to the
  reference backend, while the heap only ever sifts bare floats.  A
  direct-dispatch fast path additionally skips the queue whenever the
  emitted pulse is provably the next event (current bucket drained and
  strictly earlier than the heap head), which collapses delay-line
  chains into a tight loop with no queue traffic at all.

Semantics are preserved bit-for-bit: the same float arithmetic per cell
(``(t + cell_delay) + wire_delay``), the same ``strict_timing``
raise/dissipate behaviour with the same messages, the same
``max_events`` guard, and the same observability (``engine.trace``
records ``(time, component, port)`` tuples; component objects are
synchronised from the arrays whenever a ``run()`` returns, so white-box
state reads keep working).  Component classes the compiler does not
recognise (including instances whose ``on_pulse`` was monkey-patched,
as the fault-injection harness does) transparently fall back to the
object path inside the same event loop.

The one sharp edge: between ``compile()`` and the next ``run()`` the
arrays are the source of truth - directly mutating a component's state
attributes is not picked up.  Use ``reset_all_state()``,
``snapshot()``/``restore()`` or the engine's normal stimulus API.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from gc import disable as gc_disable, enable as gc_enable, isenabled as gc_isenabled
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import NetlistError, SimulationError, TimingViolationError
from repro.pulse.counters import TFF, PulseCounter
from repro.pulse.engine import Component, Engine
from repro.pulse.logic import (
    ClockedAnd,
    ClockedBuffer,
    ClockedNot,
    ClockedOr,
    ClockedXor,
)
from repro.pulse.monitor import Probe
from repro.pulse.primitives import DAND, JTL, PTL, Merger, Sink, Splitter
from repro.pulse.storage import DRO, HCDRO, NDRO, NDROC

# -- component kind codes (dispatch order roughly tracks event frequency) --
# Codes 0..4 are ordered by event frequency in the 32x32 HiPerRF op mix
# (splitters ~44%, DANDs ~37%) so the run() dispatch chain tests the hot
# kinds first.  The clocked gates must stay contiguous at 12..16 with the
# unary pair (NOT/BUFFER) last: run() exploits ``k <= 16`` and ``k >= 15``.
K_SPL = 0        # Splitter
K_DAND = 1
K_MRG = 2        # Merger
K_NDROC = 3
K_HCDRO = 4
K_DELAY = 5      # JTL / PTL: pure delay
K_CNT = 6        # PulseCounter
K_NDRO = 7
K_DRO = 8
K_PROBE = 9
K_TFF = 10
K_SINK = 11
K_AND = 12
K_OR = 13
K_XOR = 14
K_NOT = 15
K_BUF = 16
K_FALLBACK = 17  # anything else: dispatched through on_pulse()

#: Exact-type lowering table.  Subclasses deliberately do NOT match -
#: they may override ``on_pulse`` and therefore take the fallback path.
_EXACT_KINDS: Dict[type, int] = {
    JTL: K_DELAY, PTL: K_DELAY, Splitter: K_SPL, Merger: K_MRG,
    HCDRO: K_HCDRO, NDROC: K_NDROC, DAND: K_DAND, DRO: K_DRO,
    NDRO: K_NDRO, Probe: K_PROBE, PulseCounter: K_CNT, TFF: K_TFF,
    Sink: K_SINK, ClockedAnd: K_AND, ClockedOr: K_OR, ClockedXor: K_XOR,
    ClockedNot: K_NOT, ClockedBuffer: K_BUF,
}

#: Kinds whose mutable state lives in the arrays and must be written
#: back to the component objects (probes share their list in place;
#: fallback components keep their state on the object).
_STATEFUL_KINDS = frozenset({
    K_MRG, K_HCDRO, K_NDROC, K_DAND, K_DRO, K_NDRO, K_CNT, K_TFF,
    K_SINK, K_AND, K_OR, K_XOR, K_NOT, K_BUF,
})

_NEG_INF = float("-inf")

#: Attributes never captured when snapshotting a fallback component.
_FALLBACK_SKIP = ("engine", "_wires", "name")


def _kind_of(comp: Component) -> int:
    """Classify one component; instance-patched on_pulse forces fallback."""
    if "on_pulse" in vars(comp):
        return K_FALLBACK
    return _EXACT_KINDS.get(type(comp), K_FALLBACK)


@dataclass
class PulseSnapshot:
    """A full copy of compiled simulation state, restorable in O(state)."""

    now_ps: float
    delivered: int
    heap: List[float]
    buckets: Dict[float, List[int]]
    cur_time: float
    cur: List[int]
    i0: List[int]
    i1: List[int]
    i2: List[int]
    f0: List[float]
    f1: List[float]
    probes: Dict[int, List[float]]
    fallback: Dict[int, Dict[str, Any]]


class CompiledEngine:
    """Flat-array event loop over a lowered :class:`Engine` netlist.

    Constructed via :meth:`Engine.compile`; once installed, the source
    engine's ``schedule``/``run``/``reset_all_state`` delegate here, so
    drivers written against the reference engine run unmodified.  The
    source engine keeps the authoritative ``components()`` /
    ``external_inputs()`` views, which is why ``repro.lint`` lowers a
    compiled netlist exactly as it lowers a reference one.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        comps: List[Component] = engine.components()
        n = len(comps)
        self._comps = comps
        self._ids: Dict[Component, int] = {c: i for i, c in enumerate(comps)}
        self._names: List[str] = [c.name for c in comps]
        self._in_ports: List[Tuple[str, ...]] = [c.INPUTS for c in comps]
        self._kind: List[int] = [_kind_of(c) for c in comps]

        # Parameters (constant after compile).
        self._delay: List[float] = [0.0] * n
        self._p0: List[float] = [0.0] * n
        self._p1: List[float] = [0.0] * n
        # State slots (see _load_state for the per-kind meaning).
        self._i0: List[int] = [0] * n
        self._i1: List[int] = [0] * n
        self._i2: List[int] = [0] * n
        self._f0: List[float] = [0.0] * n
        self._f1: List[float] = [0.0] * n
        #: Probe time lists, shared *by identity* with the Probe objects.
        self._plists: List[Optional[List[float]]] = [None] * n

        # CSR wire tables: targets pre-pack (sink_id, sink_kind, port).
        self._out_base: List[int] = [0] * n
        self._nout: List[int] = [0] * n
        kind = self._kind
        wire_tgt: List[int] = []
        wire_delay: List[float] = []
        for ci, comp in enumerate(comps):
            self._out_base[ci] = len(wire_tgt)
            self._nout[ci] = len(comp.OUTPUTS)
            for port in comp.OUTPUTS:
                wire = comp.wire_for(port)
                if wire is None:
                    wire_tgt.append(-1)
                    wire_delay.append(0.0)
                else:
                    sink_id = self._ids[wire.sink]
                    sink_pi = comps[sink_id].INPUTS.index(wire.sink_port)
                    wire_tgt.append(
                        (sink_id << 8) | (kind[sink_id] << 3) | sink_pi)
                    wire_delay.append(wire.delay_ps)
        self._wire_tgt = wire_tgt
        self._wire_delay = wire_delay

        for ci, comp in enumerate(comps):
            self._load_params(ci, comp)
        self._load_state_all()

        self._stateful: List[int] = [
            ci for ci, k in enumerate(kind) if k in _STATEFUL_KINDS]
        self._fallback: List[int] = [
            ci for ci, k in enumerate(kind) if k == K_FALLBACK]
        self._dirtyb = bytearray(n)
        self._dirtyl: List[int] = []

        # Event queue: heap of distinct times, FIFO bucket per time,
        # plus the currently draining bucket.
        self._time_heap: List[float] = []
        self._buckets: Dict[float, List[int]] = {}
        self._cur_list: List[int] = []
        self._cur_idx = 0
        self._cur_time = _NEG_INF
        self._adopt_pending(engine)

    # -- lowering ------------------------------------------------------

    def _load_params(self, ci: int, comp: Component) -> None:
        k = self._kind[ci]
        obj: Any = comp
        if k == K_DELAY or k == K_SPL:
            self._delay[ci] = obj.delay_ps
            if k == K_SPL:
                # p0 flags the symmetric splitter fast path: both outputs
                # connected with equal wire delays (the SplitTree shape),
                # so run() resolves one arrival time for both targets.
                # Splitters are stateless, so their unused state slots
                # double as a decoded wire table: i0/i1 hold the packed
                # targets and f1 the shared wire delay, sparing the CSR
                # indirection on the hottest event kind.
                slot = self._out_base[ci]
                self._p0[ci] = float(
                    self._wire_tgt[slot] >= 0
                    and self._wire_tgt[slot + 1] >= 0
                    and self._wire_delay[slot] == self._wire_delay[slot + 1])
                self._i0[ci] = self._wire_tgt[slot]
                self._i1[ci] = self._wire_tgt[slot + 1]
                self._f1[ci] = self._wire_delay[slot]
        elif k == K_DRO or k == K_NDRO:
            self._delay[ci] = obj.clk_to_q_ps
        elif k == K_MRG:
            self._delay[ci] = obj.delay_ps
            self._p0[ci] = obj.dead_time_ps
            self._p1[ci] = obj.SIMULTANEITY_EPS_PS
        elif k == K_HCDRO:
            self._delay[ci] = obj.clk_to_q_ps
            self._p0[ci] = obj.min_pulse_spacing_ps
            self._p1[ci] = float(obj.capacity)
        elif k == K_NDROC:
            self._delay[ci] = obj.propagation_ps
            self._p0[ci] = obj.min_clk_separation_ps
        elif k == K_DAND:
            self._delay[ci] = obj.delay_ps
            self._p0[ci] = obj.hold_window_ps
            # DANDs keep their pendings in f0/f1; the int slots are free,
            # so i1/p1 pre-decode the single output wire (target, delay).
            slot = self._out_base[ci]
            self._i1[ci] = self._wire_tgt[slot]
            self._p1[ci] = self._wire_delay[slot]
        elif k == K_CNT:
            self._delay[ci] = obj.delay_ps
            self._p1[ci] = float(2 ** obj.bits)
        elif k in (K_TFF, K_AND, K_OR, K_XOR, K_NOT, K_BUF):
            self._delay[ci] = obj.delay_ps

    def _load_state(self, ci: int) -> None:
        """Read one component's live state into the array slots."""
        obj: Any = self._comps[ci]
        k = self._kind[ci]
        if k == K_MRG:
            self._f0[ci] = obj._last_pulse_ps
            self._i0[ci] = {"": -1, "in0": 0, "in1": 1}[obj.winner_port]
            self._i1[ci] = obj.dissipated
            self._i2[ci] = obj.simultaneous_arrivals
        elif k == K_HCDRO:
            self._i0[ci] = obj.fluxons
            self._i1[ci] = obj.dissipated
            self._f0[ci] = obj._last_d_ps
            self._f1[ci] = obj._last_clk_ps
        elif k == K_NDROC:
            self._i0[ci] = int(obj.stored)
            self._i1[ci] = obj.dissipated
            self._f0[ci] = obj._last_clk_ps
        elif k == K_DAND:
            self._f0[ci] = obj._pending.get("a", _NEG_INF)
            self._f1[ci] = obj._pending.get("b", _NEG_INF)
        elif k == K_DRO or k == K_NDRO:
            self._i0[ci] = int(obj.stored)
            self._i1[ci] = obj.dissipated
        elif k == K_PROBE:
            self._plists[ci] = obj.times_ps
        elif k == K_CNT:
            self._i0[ci] = obj.count
            self._i1[ci] = obj.wrapped
        elif k == K_TFF:
            self._i0[ci] = int(obj.q_state)
        elif k == K_SINK:
            self._i0[ci] = obj.count
        elif k in (K_AND, K_OR, K_XOR, K_NOT, K_BUF):
            self._i0[ci] = int(obj._a)
            self._i1[ci] = int(obj._b)
            self._i2[ci] = obj.evaluations

    def _load_state_all(self) -> None:
        for ci in range(len(self._comps)):
            self._load_state(ci)

    def _adopt_pending(self, engine: Engine) -> None:
        """Transfer any events queued on the reference engine."""
        if not engine._queue:
            return
        kind = self._kind
        for time_ps, _seq, comp, port in sorted(engine._queue):
            ci = self._ids[comp]
            packed = (ci << 8) | (kind[ci] << 3) | comp.INPUTS.index(port)
            bucket = self._buckets.get(time_ps)
            if bucket is None:
                self._buckets[time_ps] = [packed]
                # Appending ascending times keeps the heap invariant.
                self._time_heap.append(time_ps)
            else:
                bucket.append(packed)
        engine._queue.clear()

    # -- writeback -----------------------------------------------------

    def _writeback(self, cis: List[int]) -> None:
        """Synchronise the component objects ``cis`` from the arrays.

        Every index must be a stateful kind; clears the dirty set.
        """
        dirtyb = self._dirtyb
        comps = self._comps
        kindv = self._kind
        i0 = self._i0
        i1 = self._i1
        i2 = self._i2
        f0 = self._f0
        f1 = self._f1
        for ci in cis:
            dirtyb[ci] = 0
            obj: Any = comps[ci]
            k = kindv[ci]
            if k == K_DAND:
                a = f0[ci]
                b = f1[ci]
                if b == _NEG_INF:
                    obj._pending = {} if a == _NEG_INF else {"a": a}
                elif a == _NEG_INF:
                    obj._pending = {"b": b}
                else:
                    obj._pending = {"a": a, "b": b}
            elif k == K_MRG:
                obj._last_pulse_ps = f0[ci]
                obj.winner_port = ("", "in0", "in1")[i0[ci] + 1]
                obj.dissipated = i1[ci]
                obj.simultaneous_arrivals = i2[ci]
            elif k == K_NDROC:
                obj.stored = bool(i0[ci])
                obj.dissipated = i1[ci]
                obj._last_clk_ps = f0[ci]
            elif k == K_HCDRO:
                obj.fluxons = i0[ci]
                obj.dissipated = i1[ci]
                obj._last_d_ps = f0[ci]
                obj._last_clk_ps = f1[ci]
            elif k == K_DRO or k == K_NDRO:
                obj.stored = bool(i0[ci])
                obj.dissipated = i1[ci]
            elif k == K_CNT:
                obj.count = i0[ci]
                obj.wrapped = i1[ci]
            elif k == K_TFF:
                obj.q_state = bool(i0[ci])
            elif k == K_SINK:
                obj.count = i0[ci]
            else:  # clocked gates
                obj._a = bool(i0[ci])
                obj._b = bool(i1[ci])
                obj.evaluations = i2[ci]
        self._dirtyl.clear()

    def writeback(self) -> None:
        """Synchronise every stateful component object from the arrays."""
        self._writeback(self._stateful)

    # -- views ---------------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The source engine (authoritative netlist views)."""
        return self._engine

    def components(self) -> List[Component]:
        """Registration-order component view (``repro.lint`` lowering)."""
        return self._engine.components()

    def component(self, name: str) -> Component:
        return self._engine.component(name)

    @property
    def num_components(self) -> int:
        return self._engine.num_components

    @property
    def strict_timing(self) -> bool:
        return self._engine.strict_timing

    @property
    def now_ps(self) -> float:
        return self._engine.now_ps

    @property
    def total_delivered(self) -> int:
        return self._engine.total_delivered

    @property
    def pending_events(self) -> int:
        pending = len(self._cur_list) - self._cur_idx
        for bucket in self._buckets.values():
            pending += len(bucket)
        return pending

    # -- event injection -----------------------------------------------

    def schedule(self, component: Component, port: str, time_ps: float) -> None:
        """Enqueue a pulse arriving at ``component.port`` at ``time_ps``."""
        ci = self._ids.get(component)
        if ci is None:
            raise NetlistError(
                f"{component.name!r} is not part of this compiled netlist")
        now = self._engine.now_ps
        if time_ps < now - 1e-9:
            raise SimulationError(
                f"cannot schedule a pulse in the past: t={time_ps} < now={now}")
        ports = self._in_ports[ci]
        if port not in ports:
            raise NetlistError(
                f"{component.name}: unknown input port {port!r}")
        packed = (ci << 8) | (self._kind[ci] << 3) | ports.index(port)
        if time_ps == self._cur_time:
            self._cur_list.append(packed)
            return
        bucket = self._buckets.get(time_ps)
        if bucket is None:
            self._buckets[time_ps] = [packed]
            heappush(self._time_heap, time_ps)
        else:
            bucket.append(packed)

    def inject(self, component: Component, port: str, time_ps: float) -> None:
        """External stimulus: alias of :meth:`schedule`."""
        self.schedule(component, port, time_ps)

    # -- the event loop ------------------------------------------------

    def run(self, until_ps: float = float("inf"), max_events: int = 10_000_000) -> int:
        """Deliver pulses in time order; semantics match :meth:`Engine.run`."""
        eng = self._engine
        trace = eng.trace
        strict = eng.strict_timing
        heap = self._time_heap
        buckets = self._buckets
        bucket_get = buckets.get
        delay = self._delay
        p0 = self._p0
        p1 = self._p1
        i0 = self._i0
        i1 = self._i1
        i2 = self._i2
        f0 = self._f0
        f1 = self._f1
        out_base = self._out_base
        nout = self._nout
        wire_tgt = self._wire_tgt
        wire_delay = self._wire_delay
        names = self._names
        in_ports = self._in_ports
        plists = self._plists
        comps = self._comps
        dirtyb = self._dirtyb
        dirtyl = self._dirtyl
        cur = self._cur_list
        idx = self._cur_idx
        ncur = len(cur)
        cur_time = self._cur_time
        now = eng.now_ps
        # Delivered-event accounting is *derived*, not counted per event:
        # `dbase` accumulates fetches from fully drained buckets,
        # `idx - bstart` counts fetches from the bucket being drained,
        # `have_count` counts direct-dispatched events, and `undelivered`
        # backs out an event whose handler raised (the reference engine
        # does not count those).  The max_events guard folds into the
        # fetch bound: `lim` is ncur capped at `stop_idx`, the idx value
        # at which the event budget runs out - so the hot fetch needs a
        # single comparison and no per-event counter at all.
        dbase = 0
        bstart = idx
        have_count = 0
        undelivered = 0
        stop_idx = idx + max_events
        lim = ncur if ncur < stop_idx else stop_idx
        # `have` flags an in-hand event (the direct-dispatch fast path):
        # an emitted pulse already known to be the next event skips the
        # queue round-trip entirely and is delivered at `have_t` on the
        # next pass.
        have = 0
        have_t = _NEG_INF
        packed = -1
        # One-entry bucket cache: broadcast waves emit many pulses into
        # the same future time, so remember the last bucket touched and
        # skip the float-hash dict lookup on consecutive hits.  The entry
        # is invalidated when its bucket is popped for draining.
        last_ta = _NEG_INF
        last_b: List[int] = []
        if idx < ncur:
            if cur_time > until_ps:
                # A previous run raised mid-bucket and this run's horizon
                # ends before that bucket's time: everything stays queued,
                # exactly as the reference engine would leave it.
                return 0
            # Invariant: while fetching from `cur`, now == cur_time.  It
            # can only be violated at entry (a drained-queue until_ps
            # advance in a previous run, followed by a within-tolerance
            # schedule() at the old bucket time), so normalise once here
            # instead of per event.
            now = cur_time
        gc_was_enabled = gc_isenabled()
        if gc_was_enabled:
            # The loop allocates bucket lists at a rate that trips gen-0
            # collections constantly; nothing here creates cycles, so
            # pause collection for the duration of the run.
            gc_disable()
        try:
            while True:
                # `have` implies the current bucket is drained, so these
                # two tests are mutually exclusive; the bucket fetch is
                # by far the more common and goes first.
                if idx < lim:
                    packed = cur[idx]
                    idx += 1
                elif have:
                    have = 0
                    if dbase + (idx - bstart) + have_count >= max_events:
                        # Put the undelivered in-hand event back first;
                        # the clock stays at the last delivered event.
                        b = bucket_get(have_t)
                        if b is None:
                            buckets[have_t] = [packed]
                            heappush(heap, have_t)
                        else:
                            b.append(packed)
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            "oscillating netlist?")
                    now = have_t
                    have_count += 1
                    stop_idx -= 1
                    lim = ncur if ncur < stop_idx else stop_idx
                else:
                    if idx < ncur:
                        # lim (not ncur) stopped the drain: budget spent.
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            "oscillating netlist?")
                    if not heap:
                        break
                    t = heap[0]
                    if t > until_ps:
                        break
                    if dbase + (idx - bstart) + have_count >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; "
                            "oscillating netlist?")
                    heappop(heap)
                    dbase += idx - bstart
                    cur = buckets.pop(t)
                    if t == last_ta:
                        last_ta = _NEG_INF  # bucket consumed: drop cache
                    ncur = len(cur)
                    packed = cur[0]
                    idx = 1
                    bstart = 0
                    stop_idx = max_events - dbase - have_count
                    lim = ncur if ncur < stop_idx else stop_idx
                    now = t
                    cur_time = t
                # Zero-cost (3.11 exception-table) guard: an event
                # that escapes mid-dispatch was fetched but, matching
                # the reference engine, must not count as delivered.
                try:
                    k = (packed >> 3) & 31
                    ci = packed >> 8
                    if trace is not None:
                        trace.append((now, names[ci], in_ports[ci][packed & 7]))
                    if k == 0:  # Splitter
                        if p0[ci]:
                            # Symmetric fast path: both outputs land at the
                            # same time, so resolve the bucket once.  out0
                            # then blocks out1 from direct dispatch anyway
                            # (same time, earlier seq), so neither is tried.
                            # i0/i1/f1 are the pre-decoded wire table.
                            ta = (now + delay[ci]) + f1[ci]
                            if ta == last_ta:
                                last_b.append(i0[ci])
                                last_b.append(i1[ci])
                            elif ta == cur_time:
                                cur.append(i0[ci])
                                cur.append(i1[ci])
                                ncur += 2
                                lim = ncur if ncur < stop_idx else stop_idx
                            else:
                                b = bucket_get(ta)
                                if b is None:
                                    b = [i0[ci], i1[ci]]
                                    buckets[ta] = b
                                    heappush(heap, ta)
                                else:
                                    b.append(i0[ci])
                                    b.append(i1[ci])
                                last_ta = ta
                                last_b = b
                        else:
                            slot = out_base[ci]
                            out_t = now + delay[ci]
                            tg = wire_tgt[slot]
                            if tg >= 0:  # out0: never direct (out1 pending)
                                ta = out_t + wire_delay[slot]
                                if ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        buckets[ta] = [tg]
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                            slot += 1
                            tg = wire_tgt[slot]
                            if tg >= 0:
                                ta = out_t + wire_delay[slot]
                                if ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                elif (idx >= ncur and ta <= until_ps
                                      and (not heap or ta < heap[0])):
                                    have_t = ta
                                    packed = tg
                                    have = 1
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        buckets[ta] = [tg]
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                    elif k == 1:  # DAND
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:
                            other = f1[ci]
                        else:
                            other = f0[ci]
                        if now - other <= p0[ci]:
                            # Coincidence within the hold window: fire.
                            f0[ci] = _NEG_INF
                            f1[ci] = _NEG_INF
                            tg = i1[ci]  # pre-decoded output wire (i1/p1)
                            if tg >= 0:
                                ta = (now + delay[ci]) + p1[ci]
                                if ta == last_ta:
                                    last_b.append(tg)
                                elif ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                elif (idx >= ncur and ta <= until_ps
                                      and (not heap or ta < heap[0])):
                                    have_t = ta
                                    packed = tg
                                    have = 1
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        b = [tg]
                                        buckets[ta] = b
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                                    last_ta = ta
                                    last_b = b
                        elif pi == 0:
                            f0[ci] = now
                        else:
                            f1[ci] = now
                    elif k == 2:  # Merger
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        delta = now - f0[ci]
                        if delta <= p1[ci]:
                            # Simultaneous tie: in0 wins deterministically.
                            i2[ci] += 1
                            i1[ci] += 1
                            if packed & 7 == 0:
                                i0[ci] = 0
                        elif delta < p0[ci]:
                            i1[ci] += 1  # dead-time dissipation
                        else:
                            f0[ci] = now
                            i0[ci] = packed & 7
                            slot = out_base[ci]
                            tg = wire_tgt[slot]
                            if tg >= 0:
                                ta = (now + delay[ci]) + wire_delay[slot]
                                if ta == last_ta:
                                    last_b.append(tg)
                                elif ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                elif (idx >= ncur and ta <= until_ps
                                      and (not heap or ta < heap[0])):
                                    have_t = ta
                                    packed = tg
                                    have = 1
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        b = [tg]
                                        buckets[ta] = b
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                                    last_ta = ta
                                    last_b = b
                    elif k == 3:  # NDROC
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:  # set
                            if i0[ci]:
                                i1[ci] += 1
                            else:
                                i0[ci] = 1
                        elif pi == 1:  # reset
                            if i0[ci]:
                                i0[ci] = 0
                            else:
                                i1[ci] += 1
                        else:  # clk: route to true or complement output
                            if now - f0[ci] + 1e-9 < p0[ci]:
                                if strict:
                                    raise TimingViolationError(
                                        f"{names[ci]}: CLK pulses "
                                        f"{now - f0[ci]:.2f} ps apart "
                                        f"(< {p0[ci]} ps)")
                                i1[ci] += 1
                            else:
                                f0[ci] = now
                                slot = out_base[ci] + (0 if i0[ci] else 1)
                                tg = wire_tgt[slot]
                                if tg >= 0:
                                    ta = (now + delay[ci]) + wire_delay[slot]
                                    if ta == cur_time:
                                        cur.append(tg)
                                        ncur += 1
                                        lim = ncur if ncur < stop_idx else stop_idx
                                    elif (idx >= ncur and ta <= until_ps
                                          and (not heap or ta < heap[0])):
                                        have_t = ta
                                        packed = tg
                                        have = 1
                                    else:
                                        b = bucket_get(ta)
                                        if b is None:
                                            buckets[ta] = [tg]
                                            heappush(heap, ta)
                                        else:
                                            b.append(tg)
                    elif k == 4:  # HCDRO
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        if packed & 7 == 0:  # d
                            ok = now - f0[ci] + 1e-9 >= p0[ci]
                            if not ok:
                                if strict:
                                    raise TimingViolationError(
                                        f"{names[ci]}: d pulses "
                                        f"{now - f0[ci]:.2f} ps apart "
                                        f"(< {p0[ci]} ps)")
                                i1[ci] += 1
                            f0[ci] = now
                            if ok:
                                if i0[ci] >= p1[ci]:
                                    i1[ci] += 1
                                else:
                                    i0[ci] += 1
                        else:  # clk
                            ok = now - f1[ci] + 1e-9 >= p0[ci]
                            if not ok:
                                if strict:
                                    raise TimingViolationError(
                                        f"{names[ci]}: clk pulses "
                                        f"{now - f1[ci]:.2f} ps apart "
                                        f"(< {p0[ci]} ps)")
                                i1[ci] += 1
                            f1[ci] = now
                            if ok and i0[ci] > 0:
                                i0[ci] -= 1
                                slot = out_base[ci]
                                tg = wire_tgt[slot]
                                if tg >= 0:
                                    ta = (now + delay[ci]) + wire_delay[slot]
                                    if ta == last_ta:
                                        last_b.append(tg)
                                    elif ta == cur_time:
                                        cur.append(tg)
                                        ncur += 1
                                        lim = ncur if ncur < stop_idx else stop_idx
                                    elif (idx >= ncur and ta <= until_ps
                                          and (not heap or ta < heap[0])):
                                        have_t = ta
                                        packed = tg
                                        have = 1
                                    else:
                                        b = bucket_get(ta)
                                        if b is None:
                                            b = [tg]
                                            buckets[ta] = b
                                            heappush(heap, ta)
                                        else:
                                            b.append(tg)
                                        last_ta = ta
                                        last_b = b
                    elif k == 5:  # JTL / PTL
                        slot = out_base[ci]
                        tg = wire_tgt[slot]
                        if tg >= 0:
                            ta = (now + delay[ci]) + wire_delay[slot]
                            if ta == cur_time:
                                cur.append(tg)
                                ncur += 1
                                lim = ncur if ncur < stop_idx else stop_idx
                            elif (idx >= ncur and ta <= until_ps
                                  and (not heap or ta < heap[0])):
                                have_t = ta
                                packed = tg
                                have = 1
                            else:
                                b = bucket_get(ta)
                                if b is None:
                                    buckets[ta] = [tg]
                                    heappush(heap, ta)
                                else:
                                    b.append(tg)
                    elif k == 6:  # PulseCounter
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:  # in
                            i0[ci] += 1
                            if i0[ci] >= p1[ci]:
                                i0[ci] = 0
                                i1[ci] += 1
                        elif pi == 1:  # read: emit each set bit
                            count = i0[ci]
                            base = out_base[ci]
                            out_t = now + delay[ci]
                            for bit in range(nout[ci]):
                                if count & (1 << bit):
                                    slot = base + bit
                                    tg = wire_tgt[slot]
                                    if tg >= 0:
                                        ta = out_t + wire_delay[slot]
                                        if ta == cur_time:
                                            cur.append(tg)
                                            ncur += 1
                                            lim = ncur if ncur < stop_idx else stop_idx
                                        else:
                                            b = bucket_get(ta)
                                            if b is None:
                                                buckets[ta] = [tg]
                                                heappush(heap, ta)
                                            else:
                                                b.append(tg)
                        else:  # reset
                            i0[ci] = 0
                    elif k == 7:  # NDRO
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:  # set
                            if i0[ci]:
                                i1[ci] += 1
                            else:
                                i0[ci] = 1
                        elif pi == 1:  # reset
                            if i0[ci]:
                                i0[ci] = 0
                            else:
                                i1[ci] += 1
                        elif i0[ci]:  # clk: non-destructive read
                            slot = out_base[ci]
                            tg = wire_tgt[slot]
                            if tg >= 0:
                                ta = (now + delay[ci]) + wire_delay[slot]
                                if ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                elif (idx >= ncur and ta <= until_ps
                                      and (not heap or ta < heap[0])):
                                    have_t = ta
                                    packed = tg
                                    have = 1
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        buckets[ta] = [tg]
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                    elif k == 8:  # DRO
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        if packed & 7 == 0:  # d
                            if i0[ci]:
                                i1[ci] += 1
                            else:
                                i0[ci] = 1
                        elif i0[ci]:  # clk: destructive read
                            i0[ci] = 0
                            slot = out_base[ci]
                            tg = wire_tgt[slot]
                            if tg >= 0:
                                ta = (now + delay[ci]) + wire_delay[slot]
                                if ta == cur_time:
                                    cur.append(tg)
                                    ncur += 1
                                    lim = ncur if ncur < stop_idx else stop_idx
                                elif (idx >= ncur and ta <= until_ps
                                      and (not heap or ta < heap[0])):
                                    have_t = ta
                                    packed = tg
                                    have = 1
                                else:
                                    b = bucket_get(ta)
                                    if b is None:
                                        buckets[ta] = [tg]
                                        heappush(heap, ta)
                                    else:
                                        b.append(tg)
                    elif k == 9:  # Probe: record, forward with zero cell delay
                        lst = plists[ci]
                        if lst is not None:
                            lst.append(now)
                        slot = out_base[ci]
                        tg = wire_tgt[slot]
                        if tg >= 0:
                            ta = now + wire_delay[slot]
                            if ta == cur_time:
                                cur.append(tg)
                                ncur += 1
                                lim = ncur if ncur < stop_idx else stop_idx
                            elif (idx >= ncur and ta <= until_ps
                                  and (not heap or ta < heap[0])):
                                have_t = ta
                                packed = tg
                                have = 1
                            else:
                                b = bucket_get(ta)
                                if b is None:
                                    buckets[ta] = [tg]
                                    heappush(heap, ta)
                                else:
                                    b.append(tg)
                    elif k == 10:  # TFF
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:  # t
                            if i0[ci]:
                                i0[ci] = 0
                                slot = out_base[ci]  # carry
                                tg = wire_tgt[slot]
                                if tg >= 0:
                                    ta = (now + delay[ci]) + wire_delay[slot]
                                    if ta == cur_time:
                                        cur.append(tg)
                                        ncur += 1
                                        lim = ncur if ncur < stop_idx else stop_idx
                                    elif (idx >= ncur and ta <= until_ps
                                          and (not heap or ta < heap[0])):
                                        have_t = ta
                                        packed = tg
                                        have = 1
                                    else:
                                        b = bucket_get(ta)
                                        if b is None:
                                            buckets[ta] = [tg]
                                            heappush(heap, ta)
                                        else:
                                            b.append(tg)
                            else:
                                i0[ci] = 1
                        elif pi == 1:  # read
                            if i0[ci]:
                                slot = out_base[ci] + 1  # q
                                tg = wire_tgt[slot]
                                if tg >= 0:
                                    ta = (now + delay[ci]) + wire_delay[slot]
                                    if ta == cur_time:
                                        cur.append(tg)
                                        ncur += 1
                                        lim = ncur if ncur < stop_idx else stop_idx
                                    elif (idx >= ncur and ta <= until_ps
                                          and (not heap or ta < heap[0])):
                                        have_t = ta
                                        packed = tg
                                        have = 1
                                    else:
                                        b = bucket_get(ta)
                                        if b is None:
                                            buckets[ta] = [tg]
                                            heappush(heap, ta)
                                        else:
                                            b.append(tg)
                        else:  # reset
                            i0[ci] = 0
                    elif k == 11:  # Sink
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        i0[ci] += 1
                    elif k <= 16:  # clocked gates (AND/OR/XOR/NOT/BUFFER)
                        if not dirtyb[ci]:
                            dirtyb[ci] = 1
                            dirtyl.append(ci)
                        pi = packed & 7
                        if pi == 0:  # a
                            i0[ci] = 1
                        elif pi == 1:  # b
                            if k >= 15:  # unary gates reject the 'b' pin
                                raise NetlistError(
                                    f"{names[ci]}: unary gate has no 'b' pin")
                            i1[ci] = 1
                        else:  # clk: evaluate, emit on true, clear
                            i2[ci] += 1
                            if k == 12:
                                value = i0[ci] and i1[ci]
                            elif k == 13:
                                value = i0[ci] or i1[ci]
                            elif k == 14:
                                value = i0[ci] != i1[ci]
                            elif k == 15:
                                value = not i0[ci]
                            else:
                                value = bool(i0[ci])
                            if value:
                                slot = out_base[ci]
                                tg = wire_tgt[slot]
                                if tg >= 0:
                                    ta = (now + delay[ci]) + wire_delay[slot]
                                    if ta == cur_time:
                                        cur.append(tg)
                                        ncur += 1
                                        lim = ncur if ncur < stop_idx else stop_idx
                                    elif (idx >= ncur and ta <= until_ps
                                          and (not heap or ta < heap[0])):
                                        have_t = ta
                                        packed = tg
                                        have = 1
                                    else:
                                        b = bucket_get(ta)
                                        if b is None:
                                            buckets[ta] = [tg]
                                            heappush(heap, ta)
                                        else:
                                            b.append(tg)
                            i0[ci] = 0
                            i1[ci] = 0
                    else:  # fallback: object-path dispatch
                        # Sync the queue view so on_pulse() may call schedule().
                        self._cur_idx = idx
                        self._cur_list = cur
                        self._cur_time = cur_time
                        eng.now_ps = now
                        comps[ci].on_pulse(in_ports[ci][packed & 7], now)
                        idx = self._cur_idx
                        ncur = len(cur)  # on_pulse may append at cur_time
                        lim = ncur if ncur < stop_idx else stop_idx
                        if idx < ncur:
                            now = cur_time  # re-establish the fetch invariant
                except BaseException:
                    undelivered = 1
                    raise
            if not heap and idx >= ncur and until_ps != float("inf"):
                now = until_ps
        finally:
            if gc_was_enabled:
                gc_enable()
            delivered = dbase + (idx - bstart) + have_count - undelivered
            self._cur_idx = idx
            self._cur_time = cur_time
            self._cur_list = cur
            eng._delivered += delivered
            eng.now_ps = now
            if dirtyl:
                self._writeback(dirtyl)
        return delivered

    # -- state management ----------------------------------------------

    def reset_all_state(self) -> None:
        """Reset every component to power-on state (queue/clock untouched)."""
        for comp in self._comps:
            comp.reset_state()
        self._load_state_all()
        self._dirtyl.clear()
        self._dirtyb[:] = bytes(len(self._comps))

    def snapshot(self) -> PulseSnapshot:
        """Capture the complete simulation state for later :meth:`restore`."""
        probes: Dict[int, List[float]] = {}
        for ci, lst in enumerate(self._plists):
            if lst is not None:
                probes[ci] = list(lst)
        fallback: Dict[int, Dict[str, Any]] = {}
        for ci in self._fallback:
            state = {key: value
                     for key, value in vars(self._comps[ci]).items()
                     if key not in _FALLBACK_SKIP}
            fallback[ci] = copy.deepcopy(state)
        return PulseSnapshot(
            now_ps=self._engine.now_ps,
            delivered=self._engine._delivered,
            heap=list(self._time_heap),
            buckets={t: list(b) for t, b in self._buckets.items()},
            cur_time=self._cur_time,
            cur=self._cur_list[self._cur_idx:],
            i0=list(self._i0), i1=list(self._i1), i2=list(self._i2),
            f0=list(self._f0), f1=list(self._f1),
            probes=probes, fallback=fallback)

    def restore(self, snap: PulseSnapshot) -> None:
        """Restore a :meth:`snapshot`: an O(state) array copy, no rebuild."""
        self._engine.now_ps = snap.now_ps
        self._engine._delivered = snap.delivered
        self._time_heap[:] = snap.heap  # a copy of a heap is still a heap
        self._buckets.clear()
        for t, bucket in snap.buckets.items():
            self._buckets[t] = list(bucket)
        self._cur_time = snap.cur_time
        self._cur_list = list(snap.cur)
        self._cur_idx = 0
        self._i0[:] = snap.i0
        self._i1[:] = snap.i1
        self._i2[:] = snap.i2
        self._f0[:] = snap.f0
        self._f1[:] = snap.f1
        for ci, recorded in snap.probes.items():
            lst = self._plists[ci]
            if lst is not None:
                lst[:] = recorded
        for ci, state in snap.fallback.items():
            vars(self._comps[ci]).update(copy.deepcopy(state))
        self.writeback()

    def __repr__(self) -> str:
        return (f"CompiledEngine({len(self._comps)} components, "
                f"{len(self._wire_tgt)} wire slots)")
