"""Pulse lane replay: one compiled netlist, many stimulus lanes.

Sweep workloads - fault injection (one run per fault site), loopback
skew windows, figure15 read sweeps, the service's coalesced
``pulse_rf`` groups - run the same netlist L times with different
stimuli.  Each lane is recorded once as a :class:`LaneStimulus` (with
:func:`capture_stimulus`, so existing drivers need no change), and
:func:`run_lanes` replays the lane set on the compiled engine
(:mod:`repro.pulse.compiled`): every lane restores the engine's
snapshot, replays its injections and run segments, and records a
:class:`LaneOutcome`.  A restore is an O(state) array copy, so a lane
set costs one elaboration plus L compiled runs.

The compiled engine's inlined handlers are the one fast definition of
each cell's behaviour, and ``Component.on_pulse`` on the reference
:class:`~repro.pulse.engine.Engine` is the oracle they are checked
against, lane by lane (``tests/pulse/test_batched.py``).

Lane semantics: each lane carries its own segment horizons and
``max_events`` budgets; a lane that raises (strict timing, oscillation
guard, bad stimulus) stops there and keeps its partial state, the other
lanes are unaffected, and errors are reported per lane with the lane
index (``on_error="raise"`` surfaces the first one as an exception
naming the lane).  ``docs/architecture.md`` ("Lane replay") records
the lane counts each sweep sends and why no vectorized lane wheel
replays them.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    NetlistError,
    SimulationError,
    TimingViolationError,
)
from repro.pulse.compiled import CompiledEngine, PulseSnapshot
from repro.pulse.engine import Component, Engine

_INF = float("inf")
_NEG_INF = float("-inf")

#: Default per-segment event budget (matches ``Engine.run``'s default).
_DEFAULT_MAX_EVENTS = 10_000_000

#: Exception names an outcome can carry, mapped back for on_error="raise".
_ERROR_TYPES = {
    "SimulationError": SimulationError,
    "TimingViolationError": TimingViolationError,
    "NetlistError": NetlistError,
}


# -- stimulus capture ---------------------------------------------------


@dataclass(frozen=True)
class LaneStimulus:
    """One lane's replayable stimulus: injections plus run segments.

    ``injections`` are ``(component_name, port, time_ps)`` triples;
    ``segments`` are ``(until_ps, max_events)`` pairs replayed in order
    with non-decreasing horizons (an infinite horizon must come last).
    Record one with :func:`capture_stimulus` to reuse existing drivers.
    """

    injections: Tuple[Tuple[str, str, float], ...]
    segments: Tuple[Tuple[float, int], ...] = ((_INF, _DEFAULT_MAX_EVENTS),)


class StimulusCapture:
    """Recorder installed by :func:`capture_stimulus`.

    While active, ``Engine.schedule`` validates as usual but records the
    pulse instead of enqueueing it, and ``Engine.run`` records a segment
    boundary and advances ``now_ps`` to its horizon - so drivers that
    compute times from ``engine.now_ps`` keep working unchanged.
    """

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self.entry_now_ps = engine.now_ps
        self.injections: List[Tuple[str, str, float]] = []
        self.segments: List[Tuple[float, int]] = []

    def record_schedule(self, component: Component, port: str,
                        time_ps: float) -> None:
        engine = self._engine
        if engine._components.get(component.name) is not component:
            raise NetlistError(
                f"{component.name!r} is not part of this compiled netlist")
        if time_ps < engine.now_ps - 1e-9:
            raise SimulationError(
                f"cannot schedule a pulse in the past: t={time_ps} "
                f"< now={engine.now_ps}")
        if port not in component.INPUTS:
            raise NetlistError(
                f"{component.name}: unknown input port {port!r}")
        self.injections.append((component.name, port, time_ps))

    def record_run(self, until_ps: float, max_events: int) -> int:
        self.segments.append((until_ps, max_events))
        if until_ps != _INF and until_ps > self._engine.now_ps:
            self._engine.now_ps = until_ps
        return 0

    def stimulus(self) -> LaneStimulus:
        segments = tuple(self.segments) or ((_INF, _DEFAULT_MAX_EVENTS),)
        return LaneStimulus(tuple(self.injections), segments)


@contextmanager
def capture_stimulus(engine: Engine) -> Iterator[StimulusCapture]:
    """Record a :class:`LaneStimulus` by running an existing driver.

    Inside the context, ``engine.schedule``/``engine.run`` record
    instead of simulating; component state is never touched, and
    ``now_ps`` is restored on exit.
    """
    if engine._capture is not None:
        raise SimulationError("a stimulus capture is already active on "
                              "this engine")
    capture = StimulusCapture(engine)
    engine._capture = capture
    try:
        yield capture
    finally:
        engine._capture = None
        engine.now_ps = capture.entry_now_ps


# -- lane outcomes ------------------------------------------------------


@dataclass
class LaneOutcome:
    """Final state of one lane, comparable field-for-field.

    ``i0``..``f1`` are the compiled engine's per-component state
    columns; ``pending_events`` is the sorted ``(time, component, port)``
    multiset of undelivered events.
    """

    lane: int
    #: ``(exception type name, message)`` or None.
    error: Optional[Tuple[str, str]]
    delivered: int
    now_ps: float
    pending: int
    pending_events: List[Tuple[float, str, str]] = field(repr=False)
    trace: Optional[List[Tuple[float, str, str]]] = field(repr=False)
    i0: List[int] = field(repr=False)
    i1: List[int] = field(repr=False)
    i2: List[int] = field(repr=False)
    f0: List[float] = field(repr=False)
    f1: List[float] = field(repr=False)
    probes: Dict[int, List[float]] = field(repr=False)
    fallback: Dict[int, Dict[str, Any]] = field(repr=False)


def install_lane(compiled: CompiledEngine, outcome: LaneOutcome) -> None:
    """Load one lane's final state into the compiled engine.

    Observation-only: the event queue is cleared, component objects are
    synchronised from the lane's state columns, and probe lists are
    replaced, so white-box readers (``stored_word``, probe times,
    counters) see the lane exactly as a solo run would have left it.
    """
    compiled.restore(PulseSnapshot(
        now_ps=outcome.now_ps,
        delivered=compiled.engine._delivered,
        heap=[], buckets={}, cur_time=_NEG_INF, cur=[],
        i0=list(outcome.i0), i1=list(outcome.i1), i2=list(outcome.i2),
        f0=list(outcome.f0), f1=list(outcome.f1),
        probes={ci: list(ts) for ci, ts in outcome.probes.items()},
        fallback=copy.deepcopy(outcome.fallback)))


# -- replay -------------------------------------------------------------


def resolve_lanes_tier(compiled: CompiledEngine,
                       lanes: Optional[int] = None
                       ) -> Tuple[str, Optional[int]]:
    """The path :func:`run_lanes` takes: always ``("sequential", None)``.

    Every lane set replays lane by lane on the compiled engine; there
    is no lane-count threshold.  Kept so run reports can record the
    path they measured.
    """
    return "sequential", None


def run_lanes(compiled: CompiledEngine, stimuli: Sequence[LaneStimulus],
              trace: bool = False,
              on_error: str = "record") -> List[LaneOutcome]:
    """Replay ``stimuli`` lanes from the engine's current state.

    Returns one :class:`LaneOutcome` per stimulus, in order.  Each lane
    restores the engine's current state, replays its stimulus and
    records its outcome; the engine is restored on exit, so its own
    state is left untouched.  ``on_error="record"`` (the default)
    reports per-lane failures in ``LaneOutcome.error``; ``"raise"``
    re-raises the first one, prefixed with the lane index.
    """
    if on_error not in ("record", "raise"):
        raise ConfigError(f"unknown on_error mode {on_error!r}")
    for lane, stimulus in enumerate(stimuli):
        _validate_segments(lane, stimulus.segments)
    base = compiled.snapshot()
    engine = compiled.engine
    saved_trace = engine.trace
    outcomes: List[LaneOutcome] = []
    try:
        for lane, stimulus in enumerate(stimuli):
            compiled.restore(base)
            engine.trace = [] if trace else None
            error: Optional[Tuple[str, str]] = None
            try:
                for name, port, time_ps in stimulus.injections:
                    engine.schedule(engine.component(name), port, time_ps)
                for until_ps, max_events in stimulus.segments:
                    compiled.run(until_ps=until_ps, max_events=max_events)
            except (SimulationError, NetlistError) as exc:
                error = (type(exc).__name__, str(exc))
            outcomes.append(_outcome_from_compiled(
                compiled, lane, error, engine.trace, base))
    finally:
        compiled.restore(base)
        engine.trace = saved_trace
    if on_error == "raise":
        for outcome in outcomes:
            if outcome.error is not None:
                etype, message = outcome.error
                exc_type = _ERROR_TYPES.get(etype, SimulationError)
                raise exc_type(f"lane {outcome.lane}: {message}")
    return outcomes


def _validate_segments(lane: int,
                       segments: Sequence[Tuple[float, int]]) -> None:
    if not segments:
        raise ConfigError(f"lane {lane}: stimulus has no run segments")
    previous = _NEG_INF
    for index, (until_ps, _max_events) in enumerate(segments):
        if previous == _INF:
            raise ConfigError(
                f"lane {lane}: an infinite run horizon must be the last "
                "segment")
        if until_ps < previous:
            raise ConfigError(
                f"lane {lane}: run horizons must be non-decreasing "
                f"(segment {index}: {until_ps} < {previous})")
        previous = until_ps


def _outcome_from_compiled(compiled: CompiledEngine, lane: int,
                           error: Optional[Tuple[str, str]],
                           trace: Optional[List[Tuple[float, str, str]]],
                           base: PulseSnapshot) -> LaneOutcome:
    snap = compiled.snapshot()
    names = compiled._names
    in_ports = compiled._in_ports
    pending_events: List[Tuple[float, str, str]] = []
    for packed in snap.cur:
        ci = packed >> 8
        pending_events.append(
            (snap.cur_time, names[ci], in_ports[ci][packed & 7]))
    for time_ps, bucket in snap.buckets.items():
        for packed in bucket:
            ci = packed >> 8
            pending_events.append(
                (time_ps, names[ci], in_ports[ci][packed & 7]))
    pending_events.sort()
    return LaneOutcome(
        lane=lane, error=error,
        delivered=compiled.engine._delivered - base.delivered,
        now_ps=compiled.engine.now_ps,
        pending=len(pending_events), pending_events=pending_events,
        trace=trace,
        i0=snap.i0, i1=snap.i1, i2=snap.i2, f0=snap.f0, f1=snap.f1,
        probes=snap.probes, fallback=snap.fallback)
