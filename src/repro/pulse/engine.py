"""Discrete-event core of the pulse-level SFQ simulator."""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import NetlistError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pulse.batched import LaneOutcome, LaneStimulus, StimulusCapture
    from repro.pulse.compiled import CompiledEngine


class Wire:
    """A point-to-point pulse connection with a fixed propagation delay.

    SFQ interconnect is either a Josephson transmission line or a passive
    microstrip line; at this level of abstraction both are a delay.
    """

    def __init__(self, sink: "Component", sink_port: str, delay_ps: float = 0.0) -> None:
        if delay_ps < 0:
            raise NetlistError(f"wire delay must be non-negative, got {delay_ps}")
        self.sink = sink
        self.sink_port = sink_port
        self.delay_ps = delay_ps

    def __repr__(self) -> str:
        return f"Wire(->{self.sink.name}.{self.sink_port}, {self.delay_ps} ps)"


class Component:
    """Base class of every pulse-level component.

    Subclasses declare ``INPUTS`` and ``OUTPUTS`` (tuples of port names)
    and implement :meth:`on_pulse`.  Output pulses are emitted with
    :meth:`emit`; each output pin drives at most one wire - SFQ pulses
    cannot fan out, so driving two loads requires an explicit splitter
    (paper Section II-F).
    """

    INPUTS: Tuple[str, ...] = ()
    OUTPUTS: Tuple[str, ...] = ()

    def __init__(self, name: str) -> None:
        self.name = name
        self.engine: Optional[Engine] = None
        self._wires: Dict[str, Wire] = {}

    # -- wiring --------------------------------------------------------

    def connect(self, out_port: str, sink: "Component", sink_port: str,
                delay_ps: float = 0.0) -> None:
        """Drive ``sink.sink_port`` from this component's ``out_port``."""
        if out_port not in self.OUTPUTS:
            raise NetlistError(
                f"{self.name}: unknown output port {out_port!r} "
                f"(has {self.OUTPUTS})")
        if sink_port not in sink.INPUTS:
            raise NetlistError(
                f"{sink.name}: unknown input port {sink_port!r} "
                f"(has {sink.INPUTS})")
        if out_port in self._wires:
            raise NetlistError(
                f"{self.name}.{out_port} already drives "
                f"{self._wires[out_port]}; SFQ outputs cannot fan out - "
                "insert a Splitter")
        self._wires[out_port] = Wire(sink, sink_port, delay_ps)

    def wire_for(self, out_port: str) -> Optional[Wire]:
        return self._wires.get(out_port)

    # -- simulation ----------------------------------------------------

    def on_pulse(self, port: str, time_ps: float) -> None:
        """Handle an incoming pulse; subclasses override."""
        raise NotImplementedError

    def emit(self, out_port: str, time_ps: float) -> None:
        """Send a pulse out of ``out_port`` at ``time_ps``.

        Unconnected outputs are legal; the pulse is simply dissipated
        (a matched termination), mirroring real PTL sinks.
        """
        if self.engine is None:
            raise SimulationError(f"{self.name} is not registered with an engine")
        wire = self._wires.get(out_port)
        if wire is None:
            return
        self.engine.schedule(wire.sink, wire.sink_port,
                             time_ps + wire.delay_ps)

    def reset_state(self) -> None:
        """Return the component to its power-on state (optional override)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Engine:
    """The global event queue: schedules and delivers pulses in time order."""

    def __init__(self, strict_timing: bool = True) -> None:
        #: When True, cells raise TimingViolationError on constraint
        #: violations; when False they dissipate the offending pulse,
        #: which is what the physical circuit would typically do.
        self.strict_timing = strict_timing
        self.now_ps = 0.0
        #: Optional pulse trace: set to a list to record one
        #: ``(time_ps, component_name, port)`` tuple per delivered pulse.
        #: Both backends honour it, so traces are directly comparable.
        self.trace: Optional[List[Tuple[float, str, str]]] = None
        self._queue: List[Tuple[float, int, Component, str]] = []
        self._seq = itertools.count()
        self._components: Dict[str, Component] = {}
        self._delivered = 0
        self._compiled: Optional["CompiledEngine"] = None
        #: When a :func:`repro.pulse.batched.capture_stimulus` context is
        #: active, schedule()/run() record instead of simulating.
        self._capture: Optional["StimulusCapture"] = None

    # -- registration ----------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component (names must be unique within an engine)."""
        if self._compiled is not None:
            raise NetlistError(
                f"cannot add {component.name!r}: netlist is frozen once "
                "compile() has been called")
        if component.name in self._components:
            raise NetlistError(f"duplicate component name {component.name!r}")
        component.engine = self
        self._components[component.name] = component
        return component

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise NetlistError(f"no component named {name!r}") from None

    def components(self) -> List[Component]:
        """All registered components, in registration order.

        Static analysis (``repro.lint``) walks this to lower the netlist
        into its circuit-graph IR.
        """
        return list(self._components.values())

    @property
    def num_components(self) -> int:
        return len(self._components)

    # -- compilation -------------------------------------------------------

    def compile(self) -> "CompiledEngine":
        """Lower this netlist into the flat-array compiled backend.

        The first call freezes the netlist (no further :meth:`add`) and
        installs the compiled backend in place: ``schedule``/``run``/
        ``reset_all_state`` transparently delegate from then on, so
        existing drivers keep working unchanged.  Returns the
        :class:`repro.pulse.compiled.CompiledEngine`, which additionally
        offers ``snapshot()``/``restore()`` for O(state) resets.
        """
        if self._compiled is None:
            from repro.pulse.compiled import CompiledEngine

            self._compiled = CompiledEngine(self)
        return self._compiled

    @property
    def compiled(self) -> Optional["CompiledEngine"]:
        """The installed compiled backend, or ``None`` before compile()."""
        return self._compiled

    # -- event processing --------------------------------------------------

    def schedule(self, component: Component, port: str, time_ps: float) -> None:
        """Enqueue a pulse arriving at ``component.port`` at ``time_ps``."""
        if self._capture is not None:
            self._capture.record_schedule(component, port, time_ps)
            return
        if self._compiled is not None:
            self._compiled.schedule(component, port, time_ps)
            return
        if time_ps < self.now_ps - 1e-9:
            raise SimulationError(
                f"cannot schedule a pulse in the past: t={time_ps} < now={self.now_ps}")
        if port not in component.INPUTS:
            raise NetlistError(
                f"{component.name}: unknown input port {port!r}")
        heapq.heappush(self._queue,
                       (time_ps, next(self._seq), component, port))

    def inject(self, component: Component, port: str, time_ps: float) -> None:
        """External stimulus: alias of :meth:`schedule` for test drivers."""
        self.schedule(component, port, time_ps)

    def run(self, until_ps: float = float("inf"), max_events: int = 10_000_000) -> int:
        """Deliver pulses in time order until the queue drains or ``until_ps``.

        Returns the number of pulses delivered.  ``max_events`` guards
        against oscillating netlists: delivering exactly ``max_events``
        pulses is fine, needing a further one raises.  ``total_delivered``
        and ``now_ps`` stay consistent even when a cell raises mid-run.
        """
        if self._capture is not None:
            return self._capture.record_run(until_ps, max_events)
        if self._compiled is not None:
            return self._compiled.run(until_ps=until_ps, max_events=max_events)
        delivered = 0
        queue = self._queue
        trace = self.trace
        try:
            while queue:
                time_ps, _seq, component, port = queue[0]
                if time_ps > until_ps:
                    break
                if delivered >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; oscillating netlist?")
                heapq.heappop(queue)
                self.now_ps = time_ps
                if trace is not None:
                    trace.append((time_ps, component.name, port))
                component.on_pulse(port, time_ps)
                delivered += 1
        finally:
            self._delivered += delivered
        if not queue and until_ps != float("inf"):
            self.now_ps = until_ps
        return delivered

    def run_lanes(self, stimuli: "List[LaneStimulus]",
                  trace: bool = False,
                  on_error: str = "record") -> "List[LaneOutcome]":
        """Replay this netlist across many stimulus lanes.

        Each :class:`~repro.pulse.batched.LaneStimulus` (usually recorded
        with :func:`~repro.pulse.batched.capture_stimulus`) is an
        independent run from the engine's *current* state, replayed lane
        by lane on the compiled engine
        (:func:`~repro.pulse.batched.run_lanes`).  The engine's own
        state is untouched; use
        :func:`~repro.pulse.batched.install_lane` to load one lane's
        final state back for white-box inspection.
        """
        from repro.pulse import batched

        return batched.run_lanes(self.compile(), stimuli, trace=trace,
                                 on_error=on_error)

    @property
    def pending_events(self) -> int:
        if self._compiled is not None:
            return self._compiled.pending_events
        return len(self._queue)

    @property
    def total_delivered(self) -> int:
        return self._delivered

    def reset_all_state(self) -> None:
        """Reset every registered component to its power-on state."""
        if self._compiled is not None:
            self._compiled.reset_all_state()
            return
        for component in self._components.values():
            component.reset_state()
