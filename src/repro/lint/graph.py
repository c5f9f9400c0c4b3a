"""Representation-neutral circuit-graph IR and the pulse-engine adapter.

The analyzer does not walk :class:`repro.pulse.Engine` netlists directly;
it first lowers them into a :class:`CircuitGraph` - named nodes with typed
ports, directed edges carrying wire delay, internal propagation *arcs*
(which input pin forwards a pulse to which output pin, and how late), and
a set of *external* ports where test-bench stimulus enters.  Structural
and timing rules run over this IR, so other front-ends (the Verilog and
SPICE parsers of :mod:`repro.interchange`) only need an adapter, not new
rules.

Every cell kind is one :class:`CellSpec` row in :data:`CELL_SPECS`: its
pulse class (which declares the pins), interchange cell name, node
class, arcs, clock and data ports, delay attribute and parameters.
:func:`build_node` builds every graph node from its row, both for a
lowered engine component and for a parsed interchange instance, so a
new kind needs its pulse class and one row to be linted, emitted,
parsed and LVS-checked.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.pulse.counters import TFF, PulseCounter
from repro.pulse.engine import Component, Engine
from repro.pulse.logic import ClockedGate
from repro.pulse.monitor import Probe
from repro.pulse.primitives import DAND, JTL, PTL, Merger, Sink, Splitter
from repro.pulse.storage import DRO, HCDRO, NDRO, NDROC


class NodeClass(enum.Enum):
    """Coarse functional category used by the structural rules."""

    INTERCONNECT = "interconnect"
    STORAGE = "storage"
    LOGIC = "logic"
    SINK = "sink"
    OTHER = "other"


@dataclass(frozen=True)
class PortRef:
    """One pin: a node name plus a port name."""

    node: str
    port: str

    def __str__(self) -> str:
        return f"{self.node}.{self.port}"


@dataclass(frozen=True)
class Edge:
    """A directed wire from an output pin to an input pin."""

    src: PortRef
    dst: PortRef
    delay_ps: float = 0.0


@dataclass(frozen=True)
class Arc:
    """Internal pulse propagation: input pin -> output pin with delay."""

    in_port: str
    out_port: str
    delay_ps: float


@dataclass
class GraphNode:
    """One circuit element in the IR."""

    name: str
    kind: str
    node_class: NodeClass
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    arcs: tuple[Arc, ...] = ()
    #: Pins that act as a clock / read strobe (evaluation triggers).
    clock_ports: frozenset = frozenset()
    #: Pins that arm internal state without directly producing output.
    data_ports: frozenset = frozenset()
    #: Cell-specific constraints (dead_time_ps, hold_window_ps, ...).
    params: dict = field(default_factory=dict)


class CircuitGraph:
    """Nodes + wires + external stimulus ports, with pin-level indexes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: dict[str, GraphNode] = {}
        self.edges: list[Edge] = []
        self.externals: set[PortRef] = set()
        self._in_edges: dict[PortRef, list[Edge]] = {}
        self._out_edges: dict[PortRef, list[Edge]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: GraphNode) -> GraphNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def add_edge(self, src: PortRef, dst: PortRef, delay_ps: float = 0.0) -> Edge:
        """Add a wire.  Unlike the engine, the IR accepts *illegal* wiring
        (double-driven pins, fanned-out outputs) - expressing violations is
        exactly what the rules need."""
        edge = Edge(src, dst, delay_ps)
        self.edges.append(edge)
        self._out_edges.setdefault(src, []).append(edge)
        self._in_edges.setdefault(dst, []).append(edge)
        return edge

    def mark_external(self, ref: PortRef) -> None:
        self.externals.add(ref)

    # -- queries -----------------------------------------------------------

    def drivers(self, ref: PortRef) -> list[Edge]:
        """Wires ending at input pin ``ref``."""
        return self._in_edges.get(ref, [])

    def fanout(self, ref: PortRef) -> list[Edge]:
        """Wires starting at output pin ``ref``."""
        return self._out_edges.get(ref, [])

    def input_refs(self, node: GraphNode) -> list[PortRef]:
        return [PortRef(node.name, p) for p in node.inputs]

    def output_refs(self, node: GraphNode) -> list[PortRef]:
        return [PortRef(node.name, p) for p in node.outputs]

    def __repr__(self) -> str:
        return (f"CircuitGraph({self.name!r}, nodes={len(self.nodes)}, "
                f"edges={len(self.edges)})")


# ---------------------------------------------------------------------------
# The cell table and the pulse-engine adapter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One SFQ cell kind, as lint lowers it and the interchange formats
    emit and parse it.  Pins come from the pulse class."""

    component: type[Component]
    kind: str
    #: Canonical interchange cell name.
    cell_name: str
    node_class: NodeClass
    #: ``(in_pin, out_pin)`` propagation arcs, all with the cell's delay.
    arcs: tuple[tuple[str, str], ...] = ()
    clock_ports: tuple[str, ...] = ()
    data_ports: tuple[str, ...] = ()
    #: Component attribute holding the arc delay, which is also its
    #: interchange parameter; ``None`` gives zero-delay arcs.
    delay_param: str | None = "delay_ps"
    #: ``(graph key, component attribute)`` of each float parameter.
    float_params: tuple[tuple[str, str], ...] = ()
    #: ``(graph key, component attribute)`` of each structural integer.
    int_params: tuple[tuple[str, str], ...] = ()
    #: One clock pulse exits one output, never both, so paths through
    #: different outputs cannot race: the timing pass re-originates
    #: arrival windows at each output instead of forwarding the origin.
    exclusive_routing: bool = False

    def ports(self, params: Mapping[str, float | int]
              ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Declaration-order ``(inputs, outputs)`` for one instance."""
        outputs = self.component.OUTPUTS
        if self.kind == "counter":
            outputs = tuple(f"b{i}" for i in range(int(params.get("bits", 2))))
        return self.component.INPUTS, outputs


#: Every known cell kind; a component lowers by its first matching row.
CELL_SPECS: tuple[CellSpec, ...] = (
    CellSpec(Splitter, "splitter", "SFQ_SPLITTER", NodeClass.INTERCONNECT,
             arcs=(("in", "out0"), ("in", "out1"))),
    CellSpec(Merger, "merger", "SFQ_MERGER", NodeClass.INTERCONNECT,
             arcs=(("in0", "out"), ("in1", "out")),
             float_params=(("dead_time_ps", "dead_time_ps"),)),
    CellSpec(JTL, "jtl", "SFQ_JTL", NodeClass.INTERCONNECT,
             arcs=(("in", "out"),)),
    CellSpec(PTL, "ptl", "SFQ_PTL", NodeClass.INTERCONNECT,
             arcs=(("in", "out"),)),
    CellSpec(Probe, "probe", "SFQ_PROBE", NodeClass.INTERCONNECT,
             arcs=(("in", "out"),), delay_param=None),
    CellSpec(Sink, "sink", "SFQ_SINK", NodeClass.SINK, delay_param=None),
    CellSpec(DAND, "dand", "SFQ_DAND", NodeClass.LOGIC,
             arcs=(("a", "out"), ("b", "out")), data_ports=("a", "b"),
             float_params=(("hold_window_ps", "hold_window_ps"),)),
    CellSpec(ClockedGate, "clocked_gate", "SFQ_CLOCKED_GATE", NodeClass.LOGIC,
             arcs=(("clk", "out"),), clock_ports=("clk",),
             data_ports=("a", "b"), int_params=(("arity", "ARITY"),)),
    CellSpec(DRO, "dro", "SFQ_DRO", NodeClass.STORAGE,
             arcs=(("clk", "q"),), clock_ports=("clk",), data_ports=("d",),
             delay_param="clk_to_q_ps"),
    CellSpec(HCDRO, "hcdro", "SFQ_HCDRO", NodeClass.STORAGE,
             arcs=(("clk", "q"),), clock_ports=("clk",), data_ports=("d",),
             delay_param="clk_to_q_ps",
             float_params=(("min_spacing_ps", "min_pulse_spacing_ps"),)),
    CellSpec(NDROC, "ndroc", "SFQ_NDROC", NodeClass.STORAGE,
             arcs=(("clk", "out0"), ("clk", "out1")), clock_ports=("clk",),
             data_ports=("set", "reset"), delay_param="propagation_ps",
             float_params=(("min_separation_ps", "min_clk_separation_ps"),),
             exclusive_routing=True),
    CellSpec(NDRO, "ndro", "SFQ_NDRO", NodeClass.STORAGE,
             arcs=(("clk", "out"),), clock_ports=("clk",),
             data_ports=("set", "reset"), delay_param="clk_to_q_ps"),
    CellSpec(TFF, "tff", "SFQ_TFF", NodeClass.STORAGE,
             arcs=(("t", "carry"), ("read", "q")), clock_ports=("read",),
             data_ports=("t", "reset")),
    # Arcs from ``read`` to each of the ``bits`` outputs b0, b1, ...
    CellSpec(PulseCounter, "counter", "SFQ_COUNTER", NodeClass.STORAGE,
             clock_ports=("read",), data_ports=("in", "reset"),
             int_params=(("bits", "bits"),)),
)

SPECS_BY_KIND: dict[str, CellSpec] = {spec.kind: spec for spec in CELL_SPECS}


def build_node(kind: str, name: str,
               params: Mapping[str, float | int]) -> GraphNode:
    """One graph node of ``kind`` from its instance parameters.

    Lowered engine components and parsed interchange instances both go
    through here, so the SFQ001-SFQ016 catalog sees them identically.
    """
    spec = SPECS_BY_KIND[kind]
    inputs, outputs = spec.ports(params)
    delay = float(params.get(spec.delay_param, 0.0)) \
        if spec.delay_param is not None else 0.0
    arcs, data = spec.arcs, spec.data_ports
    if kind == "counter":
        arcs = tuple(("read", out) for out in outputs)
    elif kind == "clocked_gate":
        data = data[:int(params.get("arity", len(data)))]
    constraints: dict[str, float | bool] = {
        key: float(params.get(key, 0.0)) for key, _attr in spec.float_params}
    if spec.exclusive_routing:
        constraints["exclusive_routing"] = True
    return GraphNode(name, kind, spec.node_class, inputs, outputs,
                     arcs=tuple(Arc(i, o, delay) for i, o in arcs),
                     clock_ports=frozenset(spec.clock_ports),
                     data_ports=frozenset(data), params=constraints)


def _lower_component(comp: Component) -> GraphNode:
    """Classify one pulse component into the IR vocabulary."""
    for spec in CELL_SPECS:
        if isinstance(comp, spec.component):
            attrs = spec.float_params + spec.int_params
            if spec.delay_param is not None:
                attrs += ((spec.delay_param, spec.delay_param),)
            return build_node(spec.kind, comp.name,
                              {key: getattr(comp, attr) for key, attr in attrs})
    # Unknown component type: all-to-all propagation, clock pin by name.
    inputs = tuple(comp.INPUTS)
    outputs = tuple(comp.OUTPUTS)
    delay = float(getattr(comp, "delay_ps", 0.0))
    arcs = tuple(Arc(i, o, delay) for i in inputs for o in outputs)
    clock = frozenset({p for p in inputs if p in ("clk", "read")})
    return GraphNode(comp.name, type(comp).__name__.lower(), NodeClass.OTHER,
                     inputs, outputs, arcs=arcs, clock_ports=clock,
                     data_ports=frozenset(inputs) - clock)


def graph_from_engine(engine: Engine, name: str,
                      externals: Iterable = ()) -> CircuitGraph:
    """Lower a registered pulse-engine netlist into the IR.

    ``externals`` lists the stimulus entry pins, each either a
    :class:`PortRef` or a ``(component, port_name)`` pair as returned by
    the builders' ``external_inputs()`` methods.
    """
    graph = CircuitGraph(name)
    for comp in engine.components():
        graph.add_node(_lower_component(comp))
    for comp in engine.components():
        for out_port in comp.OUTPUTS:
            wire = comp.wire_for(out_port)
            if wire is None:
                continue
            graph.add_edge(PortRef(comp.name, out_port),
                           PortRef(wire.sink.name, wire.sink_port),
                           wire.delay_ps)
    for entry in externals:
        if isinstance(entry, PortRef):
            graph.mark_external(entry)
        else:
            comp, port = entry
            graph.mark_external(PortRef(comp.name, port))
    return graph
