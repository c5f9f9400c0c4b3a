"""Cell table, mapper and node round-trip fidelity."""

import pytest

from repro.interchange import (
    CellMap,
    InterchangeError,
    build_node,
    cell_spec,
    fmt_value,
    node_params,
    round_trip_lvs,
)
from repro.interchange.cells import SPECS_BY_KIND, parse_value
from repro.lint.graph import CELL_SPECS, Arc, GraphNode, NodeClass, graph_from_engine
from repro.pulse import Engine
from repro.pulse.counters import TFF, PulseCounter
from repro.pulse.logic import ClockedAnd, ClockedNot
from repro.pulse.monitor import Probe
from repro.pulse.primitives import DAND, JTL, PTL, Merger, Sink, Splitter
from repro.pulse.storage import DRO, HCDRO, NDRO, NDROC


def _one_of_each_engine():
    engine = Engine()
    engine.add(Splitter("u.split", delay_ps=5.0))
    engine.add(Merger("u.merge", delay_ps=3.0, dead_time_ps=7.0))
    engine.add(JTL("u.jtl", delay_ps=2.5))
    engine.add(PTL("u.ptl", length_um=250.0))
    engine.add(Probe("u.probe"))
    engine.add(Sink("u.sink"))
    engine.add(DAND("u.dand"))
    engine.add(ClockedAnd("u.and2"))
    engine.add(ClockedNot("u.not1"))
    engine.add(DRO("u.dro"))
    engine.add(HCDRO("u.hcdro"))
    engine.add(NDRO("u.ndro"))
    engine.add(NDROC("u.ndroc"))
    engine.add(TFF("u.tff"))
    engine.add(PulseCounter("u.cnt", bits=3))
    return engine


def _node(name, kind, node_class, inputs, outputs, arcs=(), clock=(),
          data=(), **params):
    return GraphNode(name, kind, node_class, inputs, outputs,
                     arcs=tuple(Arc(*arc) for arc in arcs),
                     clock_ports=frozenset(clock), data_ports=frozenset(data),
                     params=params)


#: Every node of ``_one_of_each_engine`` as the lowering must produce it,
#: written out literally (the default cell delays and constraints).
_LOWERED = (
    _node("u.split", "splitter", NodeClass.INTERCONNECT, ("in",),
          ("out0", "out1"), arcs=(("in", "out0", 5.0), ("in", "out1", 5.0))),
    _node("u.merge", "merger", NodeClass.INTERCONNECT, ("in0", "in1"),
          ("out",), arcs=(("in0", "out", 3.0), ("in1", "out", 3.0)),
          dead_time_ps=7.0),
    _node("u.jtl", "jtl", NodeClass.INTERCONNECT, ("in",), ("out",),
          arcs=(("in", "out", 2.5),)),
    _node("u.ptl", "ptl", NodeClass.INTERCONNECT, ("in",), ("out",),
          arcs=(("in", "out", 2.5),)),
    _node("u.probe", "probe", NodeClass.INTERCONNECT, ("in",), ("out",),
          arcs=(("in", "out", 0.0),)),
    _node("u.sink", "sink", NodeClass.SINK, ("in",), ()),
    _node("u.dand", "dand", NodeClass.LOGIC, ("a", "b"), ("out",),
          arcs=(("a", "out", 5.0), ("b", "out", 5.0)), data=("a", "b"),
          hold_window_ps=10.0),
    _node("u.and2", "clocked_gate", NodeClass.LOGIC, ("a", "b", "clk"),
          ("out",), arcs=(("clk", "out", 5.0),), clock=("clk",),
          data=("a", "b")),
    _node("u.not1", "clocked_gate", NodeClass.LOGIC, ("a", "b", "clk"),
          ("out",), arcs=(("clk", "out", 5.0),), clock=("clk",),
          data=("a",)),
    _node("u.dro", "dro", NodeClass.STORAGE, ("d", "clk"), ("q",),
          arcs=(("clk", "q", 5.8),), clock=("clk",), data=("d",)),
    _node("u.hcdro", "hcdro", NodeClass.STORAGE, ("d", "clk"), ("q",),
          arcs=(("clk", "q", 5.8),), clock=("clk",), data=("d",),
          min_spacing_ps=10.0),
    _node("u.ndro", "ndro", NodeClass.STORAGE, ("set", "reset", "clk"),
          ("out",), arcs=(("clk", "out", 5.8),), clock=("clk",),
          data=("set", "reset")),
    _node("u.ndroc", "ndroc", NodeClass.STORAGE, ("set", "reset", "clk"),
          ("out0", "out1"),
          arcs=(("clk", "out0", 24.0), ("clk", "out1", 24.0)),
          clock=("clk",), data=("set", "reset"), min_separation_ps=53.0,
          exclusive_routing=True),
    _node("u.tff", "tff", NodeClass.STORAGE, ("t", "read", "reset"),
          ("carry", "q"), arcs=(("t", "carry", 5.0), ("read", "q", 5.0)),
          clock=("read",), data=("t", "reset")),
    _node("u.cnt", "counter", NodeClass.STORAGE, ("in", "read", "reset"),
          ("b0", "b1", "b2"),
          arcs=(("read", "b0", 10.0), ("read", "b1", 10.0),
                ("read", "b2", 10.0)),
          clock=("read",), data=("in", "reset")),
)


@pytest.mark.parametrize("expected", _LOWERED, ids=lambda node: node.name)
def test_lowering_pins_every_kind(expected):
    """Kind, class, pins, arcs with delays, port classes and params of
    every lowered node, against literal expectations (not the builder)."""
    graph = graph_from_engine(_one_of_each_engine(), "unit")
    assert list(graph.nodes) == [node.name for node in _LOWERED]
    assert graph.nodes[expected.name] == expected


def test_jtl_subclass_lowers_emits_and_parses_as_jtl():
    """A JTL subclass is a JTL to lint and interchange, as a DRO
    subclass is a DRO."""

    class SlowJTL(JTL):
        pass

    engine = Engine()
    slow = engine.add(SlowJTL("u.slow", delay_ps=9.0))
    sink = engine.add(Sink("u.sink"))
    slow.connect("out", sink, "in")
    graph = graph_from_engine(engine, "slow", [(slow, "in")])
    assert graph.nodes["u.slow"] == _node(
        "u.slow", "jtl", NodeClass.INTERCONNECT, ("in",), ("out",),
        arcs=(("in", "out", 9.0),))
    for fmt in ("verilog", "spice"):
        report = round_trip_lvs(graph, fmt)
        assert report.ok, report.render()
        assert report.matched == 2


@pytest.mark.parametrize("spec", CELL_SPECS, ids=lambda spec: spec.kind)
def test_table_pins_are_pins_of_the_pulse_class(spec):
    inputs = set(spec.component.INPUTS)
    assert {pin for pin, _out in spec.arcs} <= inputs
    assert {out for _pin, out in spec.arcs} <= set(spec.component.OUTPUTS)
    assert set(spec.clock_ports) <= inputs
    assert set(spec.data_ports) <= inputs
    assert SPECS_BY_KIND[spec.kind] is spec


@pytest.mark.parametrize("kind", sorted(SPECS_BY_KIND))
def test_every_kind_has_canonical_cell_name(kind):
    spec = cell_spec(kind)
    assert spec.cell_name.startswith("SFQ_")
    assert CellMap().resolve(spec.cell_name) == kind


def test_build_node_reproduces_every_lowered_node():
    """The cornerstone contract: build_node(node_params(n)) == n."""
    graph = graph_from_engine(_one_of_each_engine(), "unit")
    assert len(graph.nodes) == 15
    for node in graph.nodes.values():
        rebuilt = build_node(node.kind, node.name, node_params(node))
        assert rebuilt == node, node.name


def test_counter_ports_follow_bits_param():
    spec = cell_spec("counter")
    inputs, outputs = spec.ports({"bits": 4})
    assert inputs == ("in", "read", "reset")
    assert outputs == ("b0", "b1", "b2", "b3")
    node = build_node("counter", "c", {"bits": 4, "delay_ps": 1.5})
    assert node.outputs == outputs
    assert len(node.arcs) == 4
    assert node_params(node)["bits"] == 4


def test_unary_clocked_gate_data_ports_follow_arity():
    unary = build_node("clocked_gate", "g", {"arity": 1})
    binary = build_node("clocked_gate", "g", {"arity": 2})
    assert unary.data_ports == frozenset({"a"})
    assert binary.data_ports == frozenset({"a", "b"})
    assert node_params(unary)["arity"] == 1


def test_non_uniform_arc_delays_are_rejected():
    node = build_node("tff", "t", {"delay_ps": 2.0})
    node.arcs = (node.arcs[0], type(node.arcs[0])("read", "q", 9.0))
    with pytest.raises(InterchangeError, match="non-uniform"):
        node_params(node)


def test_cellmap_aliases_resolve_case_insensitively():
    cmap = CellMap()
    assert cmap.resolve("splitt") == "splitter"
    assert cmap.resolve("DFFT") == "dro"
    assert cmap.resolve("cbuff") == "merger"
    assert cmap.resolve("NOPE") is None


def test_cellmap_register_alias_validates_kind():
    cmap = CellMap()
    cmap.register_alias("ACME_SPL", "splitter")
    assert cmap.resolve("acme_spl") == "splitter"
    with pytest.raises(InterchangeError):
        cmap.register_alias("X", "not_a_kind")


def test_fmt_value_is_a_fixed_point():
    for value in (0.0, 5.0, 2.3, 1 / 3, 6.625, 1e-4, 53.0, 0.30000000000004):
        once = fmt_value(value)
        again = fmt_value(float(parse_value(once)))
        assert once == again, value
    assert fmt_value(7) == "7"
    assert fmt_value(True) == "1"


def test_unknown_kind_raises_with_catalog():
    with pytest.raises(InterchangeError, match="known kinds"):
        cell_spec("flux_capacitor")
