"""The interchange view of the cell table, and the cell-name mapper.

Both emitters (Verilog / SPICE) and both parsers share one vocabulary,
the :data:`repro.lint.graph.CELL_SPECS` table that lint lowering also
reads: per graph ``kind`` the canonical interchange cell, its port list
in declaration order, and which parameters travel with an instance.
Foreign netlists rarely use our canonical names, so a :class:`CellMap`
resolves external cell names (RSFQlib-style ``SPLITT``, ``DFFT``,
``NDROT``, ...) onto the same rows; anything it cannot resolve surfaces
as rule SFQ018 (unmapped-foreign-cell).

Round-trip fidelity contract: for any node lowered by
:func:`repro.lint.graph.graph_from_engine`,
``build_node(node.kind, node.name, node_params(node))`` reproduces the
node exactly (same arcs, port classes and params).  Lowering itself
calls :func:`~repro.lint.graph.build_node` on the parameters it reads
off the component, which is what makes emit -> parse -> LVS a
zero-mismatch identity on the built designs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.graph import (
    CELL_SPECS,
    SPECS_BY_KIND,
    CellSpec,
    CircuitGraph,
    GraphNode,
    NodeClass,
)
from repro.lint.graph import build_node as build_node  # re-export


class InterchangeError(Exception):
    """A graph cannot be emitted, or a netlist cannot be parsed."""


def fmt_value(value: float | int | bool) -> str:
    """Canonical parameter formatting shared by both emitters.

    ``%.9g`` is a fixed point after one round-trip: a decimal with at
    most nine significant digits parses to a double that re-formats to
    the same string, so emit -> parse -> emit is byte-stable.
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def parse_value(text: str) -> float | int:
    """Inverse of :func:`fmt_value` for netlist parameter tokens."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            raise InterchangeError(f"bad parameter value {text!r}") from None


def cell_spec(kind: str) -> CellSpec:
    try:
        return SPECS_BY_KIND[kind]
    except KeyError:
        known = ", ".join(sorted(SPECS_BY_KIND))
        raise InterchangeError(
            f"no interchange cell for graph kind {kind!r}; "
            f"known kinds: {known}") from None


def node_params(node: GraphNode) -> dict[str, float | int]:
    """Instance parameters for one graph node, in emission order.

    The internal arc delay is required to be uniform (it always is for
    nodes lowered from the pulse engine); a non-uniform node cannot be
    expressed as a single interchange instance.
    """
    spec = cell_spec(node.kind)
    params: dict[str, float | int] = {}
    if spec.delay_param is not None:
        delays = {arc.delay_ps for arc in node.arcs}
        if len(delays) > 1:
            raise InterchangeError(
                f"{node.name}: non-uniform arc delays {sorted(delays)} "
                "cannot be expressed as one interchange parameter")
        params[spec.delay_param] = delays.pop() if delays else 0.0
    for key, _attr in spec.float_params:
        params[key] = float(node.params.get(key, 0.0))
    if node.kind == "counter":
        params["bits"] = len(node.outputs)
    elif node.kind == "clocked_gate":
        params["arity"] = len(node.data_ports)
    return params


def foreign_node(name: str, cell_name: str,
                 pins: tuple[str, ...]) -> GraphNode:
    """An opaque node for an instance whose cell name did not resolve.

    Pin directions are unknowable, so every connected pin is treated as
    an input; the instance is flagged separately via SFQ018.
    """
    return GraphNode(name, cell_name.lower(), NodeClass.OTHER, pins, ())


#: RSFQlib-shaped external cell names the default mapper understands.
DEFAULT_ALIASES: dict[str, str] = {
    "SPLIT": "splitter", "SPLITT": "splitter", "SPL": "splitter",
    "MERGE": "merger", "MERGET": "merger", "CBUFF": "merger",
    "CBUFFT": "merger",
    "JTL": "jtl", "JTLT": "jtl",
    "PTL": "ptl", "PTLTX": "ptl",
    "DFF": "dro", "DFFT": "dro", "DROT": "dro", "DRO": "dro",
    "HCDRO": "hcdro",
    "NDRO": "ndro", "NDROT": "ndro",
    "NDROC": "ndroc", "NDROCT": "ndroc",
    "TFF": "tff", "TFFT": "tff",
    "DAND": "dand", "DANDT": "dand",
    "AND2T": "clocked_gate", "OR2T": "clocked_gate",
    "XOR2T": "clocked_gate", "NOTT": "clocked_gate",
    "BUFFT": "clocked_gate",
    "SINK": "sink", "SINKT": "sink",
}


class CellMap:
    """Cell-name resolution table for parsing external netlists.

    Canonical interchange names (``SFQ_SPLITTER``, ...) always resolve;
    aliases map foreign library names onto the same kinds.  Lookup is
    case-insensitive, as SPICE netlists are.
    """

    def __init__(self, aliases: dict[str, str] | None = None, *,
                 include_defaults: bool = True) -> None:
        self._table: dict[str, str] = {}
        for spec in CELL_SPECS:
            self._table[spec.cell_name.upper()] = spec.kind
        if include_defaults:
            for alias, kind in DEFAULT_ALIASES.items():
                self.register_alias(alias, kind)
        if aliases:
            for alias, kind in aliases.items():
                self.register_alias(alias, kind)

    def register_alias(self, cell_name: str, kind: str) -> None:
        cell_spec(kind)  # validate the target kind exists
        self._table[cell_name.upper()] = kind

    def resolve(self, cell_name: str) -> str | None:
        """Graph kind for an external cell name, or ``None``."""
        return self._table.get(cell_name.upper())

    def cell_name(self, kind: str) -> str:
        """Canonical interchange cell name for a graph kind."""
        return cell_spec(kind).cell_name


DEFAULT_CELLMAP = CellMap()


@dataclass
class ParseResult:
    """One module/subcircuit parsed back into the IR."""

    graph: CircuitGraph
    #: ``(instance, cell_name)`` pairs the mapper could not resolve.
    unknown_cells: tuple[tuple[str, str], ...]
    fmt: str
