"""Metric graphs: vertices, edges with lengths and coefficients.

A metric graph is a combinatorial graph whose edges carry a length, a
diffusion coefficient c > 0, and a potential p >= 0.  Each edge is stored
with a canonical tail/head orientation that only fixes the coordinate
chart x in [0, length] (x = 0 at the tail); the graph itself is
undirected.  Degree counts endpoint incidences, so a self-loop adds two
to the degree of its vertex.  Boundary vertices are those of degree one.
A MetricGraph is checked once, when it is built, so everything
downstream may take it to be connected and well formed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    InvalidGraphError,
    NotATreeError,
    SameVertexError,
    UnknownVertexError,
)

__all__ = [
    "Coefficient",
    "Edge",
    "MetricGraph",
    "GraphClass",
    "validate",
    "classify",
    "unique_path",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
    "interval_graph",
    "path_graph",
    "star_graph",
    "lasso_graph",
    "star_center",
]


@dataclass(frozen=True)
class Coefficient:
    """Edge coefficient: a constant, or samples on a uniform grid.

    interpolation "constant": one value everywhere.
    interpolation "linear": samples at uniformly spaced nodes spanning
    [0, length], evaluated by linear interpolation (diffusion).
    interpolation "cells": samples on uniform cells, piecewise constant
    (potential).
    """

    values: tuple[float, ...]
    interpolation: str = "constant"

    @classmethod
    def const(cls, value: float) -> "Coefficient":
        return cls((float(value),), "constant")

    @classmethod
    def linear_samples(cls, values) -> "Coefficient":
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise ValueError("linear samples need at least two nodes")
        return cls(vals, "linear")

    @classmethod
    def cell_samples(cls, values) -> "Coefficient":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("cell samples cannot be empty")
        return cls(vals, "cells")

    @property
    def is_constant(self) -> bool:
        return self.interpolation == "constant"

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ValueError("coefficient is not constant")
        return self.values[0]

    def minimum(self) -> float:
        return min(self.values)

    def maximum(self) -> float:
        return max(self.values)

    def at(self, x, length: float):
        """Evaluate at coordinates x (scalar or array) on [0, length]."""
        x = np.asarray(x, dtype=float)
        if self.interpolation == "constant":
            return np.full_like(x, self.values[0])
        if self.interpolation == "linear":
            grid = np.linspace(0.0, length, len(self.values))
            return np.interp(x, grid, np.asarray(self.values))
        # piecewise constant on uniform cells
        ncell = len(self.values)
        idx = np.clip((x / length * ncell).astype(int), 0, ncell - 1)
        return np.asarray(self.values)[idx]

    def to_json(self):
        if self.is_constant:
            return self.values[0]
        return {"samples": list(self.values), "grid": "uniform"}


def _coefficient_from_json(raw, sampled_kind: str, default: float) -> Coefficient:
    if raw is None:
        return Coefficient.const(default)
    if isinstance(raw, (int, float)):
        return Coefficient.const(float(raw))
    if isinstance(raw, dict) and "samples" in raw:
        if raw.get("grid", "uniform") != "uniform":
            raise InvalidGraphError([f"unsupported coefficient grid {raw.get('grid')!r}"])
        if sampled_kind == "linear":
            return Coefficient.linear_samples(raw["samples"])
        return Coefficient.cell_samples(raw["samples"])
    raise InvalidGraphError([f"cannot parse coefficient {raw!r}"])


@dataclass(frozen=True)
class Edge:
    """One metric edge. tail/head fix the chart: x = 0 at the tail."""

    id: str
    tail: str
    head: str
    length: float
    diffusion: Coefficient = Coefficient.const(1.0)
    potential: Coefficient = Coefficient.const(0.0)


class GraphClass(Enum):
    TREE = "Tree"
    HAS_LOOP = "HasLoop"
    GENERAL_WITH_CYCLE = "GeneralWithCycle"


@dataclass(frozen=True)
class MetricGraph:
    """Valid by construction: building one runs `validate` and raises
    InvalidGraphError listing every violation."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        violations = validate(self)
        if violations:
            raise InvalidGraphError(violations)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def incidence(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Per-vertex ordered list of (edge id, endpoint in {tail, head}).

        A self-loop contributes both its endpoints, so it shows up twice.
        """
        inc: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.tail in inc:
                inc[e.tail].append((e.id, "tail"))
            if e.head in inc:
                inc[e.head].append((e.id, "head"))
        return {v: tuple(slots) for v, slots in inc.items()}

    def degree(self, v: str) -> int:
        return len(self.incidence[v])

    @cached_property
    def boundary_vertices(self) -> tuple[str, ...]:
        """Vertices of degree one, in declaration order."""
        return tuple(v for v in self.vertices if self.degree(v) == 1)

    @cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """v -> tuple of (edge id, other endpoint) for traversal."""
        adj: dict[str, list[tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.tail in adj and e.head in adj:
                adj[e.tail].append((e.id, e.head))
                adj[e.head].append((e.id, e.tail))
        return {v: tuple(s) for v, s in adj.items()}

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self.edge_index[edge_id]]


# -- validation and classification ------------------------------------------

def validate(graph: MetricGraph) -> list[str]:
    """Structural checks. Returns a list of violations, empty when valid.

    MetricGraph runs it on itself when built, so a graph in hand always
    passes; the list is what InvalidGraphError carries.
    """
    report: list[str] = []
    seen_v = set()
    for v in graph.vertices:
        if v in seen_v:
            report.append(f"duplicate vertex id {v!r}")
        seen_v.add(v)
    seen_e = set()
    for e in graph.edges:
        if e.id in seen_e:
            report.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        for endpoint in (e.tail, e.head):
            if endpoint not in seen_v:
                report.append(f"edge {e.id!r}: unknown endpoint {endpoint!r}")
        if not np.isfinite(e.length):
            report.append(f"edge {e.id!r}: non-finite length {e.length}")
        elif e.length <= 0.0:
            report.append(f"edge {e.id!r}: nonpositive length {e.length}")
        for name, coeff in (("diffusion", e.diffusion), ("potential", e.potential)):
            if not np.all(np.isfinite(coeff.values)):
                report.append(f"edge {e.id!r}: non-finite {name} value")
        if e.diffusion.minimum() <= 0.0:
            report.append(f"edge {e.id!r}: nonpositive diffusion")
        if e.potential.minimum() < 0.0:
            report.append(f"edge {e.id!r}: negative potential")
    if not graph.vertices:
        report.append("graph has no vertices")
        return report
    for v in graph.vertices:
        if graph.degree(v) < 1:
            report.append(f"vertex {v!r} is isolated (degree 0)")
    if len(_breadth_first(graph, graph.vertices[0])[3]) != graph.n:
        report.append("graph is disconnected")
    return report


def _breadth_first(graph: MetricGraph, root: str):
    """Breadth-first search from root over the undirected structure.

    Returns parent pointers, parent edges, children lists and the visit
    order (root first) of the component of root; on a tree this is the
    tree rooted at root.
    """
    parent: dict[str, str] = {}
    parent_edge: dict[str, str] = {}
    children: dict[str, list[str]] = {v: [] for v in graph.vertices}
    order: list[str] = [root]
    seen = {root}
    for u in order:  # order grows while it is read: a FIFO queue
        for eid, w in graph.adjacency[u]:
            if w not in seen:
                seen.add(w)
                parent[w] = u
                parent_edge[w] = eid
                children[u].append(w)
                order.append(w)
    return parent, parent_edge, children, order


def classify(graph: MetricGraph) -> GraphClass:
    """Tree / HasLoop / GeneralWithCycle.

    HasLoop means there is a cycle all of whose vertices, except possibly
    one attachment point, have degree two; such a cycle carries modes
    that vanish at every vertex.  Detection contracts maximal chains of
    degree-two vertices and looks for a self-loop in the result.  The
    graph was validated when it was built, so a connected graph with
    m = n - 1 edges is a tree.
    """
    if graph.m == graph.n - 1:
        return GraphClass.TREE
    if any(e.tail == e.head for e in graph.edges):
        return GraphClass.HAS_LOOP
    degrees = {v: graph.degree(v) for v in graph.vertices}
    hubs = [v for v in graph.vertices if degrees[v] != 2]
    if not hubs:
        # connected, every vertex degree two, m = n: a single cycle
        return GraphClass.HAS_LOOP
    # walk chains of degree-2 vertices between hubs; a chain returning to
    # its own hub is a contracted self-loop
    for h in hubs:
        for edge_id, endpoint in graph.incidence[h]:
            e = graph.edge(edge_id)
            cur = e.head if endpoint == "tail" else e.tail
            prev_slot = (edge_id, "head" if endpoint == "tail" else "tail")
            while degrees[cur] == 2:
                s0, s1 = graph.incidence[cur]
                nxt = s1 if s0 == prev_slot else s0
                ne = graph.edge(nxt[0])
                cur2 = ne.head if nxt[1] == "tail" else ne.tail
                prev_slot = (nxt[0], "head" if nxt[1] == "tail" else "tail")
                cur = cur2
            if cur == h:
                return GraphClass.HAS_LOOP
    return GraphClass.GENERAL_WITH_CYCLE


def unique_path(graph: MetricGraph, v: str, w: str) -> tuple[str, ...]:
    """The unique v-w path in a tree, as (v, e, ..., w) alternating ids."""
    if classify(graph) is not GraphClass.TREE:
        raise NotATreeError("unique_path requires a tree")
    for x in (v, w):
        if x not in graph.vertex_index:
            raise UnknownVertexError(f"unknown vertex {x!r}")
    if v == w:
        raise SameVertexError(f"path endpoints coincide: {v!r}")
    parent, parent_edge, _, _ = _breadth_first(graph, v)
    out = [w]
    while out[-1] != v:
        u = out[-1]
        out += [parent_edge[u], parent[u]]
    return tuple(reversed(out))


# -- JSON round trip ---------------------------------------------------------

def graph_to_dict(graph: MetricGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "length": e.length,
                "c": e.diffusion.to_json(),
                "p": e.potential.to_json(),
            }
            for e in graph.edges
        ],
    }


def graph_from_dict(data: dict) -> MetricGraph:
    try:
        vertices = tuple(str(v) for v in data["vertices"])
        edges = []
        for raw in data["edges"]:
            edges.append(
                Edge(
                    id=str(raw["id"]),
                    tail=str(raw["tail"]),
                    head=str(raw["head"]),
                    length=float(raw["length"]),
                    diffusion=_coefficient_from_json(raw.get("c"), "linear", 1.0),
                    potential=_coefficient_from_json(raw.get("p"), "cells", 0.0),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError([f"malformed graph data: {exc}"]) from exc
    return MetricGraph(vertices=vertices, edges=tuple(edges))


def load_graph(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_dict(json.load(fh))


def save_graph(graph: MetricGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2)
        fh.write("\n")


# -- builders ----------------------------------------------------------------

def _coeff_arg(value, count: int) -> list[Coefficient]:
    if isinstance(value, Coefficient):
        return [value] * count
    if isinstance(value, (int, float)):
        return [Coefficient.const(float(value))] * count
    vals = list(value)
    if len(vals) != count:
        raise ValueError("per-edge coefficient list has wrong length")
    return [v if isinstance(v, Coefficient) else Coefficient.const(float(v)) for v in vals]


def interval_graph(length: float = 1.0, c=1.0, p=0.0) -> MetricGraph:
    """A single edge from v0 to v1."""
    cs = _coeff_arg(c, 1)
    ps = _coeff_arg(p, 1)
    return MetricGraph(
        vertices=("v0", "v1"),
        edges=(Edge("e1", "v0", "v1", float(length), cs[0], ps[0]),),
    )


def path_graph(lengths, c=1.0, p=0.0) -> MetricGraph:
    """A chain v0 - v1 - ... - vk."""
    lengths = [float(x) for x in lengths]
    cs = _coeff_arg(c, len(lengths))
    ps = _coeff_arg(p, len(lengths))
    vertices = tuple(f"v{i}" for i in range(len(lengths) + 1))
    edges = tuple(
        Edge(f"e{i + 1}", f"v{i}", f"v{i + 1}", lengths[i], cs[i], ps[i])
        for i in range(len(lengths))
    )
    return MetricGraph(vertices, edges)


def star_graph(lengths, c=1.0, p=0.0) -> MetricGraph:
    """A star with center vc and leaves v1..vN.

    Edge ei runs from vi (tail, x = 0) to vc (head), so edge coordinates
    start at the boundary vertex.
    """
    lengths = [float(x) for x in lengths]
    cs = _coeff_arg(c, len(lengths))
    ps = _coeff_arg(p, len(lengths))
    vertices = ("vc",) + tuple(f"v{i + 1}" for i in range(len(lengths)))
    edges = tuple(
        Edge(f"e{i + 1}", f"v{i + 1}", "vc", lengths[i], cs[i], ps[i])
        for i in range(len(lengths))
    )
    return MetricGraph(vertices, edges)


def lasso_graph(loop_length: float = 1.0, tail_length: float = 0.8, c=1.0, p=0.0) -> MetricGraph:
    """A self-loop at v0 plus a pendant edge v0 - v1."""
    cs = _coeff_arg(c, 2)
    ps = _coeff_arg(p, 2)
    return MetricGraph(
        vertices=("v0", "v1"),
        edges=(
            Edge("loop", "v0", "v0", float(loop_length), cs[0], ps[0]),
            Edge("tail", "v0", "v1", float(tail_length), cs[1], ps[1]),
        ),
    )


def star_center(graph: MetricGraph) -> str | None:
    """The center vertex if the graph is a star with >= 2 edges, else None.

    A tree with a vertex on every edge is a star, and the graph is a tree
    when m = n - 1, since it was checked to be connected when built.
    """
    if graph.m < 2 or graph.n != graph.m + 1:
        return None
    return next((v for v in graph.vertices if graph.degree(v) == graph.m), None)
