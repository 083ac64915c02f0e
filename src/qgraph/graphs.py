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
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGraphError, QGraphValidationError

__all__ = [
    "Coefficient",
    "Edge",
    "MetricGraph",
    "validate",
    "unique_path",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
    "interval_graph",
    "path_graph",
    "star_graph",
    "lasso_graph",
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
            raise QGraphValidationError("linear samples need at least two nodes")
        return cls(vals, "linear")

    @classmethod
    def cell_samples(cls, values) -> "Coefficient":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise QGraphValidationError("cell samples cannot be empty")
        return cls(vals, "cells")

    @property
    def is_constant(self) -> bool:
        return self.interpolation == "constant"

    def minimum(self) -> float:
        return min(self.values)

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


def _parse(parse, *args, **kwargs):
    """parse(*args, **kwargs) of input text; text it rejects is invalid input,
    and so is a path that open rejects (one holding a NUL byte)."""
    try:
        return parse(*args, **kwargs)
    except (ValueError, RecursionError) as exc:
        raise QGraphValidationError(str(exc)) from exc


def _json_float(raw, what: str) -> float:
    """A JSON number as a float.  Booleans and strings are not numbers, and
    an integer too large for a float is out of range."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise QGraphValidationError(f"{what} must be a JSON number, got {raw!r:.40}")
    try:
        return float(raw)
    except OverflowError:
        raise QGraphValidationError(f"{what} is out of range for a float") from None


def _json_str(raw, what: str) -> str:
    """A JSON string, as vertex and edge ids must be."""
    if not isinstance(raw, str):
        raise QGraphValidationError(f"{what} must be a JSON string, got {raw!r:.40}")
    return raw


def _json_array(data: dict, key: str) -> list:
    """data[key], which must be a JSON array (KeyError when it is missing)."""
    raw = data[key]
    if not isinstance(raw, list):
        raise QGraphValidationError(f"{key} must be a JSON array, got {raw!r:.40}")
    return raw


def _check_object(raw, keys: frozenset[str], what: str) -> None:
    """raw must be a JSON object with no key outside keys."""
    if not isinstance(raw, dict):
        raise QGraphValidationError(f"{what} must be a JSON object, got {raw!r:.40}")
    unknown = raw.keys() - keys
    if unknown:
        raise QGraphValidationError(f"unknown key {min(unknown)!r} in {what}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """object_pairs_hook for json.load: a key given twice is an error, where
    json alone would keep the last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise QGraphValidationError(f"repeated JSON key {key!r}")
    return out


def _coefficient_from_json(raw, sampled_kind: str, default: float) -> Coefficient:
    if raw is None:
        return Coefficient.const(default)
    if isinstance(raw, dict) and "samples" in raw:
        _check_object(raw, frozenset({"samples", "grid"}), "coefficient")
        if raw.get("grid", "uniform") != "uniform":
            raise InvalidGraphError([f"unsupported coefficient grid {raw.get('grid')!r}"])
        samples = [_json_float(v, "coefficient sample") for v in raw["samples"]]
        if sampled_kind == "linear":
            return Coefficient.linear_samples(samples)
        return Coefficient.cell_samples(samples)
    return Coefficient.const(_json_float(raw, "coefficient"))


@dataclass(frozen=True)
class Edge:
    """One metric edge. tail/head fix the chart: x = 0 at the tail."""

    id: str
    tail: str
    head: str
    length: float
    diffusion: Coefficient = Coefficient.const(1.0)
    potential: Coefficient = Coefficient.const(0.0)


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

    @property
    def is_tree(self) -> bool:
        """A connected graph, as every MetricGraph is, is a tree exactly
        when it has one edge fewer than vertices."""
        return self.m == self.n - 1

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def _endpoint_counts(self) -> Counter:
        return Counter(x for e in self.edges for x in (e.tail, e.head))

    def degree(self, v: str) -> int:
        """Edge endpoints at v: a self-loop counts twice."""
        return self._endpoint_counts[v]

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


# -- validation and paths ----------------------------------------------------

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
        if not math.isfinite(e.length):
            report.append(f"edge {e.id!r}: non-finite length {e.length}")
        elif e.length <= 0.0:
            report.append(f"edge {e.id!r}: nonpositive length {e.length}")
        for name, coeff in (("diffusion", e.diffusion), ("potential", e.potential)):
            if not all(math.isfinite(v) for v in coeff.values):
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


def unique_path(graph: MetricGraph, v: str, w: str) -> tuple[str, ...]:
    """The unique v-w path in a tree, as (v, e, ..., w) alternating ids."""
    if not graph.is_tree:
        raise QGraphValidationError("unique_path requires a tree")
    for x in (v, w):
        if x not in graph.vertex_index:
            raise QGraphValidationError(f"unknown vertex {x!r}")
    if v == w:
        raise QGraphValidationError(f"path endpoints coincide: {v!r}")
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


_GRAPH_KEYS = frozenset({"vertices", "edges"})
_EDGE_KEYS = frozenset({"id", "tail", "head", "length", "c", "p"})


def graph_from_dict(data: dict) -> MetricGraph:
    try:
        _check_object(data, _GRAPH_KEYS, "graph")
        vertices = tuple(_json_str(v, "vertex id") for v in _json_array(data, "vertices"))
        edges = []
        for raw in _json_array(data, "edges"):
            _check_object(raw, _EDGE_KEYS, "edge")
            edges.append(
                Edge(
                    id=_json_str(raw["id"], "edge id"),
                    tail=_json_str(raw["tail"], "edge tail"),
                    head=_json_str(raw["head"], "edge head"),
                    length=_json_float(raw["length"], "length"),
                    diffusion=_coefficient_from_json(raw.get("c"), "linear", 1.0),
                    potential=_coefficient_from_json(raw.get("p"), "cells", 0.0),
                )
            )
    except InvalidGraphError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError([f"malformed graph data: {exc}"]) from exc
    return MetricGraph(vertices=vertices, edges=tuple(edges))


def load_graph(path) -> MetricGraph:
    with _parse(open, path, "r", encoding="utf-8") as fh:
        return graph_from_dict(_parse(json.load, fh, object_pairs_hook=_unique_keys))


def save_graph(graph: MetricGraph, path) -> None:
    with _parse(open, path, "w", encoding="utf-8") as fh:
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
        raise QGraphValidationError("per-edge coefficient list has wrong length")
    return [v if isinstance(v, Coefficient) else Coefficient.const(float(v)) for v in vals]


def interval_graph(length: float = 1.0, c=1.0, p=0.0) -> MetricGraph:
    """A single edge e1 from v0 to v1."""
    return path_graph([length], c, p)


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

