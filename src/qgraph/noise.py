"""Vertex noise intensity Q and its symmetric square root.

Noise enters the dynamics only through vertex values: the covariance
operator is Q acting on the vertex space, so a vertex with a zero
row/column of Q is deaf to the forcing.  Q must be symmetric positive
semidefinite; q_sqrt is the symmetric PSD square root.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .errors import InvalidGraphError, QGraphValidationError
from .graphs import MetricGraph, _check_object, _json_float, _parse, _unique_keys

__all__ = ["NoiseModel", "parse_noise"]


@dataclass(frozen=True)
class NoiseModel:
    """PSD noise intensity on the vertices of a graph (fixed vertex order)."""

    vertices: tuple[str, ...]
    q: np.ndarray
    q_sqrt: np.ndarray

    @classmethod
    def zero(cls, graph: MetricGraph) -> "NoiseModel":
        n = graph.n
        return cls(graph.vertices, np.zeros((n, n)), np.zeros((n, n)))

    @classmethod
    def from_diagonal(cls, graph: MetricGraph, q: dict[str, float]) -> "NoiseModel":
        for v in q:
            if v not in graph.vertex_index:
                raise QGraphValidationError(f"unknown vertex in noise spec: {v!r}")
        diag = np.zeros(graph.n)
        for v, val in q.items():
            val = float(val)
            if not np.isfinite(val):
                raise QGraphValidationError(f"non-finite noise intensity at {v!r}: {val}")
            if val < 0:
                raise QGraphValidationError(f"negative noise intensity at {v!r}: {val}")
            diag[graph.vertex_index[v]] = val
        return cls(graph.vertices, np.diag(diag), np.diag(np.sqrt(diag)))

    @classmethod
    def from_matrix(cls, graph: MetricGraph, matrix) -> "NoiseModel":
        n = graph.n
        try:
            q = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged rows or entries that are not numbers
            raise QGraphValidationError(f"noise matrix must be {n}x{n} numbers for this graph"
                                        ) from exc
        if q.shape != (n, n):
            raise QGraphValidationError(f"noise matrix must be {n}x{n} for this graph")
        if not np.all(np.isfinite(q)):
            raise QGraphValidationError("noise matrix has non-finite entries")
        scale = max(1.0, float(np.abs(q).max()))
        if float(np.abs(q - q.T).max()) > tol.NOISE_SYMMETRY * scale:
            raise QGraphValidationError("noise matrix is not symmetric")
        q = 0.5 * (q + q.T)
        w, u = np.linalg.eigh(q)
        if w.min() < tol.NOISE_EIG_FLOOR * scale:
            raise QGraphValidationError(f"noise matrix has negative eigenvalue {w.min()}")
        w = np.maximum(w, 0.0)
        root = (u * np.sqrt(w)) @ u.T
        root = 0.5 * (root + root.T)
        if float(np.abs(root @ root - q).max()) > tol.NOISE_SQRT_CHECK * scale:
            raise QGraphValidationError("square root reconstruction check failed")
        return cls(graph.vertices, q, root)

    @cached_property
    def is_diagonal(self) -> bool:
        off = self.q - np.diag(np.diag(self.q))
        return not np.any(off)

    def is_quiet(self, vertex: str) -> bool:
        """True when the forcing never touches this vertex (zero row of Q)."""
        try:
            i = self.vertices.index(vertex)
        except ValueError:
            raise QGraphValidationError(f"unknown vertex: {vertex!r}") from None
        return not np.any(self.q[i])

    def to_json(self) -> dict:
        if self.is_diagonal:
            return {
                "type": "diagonal",
                "q": {
                    v: float(self.q[i, i])
                    for i, v in enumerate(self.vertices)
                    if self.q[i, i] != 0.0
                },
            }
        return {"type": "full", "matrix": self.q.tolist()}


def _check_vertices(graph: MetricGraph, noise: NoiseModel) -> None:
    """Reject a noise model built for a graph with other vertices."""
    if tuple(graph.vertices) != tuple(noise.vertices):
        raise InvalidGraphError(["noise model and graph use different vertex sets"])


def parse_noise(spec: str, graph: MetricGraph) -> NoiseModel:
    """Build a noise model from a CLI argument.

    Accepts the inline form ``diag:v1=1.0,v2=0.5`` (unlisted vertices get
    zero) or a path to a JSON file shaped like
    ``{"type": "diagonal", "q": {"v1": 1.0}}`` or
    ``{"type": "full", "matrix": [[...], ...]}`` with the matrix in the
    graph's vertex order.
    """
    if spec.startswith("diag:"):
        body = spec[len("diag:"):].strip()
        q: dict[str, float] = {}
        if body:
            for item in body.split(","):
                name, _, val = item.partition("=")
                if not _:
                    raise QGraphValidationError(f"bad noise entry {item!r}, expected vertex=value")
                name = name.strip()
                if name in q:
                    raise QGraphValidationError(f"repeated noise entry for vertex {name!r}")
                q[name] = _parse(float, val)
        return NoiseModel.from_diagonal(graph, q)
    with open(spec, encoding="utf-8") as fh:
        data = _parse(json.load, fh, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise QGraphValidationError(f"noise file must hold a JSON object, got {data!r:.40}")
    kind = data.get("type")
    if kind not in ("diagonal", "full"):
        raise QGraphValidationError(f"unknown noise type {kind!r}")
    field = "q" if kind == "diagonal" else "matrix"
    _check_object(data, frozenset({"type", field}), f"{kind} noise file")
    raw = data.get(field)
    try:
        if kind == "diagonal":
            if not isinstance(raw, dict):
                raise QGraphValidationError(f"q must be a JSON object, got {raw!r:.40}")
            q = {k: _json_float(v, f"noise intensity at {k!r}") for k, v in raw.items()}
        else:
            if not (isinstance(raw, list) and all(isinstance(row, list) for row in raw)):
                raise QGraphValidationError(f"matrix must be a JSON array of arrays, got {raw!r:.40}")
            if any(len(row) != graph.n for row in raw):
                raise QGraphValidationError(f"every row of the matrix must hold {graph.n} entries")
            matrix = np.asarray([[_json_float(x, "noise matrix entry") for x in row]
                                 for row in raw])
    except QGraphValidationError as exc:
        raise QGraphValidationError(f"malformed {kind} noise data: {exc}") from exc
    if kind == "diagonal":
        return NoiseModel.from_diagonal(graph, q)
    return NoiseModel.from_matrix(graph, matrix)
