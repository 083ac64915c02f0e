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
from .errors import (
    AsymmetricMatrixError,
    NotPSDError,
    QGraphValidationError,
    UnknownVertexError,
)
from .graphs import MetricGraph

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
                raise UnknownVertexError(f"unknown vertex in noise spec: {v!r}")
        diag = np.zeros(graph.n)
        for v, val in q.items():
            val = float(val)
            if not np.isfinite(val):
                raise QGraphValidationError(f"non-finite noise intensity at {v!r}: {val}")
            if val < 0:
                raise NotPSDError(f"negative noise intensity at {v!r}: {val}")
            diag[graph.vertex_index[v]] = val
        return cls(graph.vertices, np.diag(diag), np.diag(np.sqrt(diag)))

    @classmethod
    def from_matrix(cls, graph: MetricGraph, matrix) -> "NoiseModel":
        q = np.asarray(matrix, dtype=float)
        n = graph.n
        if q.shape != (n, n):
            raise ValueError(f"noise matrix must be {n}x{n} for this graph")
        if not np.all(np.isfinite(q)):
            raise QGraphValidationError("noise matrix has non-finite entries")
        scale = max(1.0, float(np.abs(q).max()))
        if float(np.abs(q - q.T).max()) > tol.NOISE_SYMMETRY * scale:
            raise AsymmetricMatrixError("noise matrix is not symmetric")
        q = 0.5 * (q + q.T)
        w, u = np.linalg.eigh(q)
        if w.min() < tol.NOISE_EIG_FLOOR * scale:
            raise NotPSDError(f"noise matrix has negative eigenvalue {w.min()}")
        w = np.maximum(w, 0.0)
        root = (u * np.sqrt(w)) @ u.T
        root = 0.5 * (root + root.T)
        if float(np.abs(root @ root - q).max()) > tol.NOISE_SQRT_CHECK * scale:
            raise NotPSDError("square root reconstruction check failed")
        return cls(graph.vertices, q, root)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def is_diagonal(self) -> bool:
        off = self.q - np.diag(np.diag(self.q))
        return not np.any(off)

    @cached_property
    def diagonal(self) -> dict[str, float] | None:
        """Per-vertex intensities when Q is diagonal, else None."""
        if not self.is_diagonal:
            return None
        return {v: float(self.q[i, i]) for i, v in enumerate(self.vertices)}

    @cached_property
    def is_zero(self) -> bool:
        return not np.any(self.q)

    def q_at(self, vertex: str) -> float:
        try:
            i = self.vertices.index(vertex)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex: {vertex!r}") from None
        return float(self.q[i, i])

    def is_quiet(self, vertex: str) -> bool:
        """True when the forcing never touches this vertex (zero row of Q)."""
        try:
            i = self.vertices.index(vertex)
        except ValueError:
            raise UnknownVertexError(f"unknown vertex: {vertex!r}") from None
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
                    raise ValueError(f"bad noise entry {item!r}, expected vertex=value")
                q[name.strip()] = float(val)
        return NoiseModel.from_diagonal(graph, q)
    with open(spec, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise QGraphValidationError(f"noise file must hold a JSON object, got {data!r:.40}")
    kind = data.get("type")
    if kind not in ("diagonal", "full"):
        raise ValueError(f"unknown noise type {kind!r}")
    try:
        if kind == "diagonal":
            q = {k: float(v) for k, v in data["q"].items()}
        else:
            matrix = np.asarray(data["matrix"], dtype=float)
    except (KeyError, TypeError, AttributeError) as exc:
        raise QGraphValidationError(f"malformed {kind} noise data: {exc!r}") from exc
    if kind == "diagonal":
        return NoiseModel.from_diagonal(graph, q)
    return NoiseModel.from_matrix(graph, matrix)
