"""Directed path decompositions of trees and their active sets.

A tree whose edge set is covered by directed paths starting at boundary
vertices induces an orientation in which every non-sink vertex has
exactly one outgoing edge.  Such decompositions exist precisely when the
source set is the whole boundary or the boundary minus one vertex, and
they are the combinatorial backbone of the boundary-noise smoothing
argument: the active sets they generate are (sources, empty).

verify_tf and st_active_set both read one count per vertex of the paths
that start at it, run through it and finish at it.  Everything here
takes trees only: any orientation of a tree is acyclic, so neither
checker needs a cycle test.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import QGraphValidationError
from .graphs import MetricGraph, _breadth_first

__all__ = [
    "DirectedPath",
    "PathUnion",
    "STActiveSet",
    "path_union",
    "st_active_set",
    "verify_tf",
    "path_union_to_dict",
]


@dataclass(frozen=True)
class DirectedPath:
    """A directed walk given by its vertex sequence and the edges between."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    @property
    def start(self) -> str:
        return self.vertices[0]

    @property
    def finish(self) -> str:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[str, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class PathUnion:
    paths: tuple[DirectedPath, ...]
    source_set: frozenset[str]


@dataclass(frozen=True)
class STActiveSet:
    i_star: frozenset[str]
    j_star: frozenset[str]


def path_union(tree: MetricGraph, omit: str | None = None) -> PathUnion:
    """Cover a tree by directed paths starting at boundary vertices.

    With omit given, the sources are every boundary vertex except omit
    and all paths flow toward it; omit ends up a sink.  Without omit,
    every boundary vertex is a source.  Construction: root the tree,
    send a path from each source toward the root, and at every vertex
    let the path whose source has the smallest id keep climbing while
    the others finish there.  The result is deterministic.
    """
    if not tree.is_tree:
        raise QGraphValidationError("path_union requires a tree")
    boundary = tree.boundary_vertices
    if omit is not None and omit not in boundary:
        raise QGraphValidationError(f"{omit!r} is not a boundary vertex")

    if omit is not None:
        root = omit
    else:
        root = max(boundary)
    sources = sorted(v for v in boundary if v != root)

    parent, parent_edge, children, order = _breadth_first(tree, root)

    # smallest source in the subtree below each vertex (leaves first)
    source_set_lookup = set(sources)
    min_src: dict[str, str | None] = {}
    for v in reversed(order):
        best = v if v in source_set_lookup else None
        for ch in children[v]:
            sub = min_src[ch]
            if sub is not None and (best is None or sub < best):
                best = sub
        min_src[v] = best

    paths: list[DirectedPath] = []
    for s in sources:
        verts = [s]
        eids = []
        cur = s
        while cur != root and min_src[cur] == s:
            eids.append(parent_edge[cur])
            cur = parent[cur]
            verts.append(cur)
        paths.append(DirectedPath(tuple(verts), tuple(eids)))

    if omit is None:
        # the root is a boundary vertex that must also act as a source:
        # hand it the last edge of the path that reaches it, reversed
        idx = next(i for i, p in enumerate(paths) if p.finish == root)
        p = paths[idx]
        if len(p.edges) == 1:
            raise QGraphValidationError(
                "a single-edge tree admits no path union with both endpoints as sources"
            )
        truncated = DirectedPath(p.vertices[:-1], p.edges[:-1])
        extra = DirectedPath((root, p.vertices[-2]), (p.edges[-1],))
        paths[idx] = truncated
        paths.append(extra)
        source_set = frozenset(boundary)
    else:
        source_set = frozenset(sources)

    paths.sort(key=lambda p: p.start)
    return PathUnion(tuple(paths), source_set)


def _roles(pu: PathUnion) -> tuple[Counter, Counter, Counter]:
    """Per vertex, how many paths start at it, run through it and finish at it."""
    starts = Counter(p.start for p in pu.paths)
    interior = Counter(v for p in pu.paths for v in p.interior)
    return starts, interior, Counter(p.finish for p in pu.paths)


def st_active_set(pu: PathUnion) -> STActiveSet:
    """Active sets of the orientation induced by a tree path union.

    A vertex leaves by one edge per path it starts or runs through, and
    the orientation's sources are the starts that no path enters.  For
    decompositions built from boundary sources on a tree the answer is
    always (source set, empty set): every non-sink vertex keeps a single
    outgoing edge, so no per-vertex edge choices remain.
    """
    if any(len(p.vertices) != len(p.edges) + 1 or not p.edges for p in pu.paths):
        raise QGraphValidationError(
            "malformed path: it needs an edge and one vertex more than edges"
        )
    uses = Counter(eid for p in pu.paths for eid in p.edges)
    reused = [eid for eid, n in uses.items() if n > 1]
    if reused:
        raise QGraphValidationError(f"edge {reused[0]!r} appears in more than one path")
    starts, interior, finishes = _roles(pu)
    for v in starts | interior:
        if starts[v] + interior[v] != 1:
            raise QGraphValidationError(
                f"vertex {v!r} has {starts[v] + interior[v]} outgoing edges; expected exactly one"
            )
    sources = frozenset(v for v in starts if not finishes[v] and not interior[v])
    if sources != pu.source_set:
        raise QGraphValidationError(
            f"orientation sources {sorted(sources)} differ from declared {sorted(pu.source_set)}"
        )
    if frozenset(starts) != pu.source_set:
        raise QGraphValidationError("declared source set does not match path starts")
    return STActiveSet(i_star=sources, j_star=frozenset())


def verify_tf(pu: PathUnion, graph: MetricGraph) -> list[str]:
    """Check the tangle-free conditions on a tree; returns violations, empty if none.

    Checked: (1) every path is a simple walk along existing edges, with
    no edge reuse; (2) no vertex is interior to two paths; (3) a vertex
    that starts two paths, or starts one and finishes one, has a path
    running through it; (4) the paths cover every edge; and the declared
    sources are the path starts.  Any orientation of a tree's edges is
    acyclic, so no cycle check is needed; other graphs raise QGraphValidationError.
    """
    if not graph.is_tree:
        raise QGraphValidationError("verify_tf requires a tree")
    report: list[str] = []
    used: set[str] = set()
    for p in pu.paths:
        if len(p.vertices) != len(p.edges) + 1 or not p.edges:
            report.append(f"malformed path {p.vertices}")
            continue
        if len(set(p.vertices)) != len(p.vertices):
            report.append(f"path {p.vertices} repeats a vertex")
        for eid, u, w in zip(p.edges, p.vertices, p.vertices[1:]):
            if eid not in graph.edge_index:
                report.append(f"path uses unknown edge {eid!r}")
            elif {graph.edge(eid).tail, graph.edge(eid).head} != {u, w}:
                report.append(f"edge {eid!r} does not join {u!r} and {w!r}")
            elif eid in used:
                report.append(f"edge reuse: {eid!r} traversed by more than one path")
            else:
                used.add(eid)

    starts, interior, finishes = _roles(pu)
    for v, n in interior.items():
        if n > 1:
            report.append(f"condition (2): vertex {v!r} is interior to {n} paths")
    for v, n in starts.items():
        if (n > 1 or finishes[v]) and not interior[v]:
            report.append(
                f"condition (3): vertex {v!r} starts {n} path(s) and finishes "
                f"{finishes[v]} with no path running through it"
            )
    for e in graph.edges:
        if e.id not in used:
            report.append(f"condition (4): uncovered edge {e.id!r}")
    if frozenset(starts) != pu.source_set:
        report.append("source set does not match path starts")
    return report


# -- serialization ------------------------------------------------------------

def path_union_to_dict(pu: PathUnion) -> dict:
    seqs = []
    for p in pu.paths:
        seq: list[str] = [p.vertices[0]]
        for i, eid in enumerate(p.edges):
            seq.append(eid)
            seq.append(p.vertices[i + 1])
        seqs.append(seq)
    return {"paths": seqs, "sources": sorted(pu.source_set)}
