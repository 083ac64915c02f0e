"""Directed path decompositions of trees and their active sets.

A tree whose edge set is covered by directed paths starting at boundary
vertices induces an orientation in which every non-sink vertex has
exactly one outgoing edge.  Such decompositions exist precisely when the
source set is the whole boundary or the boundary minus one vertex, and
they are the combinatorial backbone of the boundary-noise smoothing
argument: the active sets they generate are (sources, empty).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InfeasiblePathUnionError,
    InvalidPathUnionError,
    NotATreeError,
    OmitNotBoundaryError,
)
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
        raise NotATreeError("path_union requires a tree")
    boundary = tree.boundary_vertices
    if omit is not None and omit not in boundary:
        raise OmitNotBoundaryError(f"{omit!r} is not a boundary vertex")

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
            raise InfeasiblePathUnionError(
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


def _orientation(pu: PathUnion):
    """Oriented edges of a path union: edge id -> (from, to)."""
    oriented: dict[str, tuple[str, str]] = {}
    for p in pu.paths:
        for i, eid in enumerate(p.edges):
            if eid in oriented:
                raise InvalidPathUnionError(f"edge {eid!r} appears in more than one path")
            oriented[eid] = (p.vertices[i], p.vertices[i + 1])
    return oriented


def st_active_set(pu: PathUnion) -> STActiveSet:
    """Active sets of the orientation induced by a tree path union.

    For decompositions built from boundary sources on a tree the answer
    is always (source set, empty set): every non-sink vertex keeps a
    single outgoing edge, so no per-vertex edge choices remain.
    """
    oriented = _orientation(pu)
    out_edges: dict[str, list[str]] = {}
    in_edges: dict[str, list[str]] = {}
    for eid, (u, w) in oriented.items():
        out_edges.setdefault(u, []).append(eid)
        in_edges.setdefault(w, []).append(eid)
    for v, outs in out_edges.items():
        if len(outs) != 1:
            raise InvalidPathUnionError(
                f"vertex {v!r} has {len(outs)} outgoing edges; expected exactly one"
            )
    sources = frozenset(v for v in out_edges if v not in in_edges)
    if sources != pu.source_set:
        raise InvalidPathUnionError(
            f"orientation sources {sorted(sources)} differ from declared {sorted(pu.source_set)}"
        )
    starts = frozenset(p.start for p in pu.paths)
    if starts != pu.source_set:
        raise InvalidPathUnionError("declared source set does not match path starts")
    return STActiveSet(i_star=sources, j_star=frozenset())


def verify_tf(pu: PathUnion, graph: MetricGraph) -> list[str]:
    """Check the tangle-free conditions; returns violations, empty if none.

    Checked: (1) every path is a simple walk whose edges exist and carry
    the path's direction, with no edge reuse; (2) distinct paths meet
    only where at least one of them starts or finishes; (3) no relay
    tangles at vertices that both finish and start paths, or start more
    than one, without independent through-edges; (4) the paths cover
    every edge; and the induced orientation is acyclic.
    """
    report: list[str] = []
    oriented: dict[str, tuple[str, str]] = {}

    for p in pu.paths:
        if len(p.vertices) != len(p.edges) + 1 or not p.edges:
            report.append(f"malformed path {p.vertices}")
            continue
        if len(set(p.vertices)) != len(p.vertices):
            report.append(f"path {p.vertices} repeats a vertex")
        for i, eid in enumerate(p.edges):
            u, w = p.vertices[i], p.vertices[i + 1]
            if eid not in graph.edge_index:
                report.append(f"path uses unknown edge {eid!r}")
                continue
            e = graph.edge(eid)
            if {e.tail, e.head} != {u, w} and not (e.tail == e.head == u == w):
                report.append(f"edge {eid!r} does not join {u!r} and {w!r}")
                continue
            if eid in oriented:
                report.append(f"edge reuse: {eid!r} traversed by more than one path")
                continue
            oriented[eid] = (u, w)

    # condition (2): interiors never meet another path's interior
    for a in range(len(pu.paths)):
        for b in range(a + 1, len(pu.paths)):
            pa, pb = pu.paths[a], pu.paths[b]
            shared = set(pa.vertices) & set(pb.vertices)
            for v in shared:
                if v in pa.interior and v in pb.interior:
                    report.append(
                        f"condition (2): vertex {v!r} is interior to two paths"
                    )

    # condition (3): relay tangles
    start_count: dict[str, int] = {}
    finish_count: dict[str, int] = {}
    starting_edges = set()
    finishing_edges = set()
    for p in pu.paths:
        if not p.edges:
            continue
        start_count[p.start] = start_count.get(p.start, 0) + 1
        finish_count[p.finish] = finish_count.get(p.finish, 0) + 1
        starting_edges.add(p.edges[0])
        finishing_edges.add(p.edges[-1])
    out_by_vertex: dict[str, set[str]] = {}
    in_by_vertex: dict[str, set[str]] = {}
    for eid, (u, w) in oriented.items():
        out_by_vertex.setdefault(u, set()).add(eid)
        in_by_vertex.setdefault(w, set()).add(eid)
    for v, nstart in start_count.items():
        tangled = nstart >= 2 or finish_count.get(v, 0) >= 1
        if not tangled:
            continue
        has_through_in = bool(in_by_vertex.get(v, set()) - finishing_edges)
        has_through_out = bool(out_by_vertex.get(v, set()) - starting_edges)
        if not has_through_in or not has_through_out:
            report.append(
                f"condition (3): vertex {v!r} starts {nstart} path(s) and finishes "
                f"{finish_count.get(v, 0)} without a non-finishing incoming edge and "
                f"a non-starting outgoing edge"
            )

    # condition (4): coverage
    covered = set(oriented)
    for e in graph.edges:
        if e.id not in covered:
            report.append(f"condition (4): uncovered edge {e.id!r}")

    # acyclicity of the induced orientation
    indeg: dict[str, int] = {v: 0 for v in graph.vertices}
    adj_out: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for eid, (u, w) in oriented.items():
        if u in indeg and w in indeg:
            indeg[w] += 1
            adj_out[u].append(w)
    queue = [v for v, d in indeg.items() if d == 0]
    visited = 0
    while queue:
        u = queue.pop()
        visited += 1
        for w in adj_out[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if visited != len(indeg):
        report.append("induced orientation contains a directed cycle")

    if frozenset(p.start for p in pu.paths) != pu.source_set:
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
