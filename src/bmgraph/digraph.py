"""Vertex-colored digraphs, their thinness partition, and derived views.

Vertex and color ids are interned to dense integers in lexicographic order
of the original string ids, so "smallest vertex" is well defined and every
derived object (components, classes, arc listings) is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError


class ColoredDigraph:
    """Immutable loop-free digraph with one color per vertex."""

    __slots__ = ("vertex_ids", "index_of", "color_ids", "color_of", "out_adj", "in_adj")

    def __init__(self, colors: Mapping[str, str], arcs: Iterable[tuple[str, str]] = ()):
        self._intern(colors)
        out_sets: list[set[int]] = [set() for _ in self.vertex_ids]
        for src, dst in arcs:
            try:
                i, j = self.index_of[src], self.index_of[dst]
            except KeyError as missing:
                raise GraphError(f"arc endpoint {missing.args[0]!r} is not a declared vertex") from None
            if i == j:
                raise GraphError(f"self-loop on vertex {src!r}")
            out_sets[i].add(j)
        self._adopt(out_sets)

    @classmethod
    def from_index_sets(
        cls, colors: Mapping[str, str], out_sets: Sequence[Iterable[int]]
    ) -> "ColoredDigraph":
        """Graph whose ``i``-th vertex in sorted id order has the out-neighbour
        indices ``out_sets[i]``.  The sets are trusted: in range, loop-free."""
        graph = cls.__new__(cls)
        graph._intern(colors)
        graph._adopt(out_sets)
        return graph

    def _intern(self, colors: Mapping[str, str]) -> None:
        if not colors:
            raise GraphError("graph needs at least one vertex")
        self.vertex_ids: tuple[str, ...] = tuple(sorted(colors))
        self.index_of: dict[str, int] = {v: i for i, v in enumerate(self.vertex_ids)}
        self.color_ids: tuple[str, ...] = tuple(sorted(set(colors.values())))
        color_index = {c: i for i, c in enumerate(self.color_ids)}
        self.color_of: tuple[int, ...] = tuple(color_index[colors[v]] for v in self.vertex_ids)

    def _adopt(self, out_sets: Sequence[Iterable[int]]) -> None:
        in_sets: list[list[int]] = [[] for _ in self.vertex_ids]
        for i, targets in enumerate(out_sets):
            for j in targets:
                in_sets[j].append(i)
        self.out_adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in out_sets)
        self.in_adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in in_sets)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def arc_count(self) -> int:
        return sum(len(s) for s in self.out_adj)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs as index pairs, sorted."""
        for i in range(len(self.vertex_ids)):
            for j in sorted(self.out_adj[i]):
                yield i, j

    def has_arc(self, i: int, j: int) -> bool:
        return j in self.out_adj[i]

    def color_name(self, i: int) -> str:
        return self.color_ids[self.color_of[i]]

    def colors_as_dict(self) -> dict[str, str]:
        return {v: self.color_ids[self.color_of[i]] for i, v in enumerate(self.vertex_ids)}

    def vertices_of_color(self, color_index: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(self)) if self.color_of[i] == color_index)

    def same_color_arc(self) -> tuple[int, int] | None:
        """Smallest arc joining two vertices of equal color, if any."""
        color_of = self.color_of
        for i, targets in enumerate(self.out_adj):
            c = color_of[i]
            same = [j for j in targets if color_of[j] == c]
            if same:
                return i, min(same)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (
            self.vertex_ids == other.vertex_ids
            and self.colors_as_dict() == other.colors_as_dict()
            and self.out_adj == other.out_adj
        )

    def __hash__(self) -> int:
        return hash((self.vertex_ids, self.color_ids, self.color_of, self.out_adj))

    def __repr__(self) -> str:
        return f"ColoredDigraph({len(self)} vertices, {self.arc_count()} arcs, {len(self.color_ids)} colors)"


class ColoredGraph:
    """Immutable undirected companion of :class:`ColoredDigraph`."""

    __slots__ = ("vertex_ids", "index_of", "color_ids", "color_of", "adj")

    def __init__(self, colors: Mapping[str, str], edges: Iterable[tuple[str, str]] = ()):
        if not colors:
            raise GraphError("graph needs at least one vertex")
        self.vertex_ids: tuple[str, ...] = tuple(sorted(colors))
        self.index_of: dict[str, int] = {v: i for i, v in enumerate(self.vertex_ids)}
        self.color_ids: tuple[str, ...] = tuple(sorted(set(colors.values())))
        color_index = {c: i for i, c in enumerate(self.color_ids)}
        self.color_of: tuple[int, ...] = tuple(color_index[colors[v]] for v in self.vertex_ids)
        adj: list[set[int]] = [set() for _ in self.vertex_ids]
        for a, b in edges:
            try:
                i, j = self.index_of[a], self.index_of[b]
            except KeyError as missing:
                raise GraphError(f"edge endpoint {missing.args[0]!r} is not a declared vertex") from None
            if i == j:
                raise GraphError(f"self-loop on vertex {a!r}")
            adj[i].add(j)
            adj[j].add(i)
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(len(self.vertex_ids)):
            for j in sorted(self.adj[i]):
                if i < j:
                    yield i, j

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def color_name(self, i: int) -> str:
        return self.color_ids[self.color_of[i]]

    def colors_as_dict(self) -> dict[str, str]:
        return {v: self.color_ids[self.color_of[i]] for i, v in enumerate(self.vertex_ids)}

    def components(self) -> list[tuple[int, ...]]:
        return _components(len(self), lambda i: self.adj[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (
            self.vertex_ids == other.vertex_ids
            and self.colors_as_dict() == other.colors_as_dict()
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.vertex_ids, self.color_ids, self.color_of, self.adj))

    def __repr__(self) -> str:
        return f"ColoredGraph({len(self)} vertices, {self.edge_count()} edges, {len(self.color_ids)} colors)"


def _components(n: int, neighbors) -> list[tuple[int, ...]]:
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(comp)))
    return out


def connected_components(graph: ColoredDigraph) -> list[tuple[int, ...]]:
    """Weakly connected components, ordered by smallest vertex."""
    return _components(len(graph), lambda i: graph.out_adj[i] | graph.in_adj[i])


def induced_subgraph(graph: ColoredDigraph, colors: Iterable[str]) -> ColoredDigraph:
    """Subgraph on all vertices whose color lies in ``colors``."""
    wanted = set(colors)
    unknown = wanted - set(graph.color_ids)
    if unknown:
        raise GraphError(f"unknown color id(s): {sorted(unknown)}")
    if len(wanted) == len(graph.color_ids):
        return graph  # immutable, so the whole graph serves as its own copy
    kept = {k for k, c in enumerate(graph.color_ids) if c in wanted}
    in_kept = map(kept.__contains__, graph.color_of)
    return subgraph_on(graph, itertools.compress(range(len(graph)), in_kept))


def induced_subgraph_undirected(graph: ColoredGraph, colors: Iterable[str]) -> ColoredGraph:
    """Color-induced subgraph of an undirected colored graph."""
    wanted = set(colors)
    unknown = wanted - set(graph.color_ids)
    if unknown:
        raise GraphError(f"unknown color id(s): {sorted(unknown)}")
    keep = {i for i in range(len(graph)) if graph.color_name(i) in wanted}
    vertex_colors = {graph.vertex_ids[i]: graph.color_name(i) for i in keep}
    edges = [
        (graph.vertex_ids[i], graph.vertex_ids[j])
        for i, j in graph.edges()
        if i in keep and j in keep
    ]
    return ColoredGraph(vertex_colors, edges)


def subgraph_on(graph: ColoredDigraph, vertices: Iterable[int]) -> ColoredDigraph:
    """Subgraph induced by a set of vertex indices; original ids kept."""
    keep = sorted(set(vertices))
    kept = frozenset(keep)
    new_index = dict(zip(keep, range(len(keep)))).__getitem__
    ids, names, color_of = graph.vertex_ids, graph.color_ids, graph.color_of
    return ColoredDigraph.from_index_sets(
        {ids[i]: names[color_of[i]] for i in keep},
        [list(map(new_index, graph.out_adj[i] & kept)) for i in keep],
    )


def first_arc_difference(graph: ColoredDigraph, other: ColoredDigraph) -> tuple[str, str] | None:
    """Smallest arc ``(x, y)`` that lies in exactly one of two graphs on the
    same vertex ids, in vertex id order; None when their arcs agree."""
    if graph.vertex_ids != other.vertex_ids:
        raise GraphError("arc comparison needs graphs on the same vertices")
    for i, (mine, theirs) in enumerate(zip(graph.out_adj, other.out_adj)):
        if mine != theirs:
            return graph.vertex_ids[i], graph.vertex_ids[min(mine ^ theirs)]
    return None


def symmetric_part(graph: ColoredDigraph) -> ColoredGraph:
    """Undirected graph keeping exactly the bidirectional arc pairs."""
    colors = graph.colors_as_dict()
    edges = [
        (graph.vertex_ids[i], graph.vertex_ids[j])
        for i in range(len(graph))
        for j in graph.out_adj[i]
        if i < j and i in graph.out_adj[j]
    ]
    return ColoredGraph(colors, edges)


@dataclass(frozen=True)
class ThinnessPartition:
    """Partition of vertices into classes with equal out- and in-neighborhoods.

    ``out_classes[a]`` / ``in_classes[a]`` hold the class-level neighborhoods;
    they are exact because a class is either contained in or disjoint from any
    vertex neighborhood (granularity holds for every digraph by construction).
    """

    graph: ColoredDigraph
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    color_of_class: tuple[int, ...]
    out_classes: tuple[frozenset[int], ...]
    in_classes: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.classes)

    def class_ids(self, a: int) -> tuple[str, ...]:
        g = self.graph
        return tuple(g.vertex_ids[i] for i in self.classes[a])

    def vertex_out(self, a: int) -> frozenset[int]:
        """Vertex-level N of class ``a`` (taken from a representative)."""
        return self.graph.out_adj[self.classes[a][0]]

    def vertex_in(self, a: int) -> frozenset[int]:
        return self.graph.in_adj[self.classes[a][0]]

    def no_in_classes(self) -> tuple[int, ...]:
        """Classes with empty in-neighborhood (the set called W)."""
        return tuple(a for a in range(len(self.classes)) if not self.in_classes[a])


def thinness_partition(graph: ColoredDigraph) -> ThinnessPartition:
    """Group vertices sharing both neighborhoods; classes sorted by smallest member."""
    groups: dict[tuple[frozenset[int], frozenset[int]], list[int]] = {}
    for v in range(len(graph)):
        groups.setdefault((graph.out_adj[v], graph.in_adj[v]), []).append(v)
    classes = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))
    class_of = [0] * len(graph)
    for a, cls in enumerate(classes):
        for v in cls:
            class_of[v] = a
    out_classes = tuple(
        frozenset(class_of[w] for w in graph.out_adj[cls[0]]) for cls in classes
    )
    in_classes = tuple(
        frozenset(class_of[w] for w in graph.in_adj[cls[0]]) for cls in classes
    )
    color_of_class = tuple(graph.color_of[cls[0]] for cls in classes)
    return ThinnessPartition(
        graph=graph,
        classes=classes,
        class_of=tuple(class_of),
        color_of_class=color_of_class,
        out_classes=out_classes,
        in_classes=in_classes,
    )


def class_quotient(partition: ThinnessPartition) -> ColoredDigraph:
    """Digraph on class representatives (smallest member id per class)."""
    g = partition.graph
    reps = [g.vertex_ids[cls[0]] for cls in partition.classes]
    colors = {reps[a]: g.color_name(partition.classes[a][0]) for a in range(len(partition))}
    arcs = [
        (reps[a], reps[b])
        for a in range(len(partition))
        for b in partition.out_classes[a]
        if a != b
    ]
    return ColoredDigraph(colors, arcs)
