"""Two-colored recognition: neighborhood axioms, reachable sets, and the
hierarchy route to the unique least resolved tree.

All axiom algebra runs on the class quotient of the thinness partition;
class granularity makes that lossless.  Axioms are checked in the order
N2, N3, N1 and the first violating class (pair) in class order is the
reported witness.

A connected, sink-free two-colored digraph satisfies N1-N3 exactly when it
is a best match graph, and then the Hasse tree of its extended reachable
sets is its least resolved tree.  The hierarchy route therefore runs no
forward construction of its own: the one exact gate is the n-colour
recognizer's final arc-for-arc comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bmg import bmg_of_tree
from .digraph import (
    ColoredDigraph,
    ThinnessPartition,
    connected_components,
    thinness_partition,
)
from .errors import GraphError
from .tree import LeafColoredTree, Topology
from .verdicts import CheckResult, Rejection


@dataclass(frozen=True)
class ClassNeighborhoodTables:
    """Class-level N, N(N), N(N(N)) plus the membership/overlap predicates."""

    partition: ThinnessPartition
    n1: tuple[frozenset[int], ...]
    n2: tuple[frozenset[int], ...]
    n3: tuple[frozenset[int], ...]

    def x(self, a: int, b: int) -> bool:
        """X[a, b]: class a lies inside N(b)."""
        return a in self.n1[b]

    def q2(self, a: int, b: int) -> bool:
        """Q2[a, b]: class a lies inside N(N(b))."""
        return a in self.n2[b]

    def y(self, a: int, b: int) -> bool:
        """Y[a, b]: N(a) and N(N(b)) overlap."""
        return bool(self.n1[a] & self.n2[b])


def neighborhood_tables(partition: ThinnessPartition) -> ClassNeighborhoodTables:
    n1 = partition.out_classes
    n2 = tuple(
        frozenset(itertools.chain.from_iterable(n1[c] for c in n1[a]))
        for a in range(len(partition))
    )
    n3 = tuple(
        frozenset(itertools.chain.from_iterable(n1[c] for c in n2[a]))
        for a in range(len(partition))
    )
    return ClassNeighborhoodTables(partition=partition, n1=n1, n2=n2, n3=n3)


def _structure_check(graph: ColoredDigraph) -> CheckResult:
    if len(graph.color_ids) != 2:
        return CheckResult(False, "wrong-color-count", graph.color_ids)
    bad = graph.same_color_arc()
    if bad is not None:
        i, j = bad
        return CheckResult(False, "same-color-arc", (graph.vertex_ids[i], graph.vertex_ids[j]))
    for i in range(len(graph)):
        if not graph.out_adj[i]:
            return CheckResult(False, "sink-vertex", graph.vertex_ids[i])
    comps = connected_components(graph)
    if len(comps) != 1:
        return CheckResult(False, "disconnected", len(comps))
    return CheckResult(True)


def check_axioms(graph: ColoredDigraph) -> CheckResult:
    """Check the three out-neighborhood axioms of connected two-colored graphs."""
    verdict, _, _ = _checked_tables(graph)
    return verdict


def _checked_tables(
    graph: ColoredDigraph,
) -> tuple[CheckResult, ThinnessPartition | None, ClassNeighborhoodTables | None]:
    structural = _structure_check(graph)
    if not structural:
        return structural, None, None
    part = thinness_partition(graph)
    tables = neighborhood_tables(part)
    k = len(part)

    def ids(a: int) -> tuple[str, ...]:
        return part.class_ids(a)

    for a in range(k):
        if not tables.n3[a] <= tables.n1[a]:
            return CheckResult(False, "N2", ids(a)), part, tables
    for a, b in itertools.combinations(range(k), 2):
        if (
            not tables.q2(a, b)
            and not tables.q2(b, a)
            and tables.n1[a] & tables.n1[b]
        ):
            same_in = part.in_classes[a] == part.in_classes[b]
            nested = tables.n1[a] <= tables.n1[b] or tables.n1[b] <= tables.n1[a]
            if not (same_in and nested):
                return CheckResult(False, "N3", (ids(a), ids(b))), part, tables
    for a, b in itertools.combinations(range(k), 2):
        if not tables.x(a, b) and not tables.x(b, a):
            if tables.y(a, b) or tables.y(b, a):
                return CheckResult(False, "N1", (ids(a), ids(b))), part, tables
    return CheckResult(True), part, tables


def reachable_set(graph: ColoredDigraph, seed: frozenset[int] | tuple[int, ...]) -> frozenset[int]:
    """Vertices reachable from ``seed`` along one or more arcs (plain BFS).

    BFS keeps the result meaningful even on graphs violating the axioms,
    where the closed-form two-step union would be wrong.
    """
    frontier = set()
    for v in seed:
        frontier |= graph.out_adj[v]
    seen = set(frontier)
    while frontier:
        nxt = set()
        for v in frontier:
            nxt |= graph.out_adj[v]
        frontier = nxt - seen
        seen |= nxt
    return frozenset(seen)


def class_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    return reachable_set(partition.graph, partition.classes[a])


def extended_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    """R'(a): the reachable set plus all classes with equal in-neighborhood
    and nested out-neighborhood (the set Q), which always contains ``a``."""
    graph = partition.graph
    q: set[int] = set()
    for b in range(len(partition)):
        if (
            partition.vertex_in(b) == partition.vertex_in(a)
            and partition.vertex_out(b) <= partition.vertex_out(a)
        ):
            q.update(partition.classes[b])
    return reachable_set(graph, partition.classes[a]) | frozenset(q)


@dataclass(frozen=True)
class Hierarchy:
    """Laminar family over a ground set together with its Hasse tree."""

    ground: frozenset[int]
    sets: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    root: int


def laminarity_witness(
    sets: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair of sets that overlap without nesting, if any."""
    for s, t in itertools.combinations(sets, 2):
        if s & t and not (s <= t or t <= s):
            return s, t
    return None


def hasse_tree(ground: frozenset[int], sets: tuple[frozenset[int], ...]) -> Hierarchy | Rejection:
    """Hasse diagram of a laminar family; rejects unless it is a tree on ``ground``."""
    order = sorted(range(len(sets)), key=lambda i: (-len(sets[i]), sorted(sets[i])))
    parent = [-1] * len(sets)
    for pos, i in enumerate(order):
        # smallest strict superset = nearest predecessor in size order that contains it
        for j in reversed(order[:pos]):
            if sets[i] < sets[j]:
                parent[i] = j
                break
    roots = [i for i in range(len(sets)) if parent[i] == -1]
    if len(roots) != 1 or sets[roots[0]] != ground:
        return Rejection("hasse-not-tree", tuple(sets[r] for r in roots))
    children: list[list[int]] = [[] for _ in sets]
    for i, p in enumerate(parent):
        if p != -1:
            children[p].append(i)
    for kids in children:
        kids.sort(key=lambda i: min(sets[i]))
        for x, y in itertools.combinations(kids, 2):
            if sets[x] & sets[y]:
                return Rejection("sibling-overlap", (sets[x], sets[y]))
    return Hierarchy(
        ground=ground,
        sets=sets,
        parent=tuple(parent),
        children=tuple(tuple(kids) for kids in children),
        root=roots[0],
    )


def lrt_via_hierarchy(graph: ColoredDigraph) -> Topology | Rejection:
    """Topology of the least resolved tree of a connected two-colored graph,
    via extended reachable sets, or a staged rejection.

    No tree is built and no forward construction checks the result: once the
    structure checks and axioms N1-N3 pass, the graph is a best match graph
    and the topology explains it.  Wrap it as
    ``LeafColoredTree(topology, graph.colors_as_dict())`` to get the tree.
    """
    verdict, part, _ = _checked_tables(graph)
    if part is None or not verdict:
        return Rejection("axioms", verdict)

    r_ext = [extended_reachable_set(part, a) for a in range(len(part))]
    distinct = tuple(sorted(set(r_ext), key=lambda s: (-len(s), sorted(s))))
    overlap = laminarity_witness(distinct)
    if overlap is not None:
        witness = tuple(_vertex_ids(graph, s) for s in overlap)
        return Rejection("laminarity", witness)
    ground = frozenset(range(len(graph)))
    hierarchy = hasse_tree(ground, distinct)
    if isinstance(hierarchy, Rejection):
        return hierarchy

    return _attach_leaves(graph, part, r_ext, hierarchy)


def _vertex_ids(graph: ColoredDigraph, vertices) -> tuple[str, ...]:
    return tuple(graph.vertex_ids[v] for v in sorted(vertices))


def _attach_leaves(
    graph: ColoredDigraph,
    part: ThinnessPartition,
    r_ext: list[frozenset[int]],
    hierarchy: Hierarchy,
) -> Topology:
    set_index = {s: i for i, s in enumerate(hierarchy.sets)}
    attached: list[list[str]] = [[] for _ in hierarchy.sets]
    for a in range(len(part)):
        node = set_index[r_ext[a]]
        attached[node].extend(graph.vertex_ids[v] for v in part.classes[a])

    rep: list[Topology] = [""] * len(hierarchy.sets)
    order = sorted(range(len(hierarchy.sets)), key=lambda i: len(hierarchy.sets[i]))
    for i in order:  # children before parents: smaller sets first
        kids: list[Topology] = [rep[c] for c in hierarchy.children[i]]
        kids.extend(sorted(attached[i]))
        rep[i] = tuple(kids) if len(kids) > 1 else kids[0]
    return rep[hierarchy.root]


def class_roots(tree: LeafColoredTree, graph: ColoredDigraph, part: ThinnessPartition) -> list[int]:
    """Tree node at which each thinness class is rooted: lca of the class and
    its out-neighborhood."""
    roots = []
    for a in range(len(part)):
        nodes = [tree.leaf_node(graph.vertex_ids[v]) for v in part.classes[a]]
        nodes += [tree.leaf_node(graph.vertex_ids[v]) for v in part.vertex_out(a)]
        roots.append(tree.lca_set(nodes))
    return roots


def redundant_edges_2(tree: LeafColoredTree, graph: ColoredDigraph) -> frozenset[tuple[int, int]]:
    """Inner edges whose contraction keeps the two-colored graph explained:
    exactly those whose lower end is no class root."""
    if len(graph.color_ids) != 2:
        raise GraphError("redundant_edges_2 expects a two-colored graph")
    if bmg_of_tree(tree) != graph:
        raise GraphError("tree does not explain the given graph")
    part = thinness_partition(graph)
    rooted = set(class_roots(tree, graph, part))
    return frozenset((u, v) for u, v in tree.inner_edges() if v not in rooted)
