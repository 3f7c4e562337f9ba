"""Two-colored recognition: neighborhood axioms, reachable sets, and the
hierarchy route to the unique least resolved tree.

All axiom algebra runs on the class quotient of the thinness partition;
class granularity makes that lossless.  Class-level neighbourhoods are
Python-int bitsets, bit ``c`` standing for thinness class ``c`` (the idiom of
``tree._colormask``).  Axioms are checked in the order N2, N3, N1 and the
first violating class (pair) in class order is the reported witness.

The hierarchy route uses closed forms that hold only once the axioms do.
With N2, N(N(N(a))) lies in N(a), so the reachable set of class a is
R(a) = N(a) | N(N(a)) and no search is needed; the extended reachable set
R'(a) adds Q(a), the classes with a's in-neighbourhood whose
out-neighbourhood lies in N(a).  One pass over the distinct R' sets,
smallest first, checks that they are laminar and links each to its Hasse
parent.  ``reachable_set`` (a BFS), ``extended_reachable_set`` and
``laminarity_witness`` are the plain definitions on vertex sets, kept as
the references the closed forms are tested against.

A connected, sink-free two-colored digraph satisfies N1-N3 exactly when it
is a best match graph, and then the Hasse tree of its extended reachable
sets is its least resolved tree.  The hierarchy route therefore runs no
forward construction of its own: the one exact gate is the n-colour
recognizer's final arc-for-arc comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator

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


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ClassNeighborhoodTables:
    """Class-level neighbourhoods as bitsets over the classes: ``n1[a]``,
    ``n2[a]`` and ``n3[a]`` are N(a), N(N(a)) and N(N(N(a))); ``in1[a]`` and
    ``in2[a]`` hold the classes with an arc, or a path of two arcs, into a."""

    partition: ThinnessPartition
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    n3: tuple[int, ...]
    in1: tuple[int, ...]
    in2: tuple[int, ...]


def neighborhood_tables(partition: ThinnessPartition) -> ClassNeighborhoodTables:
    bit = [1 << c for c in range(len(partition))]
    outs, ins = partition.out_classes, partition.in_classes

    def masks(class_sets) -> tuple[int, ...]:
        return tuple(sum(map(bit.__getitem__, s)) for s in class_sets)

    def step(table: tuple[int, ...], class_sets) -> tuple[int, ...]:
        return tuple(reduce(or_, map(table.__getitem__, s), 0) for s in class_sets)

    n1, in1 = masks(outs), masks(ins)
    n2 = step(n1, outs)
    in2 = step(in1, ins)
    return ClassNeighborhoodTables(
        partition=partition, n1=n1, n2=n2, n3=step(n2, outs), in1=in1, in2=in2
    )


def _structure_check(graph: ColoredDigraph) -> CheckResult:
    if len(graph.color_ids) != 2:
        return CheckResult(False, "wrong-color-count", graph.vertex_ids)
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
    verdict, _ = _checked_tables(graph)
    return verdict


def _checked_tables(graph: ColoredDigraph) -> tuple[CheckResult, ClassNeighborhoodTables | None]:
    structural = _structure_check(graph)
    if not structural:
        return structural, None
    part = thinness_partition(graph)
    tables = neighborhood_tables(part)
    n1, n2, n3, in1, in2 = tables.n1, tables.n2, tables.n3, tables.in1, tables.in2
    k = len(part)
    ids = part.class_ids

    def fail(stage: str, witness: tuple) -> tuple[CheckResult, ClassNeighborhoodTables]:
        return CheckResult(False, stage, witness), tables

    for a in range(k):
        if n3[a] & ~n1[a]:
            return fail("N2", ids(a))
    # Arcs join the two colours, so only classes of one colour can share
    # out-neighbours (N3) and only classes of two colours can meet N(N(.))
    # through N(.) (N1); each loop visits the later classes b > a that the
    # premise of its axiom leaves open.
    full = (1 << k) - 1
    colors = part.color_of_class
    first_color = sum(1 << a for a in range(k) if colors[a] == colors[0])
    same_color = [first_color if colors[a] == colors[0] else full ^ first_color for a in range(k)]
    for a in range(k):
        n1a = n1[a]
        open_pairs = same_color[a] & ~n2[a] & ~in2[a] & ~((2 << a) - 1)
        for b in _bits(open_pairs):
            n1b = n1[b]
            if n1a & n1b and not (in1[a] == in1[b] and (not n1a & ~n1b or not n1b & ~n1a)):
                return fail("N3", (ids(a), ids(b)))
    for a in range(k):
        n1a, n2a = n1[a], n2[a]
        open_pairs = (full ^ same_color[a]) & ~n1a & ~in1[a] & ~((2 << a) - 1)
        for b in _bits(open_pairs):
            if n1a & n2[b] or n1[b] & n2a:
                return fail("N1", (ids(a), ids(b)))
    return CheckResult(True), tables


def reachable_set(graph: ColoredDigraph, seed: frozenset[int] | tuple[int, ...]) -> frozenset[int]:
    """Vertices reachable from ``seed`` along one or more arcs (plain BFS).

    This is the reference definition, meaningful on any graph.  The hierarchy
    route uses the closed form N | N(N) instead, which equals it only once
    axiom N2 holds; tests compare the two.
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
    and nested out-neighborhood (the set Q), which always contains ``a``.
    Reference definition on vertex sets; see ``extended_reachable_masks``."""
    graph = partition.graph
    q: set[int] = set()
    for b in range(len(partition)):
        if (
            partition.vertex_in(b) == partition.vertex_in(a)
            and partition.vertex_out(b) <= partition.vertex_out(a)
        ):
            q.update(partition.classes[b])
    return reachable_set(graph, partition.classes[a]) | frozenset(q)


def extended_reachable_masks(tables: ClassNeighborhoodTables) -> tuple[int, ...]:
    """R'(a) of every class a as a class bitset, in closed form:
    N(a) | N(N(a)) | Q(a), with Q(a) looked for among the classes that share
    a's in-neighbourhood.  Equals ``extended_reachable_set`` once N2 holds."""
    n1, n2, in1 = tables.n1, tables.n2, tables.in1
    same_in: dict[int, int] = {}
    for b, m in enumerate(in1):
        same_in[m] = same_in.get(m, 0) | 1 << b
    out = []
    for a, n1a in enumerate(n1):
        q = 0
        for b in _bits(same_in[in1[a]]):
            if not n1[b] & ~n1a:
                q |= 1 << b
        out.append(n1a | n2[a] | q)
    return tuple(out)


@dataclass(frozen=True)
class Hierarchy:
    """Laminar family of bitsets over a ground set, with its Hasse tree.
    ``sets`` run from smallest to largest, so each set comes after its
    children; ``children`` lists them by lowest bit."""

    ground: int
    sets: tuple[int, ...]
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    root: int


def laminarity_witness(
    sets: tuple[frozenset[int], ...],
) -> tuple[frozenset[int], frozenset[int]] | None:
    """First pair of sets that overlap without nesting, if any (all pairs;
    the reference for the one pass in ``hasse_tree``)."""
    for s, t in itertools.combinations(sets, 2):
        if s & t and not (s <= t or t <= s):
            return s, t
    return None


def hasse_tree(ground: int, sets: Iterable[int]) -> Hierarchy | Rejection:
    """Hasse tree of a family of distinct bitsets, or a staged rejection:
    ``laminarity`` names a set and an earlier set it overlaps without
    nesting, ``hasse-not-tree`` the maximal sets unless the only one is
    ``ground``, ``sibling-overlap`` two overlapping children of one set.

    One pass from smallest to largest set.  The sets placed so far form a
    forest whose roots are disjoint; each new set must contain every root it
    meets, and becomes their parent.  ``first[c]`` is the smallest set that
    holds element c, and ``top`` (a union-find over set indices) leads from
    it to the root above it, so each set costs one step per root it meets.
    """
    order = tuple(sorted(sets, key=lambda s: (s.bit_count(), s)))
    parent = [-1] * len(order)
    top: list[int] = []
    first: dict[int, int] = {}
    covered = 0
    for i, s in enumerate(order):
        top.append(i)
        meets = s & covered
        while meets:
            r = first[(meets & -meets).bit_length() - 1]
            while top[r] != r:
                top[r] = top[top[r]]
                r = top[r]
            if order[r] & ~s:
                return Rejection("laminarity", (s, order[r]))
            parent[r] = top[r] = i
            meets &= ~order[r]
        for c in _bits(s & ~covered):
            first[c] = i
        covered |= s
    roots = [i for i, p in enumerate(parent) if p == -1]
    if len(roots) != 1 or order[roots[0]] != ground:
        return Rejection("hasse-not-tree", tuple(order[r] for r in roots))
    children: list[list[int]] = [[] for _ in order]
    for i, p in enumerate(parent):
        if p != -1:
            children[p].append(i)
    for kids in children:
        kids.sort(key=lambda i: order[i] & -order[i])
        seen = 0
        for i in kids:
            if order[i] & seen:
                earlier = next(j for j in kids if order[j] & order[i])
                return Rejection("sibling-overlap", (order[earlier], order[i]))
            seen |= order[i]
    return Hierarchy(
        ground=ground,
        sets=order,
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
    verdict, tables = _checked_tables(graph)
    if tables is None or not verdict:
        return Rejection("axioms", verdict)
    part = tables.partition
    r_ext = extended_reachable_masks(tables)
    hierarchy = hasse_tree((1 << len(part)) - 1, set(r_ext))
    if isinstance(hierarchy, Rejection):
        witness = tuple(_class_ids(part, m) for m in hierarchy.witness)
        return Rejection(hierarchy.stage, witness)
    return _attach_leaves(part, r_ext, hierarchy)


def _class_ids(part: ThinnessPartition, mask: int) -> tuple[str, ...]:
    """Vertex ids of the classes in ``mask``, sorted."""
    return tuple(sorted(v for a in _bits(mask) for v in part.class_ids(a)))


def _attach_leaves(
    part: ThinnessPartition, r_ext: tuple[int, ...], hierarchy: Hierarchy
) -> Topology:
    node_of = {s: i for i, s in enumerate(hierarchy.sets)}
    attached: list[list[str]] = [[] for _ in hierarchy.sets]
    for a, s in enumerate(r_ext):
        attached[node_of[s]].extend(part.class_ids(a))
    rep: list[Topology] = []
    for i, kids_at in enumerate(hierarchy.children):  # children before parents
        kids: list[Topology] = [rep[c] for c in kids_at]
        kids.extend(sorted(attached[i]))
        rep.append(tuple(kids) if len(kids) > 1 else kids[0])
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
