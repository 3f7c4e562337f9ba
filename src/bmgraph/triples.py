"""Rooted triples: extraction from colored digraphs, Aho graphs, and BUILD.

A triple xy|z is informative for a two-colored digraph when the three
vertices induce one of the four forced patterns: an arc x->y together with
a missing arc x->z to a vertex of y's color pins lca(x,y) strictly below
lca(x,z).  Scanning (arc, third vertex) pairs enumerates exactly the induced
subgraphs that admit such a reading, including their recolored mirror
images, in O(|E| |L|).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bmg import bmg_of_tree
from .digraph import ColoredDigraph, connected_components, subgraph_on
from .errors import GraphError
from .tree import LeafColoredTree, Topology
from .verdicts import Rejection


@dataclass(frozen=True, order=True)
class RootedTriple:
    """Triple ab|z with the unordered pair stored smaller-id-first."""

    a: str
    b: str
    out: str

    @classmethod
    def of(cls, x: str, y: str, z: str) -> "RootedTriple":
        if len({x, y, z}) != 3:
            raise GraphError(f"triple needs three distinct leaves: {(x, y, z)}")
        a, b = (x, y) if x < y else (y, x)
        return cls(a, b, z)

    def __str__(self) -> str:
        return f"{self.a} {self.b} | {self.out}"


@dataclass(frozen=True)
class TripleSet:
    """Deduplicated rooted triples over a fixed leaf universe."""

    universe: frozenset[str]
    triples: frozenset[RootedTriple]

    def __post_init__(self) -> None:
        for t in self.triples:
            if not {t.a, t.b, t.out} <= self.universe:
                raise GraphError(f"triple {t} uses leaves outside the universe")

    @classmethod
    def of(cls, universe: Iterable[str], triples: Iterable[tuple[str, str, str]]) -> "TripleSet":
        return cls(
            universe=frozenset(universe),
            triples=frozenset(RootedTriple.of(*t) for t in triples),
        )

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[RootedTriple]:
        return iter(sorted(self.triples))

    def __contains__(self, item: object) -> bool:
        return item in self.triples

    def union(self, other: "TripleSet") -> "TripleSet":
        return TripleSet(self.universe | other.universe, self.triples | other.triples)

    def restrict(self, labels: Iterable[str]) -> "TripleSet":
        keep = frozenset(labels)
        return TripleSet(
            keep, frozenset(t for t in self.triples if {t.a, t.b, t.out} <= keep)
        )

    def to_lines(self) -> list[str]:
        return [str(t) for t in self]


def informative_triples(graph: ColoredDigraph) -> TripleSet:
    """All forced triples of a (two-)colored digraph, via the (arc, witness) scan."""
    ids = graph.vertex_ids
    by_color: dict[int, tuple[int, ...]] = {}
    for c in range(len(graph.color_ids)):
        by_color[c] = graph.vertices_of_color(c)
    found: set[RootedTriple] = set()
    for i in range(len(graph)):
        for j in graph.out_adj[i]:
            for z in by_color[graph.color_of[j]]:
                if z != j and z != i and z not in graph.out_adj[i]:
                    found.add(RootedTriple.of(ids[i], ids[j], ids[z]))
    return TripleSet(frozenset(ids), frozenset(found))


def aho_graph(triples: Iterable[RootedTriple], subset: Iterable[str]) -> dict[str, set[str]]:
    """Graph on ``subset`` joining the pair of every triple fully inside it."""
    keep = set(subset)
    adj: dict[str, set[str]] = {x: set() for x in keep}
    for t in triples:
        if t.a in keep and t.b in keep and t.out in keep:
            adj[t.a].add(t.b)
            adj[t.b].add(t.a)
    return adj


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def build(triples: TripleSet | Iterable[RootedTriple], leaves: Iterable[str]) -> Topology | None:
    """Aho tree of a triple set, or None when the set is inconsistent."""
    leaf_list = sorted(set(leaves))
    if not leaf_list:
        raise GraphError("BUILD needs at least one leaf")
    keep = set(leaf_list)
    active = [t for t in triples if t.a in keep and t.b in keep and t.out in keep]
    return _build(leaf_list, active)


def _build(leaves: list[str], triples: list[RootedTriple]) -> Topology | None:
    if len(leaves) == 1:
        return leaves[0]
    uf = _UnionFind(leaves)
    for t in triples:
        uf.union(t.a, t.b)
    comps: dict[str, list[str]] = {}
    for x in leaves:
        comps.setdefault(uf.find(x), []).append(x)
    if len(comps) == 1:
        return None
    kids = []
    for comp in sorted(comps.values(), key=lambda c: c[0]):
        members = set(comp)
        inside = [t for t in triples if t.a in members and t.out in members]
        sub = _build(comp, inside)
        if sub is None:
            return None
        kids.append(sub)
    return tuple(kids)


def build_from_trees(trees: list[LeafColoredTree], leaves: Iterable[str]) -> Topology | None:
    """BUILD on the union of the trees' displayed triples, without
    materializing them: at each level every input tree glues together the
    leaves sharing a child subtree of its restricted root."""
    leaf_list = sorted(set(leaves))
    if not leaf_list:
        raise GraphError("BUILD needs at least one leaf")
    spans = [frozenset(t.leaf_labels) for t in trees]
    return _build_st(leaf_list, trees, spans)


def _tree_blocks(tree: LeafColoredTree, members: list[str]) -> list[list[str]]:
    """Partition of ``members`` by the root children of the restricted tree."""
    nodes = [tree.leaf_node(lab) for lab in members]
    # node ids are preorder ranks: the extreme ids span the restricted root
    top = tree.lca(min(nodes), max(nodes))
    if tree.is_leaf(top):
        return [members]
    kids = tree.children[top]  # preorder ids ascend in canonical child order
    blocks: dict[int, list[str]] = {}
    for lab, node in zip(members, nodes):
        slot = kids[bisect_right(kids, node) - 1]
        blocks.setdefault(slot, []).append(lab)
    return list(blocks.values())


def _build_st(
    leaves: list[str], trees: list[LeafColoredTree], spans: list[frozenset[str]]
) -> Topology | None:
    if len(leaves) == 1:
        return leaves[0]
    here = set(leaves)
    uf = _UnionFind(leaves)
    for tree, span in zip(trees, spans):
        members = sorted(here & span)
        if len(members) < 2:
            continue
        for block in _tree_blocks(tree, members):
            for other in block[1:]:
                uf.union(block[0], other)
    comps: dict[str, list[str]] = {}
    for x in leaves:
        comps.setdefault(uf.find(x), []).append(x)
    if len(comps) == 1:
        return None
    kids = []
    for comp in sorted(comps.values(), key=lambda c: c[0]):
        sub = _build_st(comp, trees, spans)
        if sub is None:
            return None
        kids.append(sub)
    return tuple(kids)


def lrt_via_triples(graph: ColoredDigraph) -> LeafColoredTree | Rejection:
    """Aho tree of the informative triples, accepted only if it explains the
    graph; disconnected inputs get per-component trees under a fresh root."""
    comps = connected_components(graph)
    kids: list[Topology] = []
    for comp in comps:
        sub = graph if len(comps) == 1 else subgraph_on(graph, comp)
        topo = build(informative_triples(sub), sub.vertex_ids)
        if topo is None:
            return Rejection("inconsistent", tuple(graph.vertex_ids[v] for v in comp))
        kids.append(topo)
    topology = kids[0] if len(kids) == 1 else tuple(kids)
    tree = LeafColoredTree(topology, graph.colors_as_dict())
    if bmg_of_tree(tree) != graph:
        return Rejection("mismatch", tree)
    return tree
