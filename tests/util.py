"""Shared test helpers: exhaustive enumerations and seeded random scenarios."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Sequence

from bmgraph import (
    ColoredDigraph,
    ColoredGraph,
    GraphError,
    LeafColoredTree,
    Rejection,
    RootedTriple,
    SimulationConfig,
    ThinnessPartition,
    bmg_of_tree,
    connected_components,
    lrt_via_hierarchy,
    recognize_ncbmg,
    simulate,
    subgraph_on,
)
from bmgraph.tree import Topology
from bmgraph.two_color import Family, family_topology


def set_partitions(items: list):
    """All partitions of ``items`` into non-empty blocks."""
    if len(items) == 1:
        yield [items]
        return
    head, tail = items[0], items[1:]
    for part in set_partitions(tail):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


@lru_cache(maxsize=None)
def all_topologies(leaves: tuple[str, ...]) -> tuple:
    """Every rooted phylogenetic tree shape on the given labeled leaves."""
    if len(leaves) == 1:
        return (leaves[0],)
    out = []
    seen = set()
    for part in set_partitions(list(leaves)):
        if len(part) < 2:
            continue
        key = tuple(sorted(tuple(sorted(b)) for b in part))
        if key in seen:
            continue
        seen.add(key)
        options = [all_topologies(tuple(sorted(b))) for b in part]
        for combo in itertools.product(*options):
            out.append(tuple(combo))
    return tuple(out)


def color_partitions(n: int, max_colors: int):
    """Descending integer partitions of n into at most ``max_colors`` parts."""

    def rec(remaining, cap, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_colors:
            return
        for take in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - take, take, parts + [take])

    yield from rec(n, n, [])


def coloring_from_partition(leaves: tuple[str, ...], partition: tuple[int, ...]) -> dict[str, str]:
    colors = {}
    pos = 0
    for k, size in enumerate(partition):
        for leaf in leaves[pos : pos + size]:
            colors[leaf] = f"c{k}"
        pos += size
    return colors


def random_scenario(seed: int, max_leaves: int = 40, max_colors: int = 6):
    """Deterministic random tree/graph pair with mixed shapes and sizes."""
    rng = random.Random(seed)
    n = rng.randint(2, max_leaves)
    k = rng.randint(2, min(max_colors, n))
    shape = "binary" if rng.random() < 0.5 else "multifurcating"
    return simulate(SimulationConfig(n, k, rng.getrandbits(48), shape=shape))


def connected_scenario(seed: int, colors: int = 2, max_leaves: int = 16):
    """Simulated tree whose best match graph is connected."""
    for attempt in itertools.count():
        rng = random.Random(seed * 1_000_003 + attempt)
        n = rng.randint(max(2, colors), max_leaves)
        tree, graph = simulate(
            SimulationConfig(n, colors, rng.getrandbits(48), shape="multifurcating")
        )
        if len(connected_components(graph)) == 1:
            return tree, graph


def random_binary_refinement(tree: LeafColoredTree, rng: random.Random) -> LeafColoredTree:
    """Resolve every multifurcation into random binary joins."""

    def go(topo):
        if isinstance(topo, str):
            return topo
        kids = [go(k) for k in topo]
        while len(kids) > 2:
            a = kids.pop(rng.randrange(len(kids)))
            b = kids.pop(rng.randrange(len(kids)))
            kids.append((a, b))
        return tuple(kids)

    return LeafColoredTree(go(tree.topology()), tree.colors)


def arc_ids(graph: ColoredDigraph) -> set[tuple[str, str]]:
    return {(graph.vertex_ids[i], graph.vertex_ids[j]) for i, j in graph.arcs()}


def class_members(part: ThinnessPartition, mask: int) -> frozenset[int]:
    """Vertices of the thinness classes in a class bitset."""
    return frozenset(v for a, cls in enumerate(part.classes) if mask >> a & 1 for v in cls)


def reference_pair_lrt(gst: ColoredDigraph) -> LeafColoredTree | Rejection:
    """Least resolved tree of a two-colored graph, composed from graph copies:
    sinks first, then ``lrt_via_hierarchy`` on a subgraph copy of each weakly
    connected component.  The reference ``two_color.pair_topology`` is
    tested against."""
    for v in range(len(gst)):
        if not gst.out_adj[v]:
            return Rejection("sink-vertex", gst.vertex_ids[v])
    comps = connected_components(gst)
    topos = []
    for comp in comps:
        piece = gst if len(comps) == 1 else subgraph_on(gst, comp)
        topo = lrt_via_hierarchy(piece)
        if isinstance(topo, Rejection):
            return topo
        topos.append(topo)
    topology = topos[0] if len(topos) == 1 else tuple(topos)
    return LeafColoredTree(topology, gst.colors_as_dict())


def family_tree(family: Family | Rejection, graph: ColoredDigraph) -> LeafColoredTree | Rejection:
    """A cluster family over ``graph``'s vertex indices as a tree; a
    rejection passes through."""
    if isinstance(family, Rejection):
        return family
    return LeafColoredTree(family_topology(family, graph.vertex_ids), graph.colors_as_dict())


def tree_family(tree: LeafColoredTree, leaves: Sequence[str]) -> Family:
    """A tree as a cluster family, leaf ``leaves[v]`` at bit v."""
    bit = {x: 1 << v for v, x in enumerate(leaves)}
    built: dict[int, Family] = {}
    for v in reversed(tree.nodes()):  # preorder ids: kids come after their parent
        if tree.is_leaf(v):
            built[v] = (bit[tree.label[v]], ())
        else:
            kids = tuple(built[c] for c in tree.children[v])
            built[v] = (sum(kid[0] for kid in kids), kids)
    return built[tree.root]


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


def tree_glue_build(trees: list[LeafColoredTree], leaves: Iterable[str]) -> Topology | None:
    """BUILD on the union of the trees' displayed triples, gluing on string
    labels: at each level every tree joins the leaves that share a child of
    its restricted root.  The reference ``build_from_trees`` is tested
    against."""
    leaf_list = sorted(set(leaves))
    spans = [frozenset(t.leaf_labels) for t in trees]
    return _build_st(leaf_list, trees, spans)


def _tree_blocks(tree: LeafColoredTree, members: list[str]) -> list[list[str]]:
    """Partition of ``members`` by the root children of the restricted tree."""
    nodes = [tree.leaf_node(lab) for lab in members]
    top = tree.lca_set(nodes)
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


def hierarchy_lrt(graph: ColoredDigraph) -> LeafColoredTree | Rejection:
    """The topology of ``lrt_via_hierarchy`` as a tree, or its rejection."""
    topology = lrt_via_hierarchy(graph)
    if isinstance(topology, Rejection):
        return topology
    return LeafColoredTree(topology, graph.colors_as_dict())


def direct_lrt(graph: ColoredDigraph) -> LeafColoredTree | Rejection:
    """Least resolved tree of the direct (informative triples) route, or its
    rejection."""
    report = recognize_ncbmg(graph, route="informative-direct")
    return report.lrt if report.accepted else report.rejection


def class_roots(tree: LeafColoredTree, graph: ColoredDigraph, part: ThinnessPartition) -> list[int]:
    """Tree node at which each thinness class is rooted: lca of the class and
    its out-neighborhood."""
    roots = []
    for a in range(len(part)):
        nodes = [tree.leaf_node(graph.vertex_ids[v]) for v in part.classes[a]]
        nodes += [tree.leaf_node(graph.vertex_ids[v]) for v in part.vertex_out(a)]
        roots.append(tree.lca_set(nodes))
    return roots


def contractible_edges(tree: LeafColoredTree, graph: ColoredDigraph) -> frozenset[tuple[int, int]]:
    """Inner edges of ``tree`` whose contraction alone leaves its best match
    graph equal to ``graph``: the definition of a redundant edge."""
    return frozenset(
        e for e in tree.inner_edges() if bmg_of_tree(tree.contract_edges([e])) == graph
    )


def coloured_trees(max_leaves: int, colors: int):
    """Every tree on 2..``max_leaves`` leaves ``v0, v1, ...`` under every
    colouring by ``c0 .. c{colors-1}`` that uses at least two colours."""
    for n in range(2, max_leaves + 1):
        ids = tuple(f"v{v}" for v in range(n))
        for topo in all_topologies(ids):
            for coloring in itertools.product(range(colors), repeat=n):
                if len(set(coloring)) > 1:
                    yield LeafColoredTree(topo, {x: f"c{c}" for x, c in zip(ids, coloring)})


def caterpillar(n: int, colors: int = 2) -> LeafColoredTree:
    """Caterpillar ``(((l0,l1),l2),...)`` whose leaf colors cycle through
    ``colors`` colors; built bottom-up, so any depth is fine."""
    width = len(str(n - 1))
    names = [f"l{i:0{width}d}" for i in range(n)]
    topology = names[0]
    for name in names[1:]:
        topology = (topology, name)
    return LeafColoredTree(topology, {name: f"c{i % colors}" for i, name in enumerate(names)})


def connected_sink_free_out_masks(reds: int, blues: int):
    """Out-neighbourhood bitmasks of every connected two-colored digraph on
    ``reds`` + ``blues`` vertices with no sink (reds are vertices 0..reds-1)."""
    n = reds + blues
    full = (1 << n) - 1
    red_mask, blue_mask = (1 << reds) - 1, full ^ ((1 << reds) - 1)
    options = []
    for v in range(n):
        foreign = blue_mask if v < reds else red_mask
        options.append([m for m in range(1, full + 1) if m & ~foreign == 0])
    for outs in itertools.product(*options):
        und = list(outs)
        for v, out in enumerate(outs):
            for w in range(n):
                if out >> w & 1:
                    und[w] |= 1 << v
        seen = frontier = 1
        while frontier:
            reach = 0
            for v in range(n):
                if frontier >> v & 1:
                    reach |= und[v]
            frontier = reach & ~seen
            seen |= reach
        if seen == full:
            yield outs


def foreign_arc_out_masks(sizes: tuple[int, ...]):
    """Out-neighbourhood bitmasks of every digraph on colour classes of the
    given sizes, vertices numbered colour by colour, in which each vertex has
    an arc into every other colour and none inside its own, as in every
    best match graph."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    masks = [(1 << hi) - (1 << lo) for lo, hi in zip(bounds, bounds[1:])]
    subsets = [[m for m in range(1, mask + 1) if m & ~mask == 0] for mask in masks]
    options = []
    for c, size in enumerate(sizes):
        others = [subsets[d] for d in range(len(sizes)) if d != c]
        options.extend([[sum(combo) for combo in itertools.product(*others)]] * size)
    return itertools.product(*options)


def pair_bmg_product_out_masks(sizes: tuple[int, ...]):
    """Out-neighbourhood bitmasks, vertices numbered colour by colour, of
    every graph on colour classes of the given sizes whose subgraph on each
    colour pair is the best match graph of some two-coloured tree."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    options = []
    for c, d in itertools.combinations(range(len(sizes)), 2):
        # fewer than ten leaves, so vertex index k of a pair graph is leaf vk
        ids, colors = coloured_leaves((sizes[c], sizes[d]))
        place = [*range(bounds[c], bounds[c + 1]), *range(bounds[d], bounds[d + 1])]
        rows = set()
        for topo in all_topologies(ids):
            row = [0] * bounds[-1]
            for k, out in enumerate(bmg_of_tree(LeafColoredTree(topo, colors)).out_adj):
                row[place[k]] = sum(1 << place[w] for w in out)
            rows.add(tuple(row))
        options.append(sorted(rows))
    for choice in itertools.product(*options):
        yield tuple(reduce(or_, masks) for masks in zip(*choice))


def coloured_graph(sizes: tuple[int, ...], outs: tuple[int, ...]) -> ColoredDigraph:
    """Digraph on vertices ``v0, v1, ...`` coloured ``c0`` for the first
    ``sizes[0]`` of them and so on, with out-neighbourhood bitmasks ``outs``."""
    ids, colors = coloured_leaves(sizes)
    n = len(ids)
    return ColoredDigraph(
        colors, [(ids[v], ids[w]) for v in range(n) for w in range(n) if outs[v] >> w & 1]
    )


def coloured_leaves(sizes: tuple[int, ...]) -> tuple[tuple[str, ...], dict[str, str]]:
    """Leaf ids ``v0, v1, ...`` and their colours, ``sizes[0]`` of colour c0 first."""
    ids = tuple(f"v{v}" for v in range(sum(sizes)))
    return ids, coloring_from_partition(ids, sizes)


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


def aho_graph(triples: Iterable[RootedTriple], subset: Iterable[str]) -> dict[str, set[str]]:
    """Graph on ``subset`` joining the pair of every triple fully inside it."""
    keep = set(subset)
    adj: dict[str, set[str]] = {x: set() for x in keep}
    for t in triples:
        if t.a in keep and t.b in keep and t.out in keep:
            adj[t.a].add(t.b)
            adj[t.b].add(t.a)
    return adj
