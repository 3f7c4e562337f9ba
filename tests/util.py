"""Shared test helpers: exhaustive enumerations and seeded random scenarios."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterable

from bmgraph import (
    ColoredDigraph,
    ColoredGraph,
    GraphError,
    LeafColoredTree,
    Rejection,
    RootedTriple,
    SimulationConfig,
    ThinnessPartition,
    connected_components,
    lrt_via_hierarchy,
    simulate,
)


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


def hierarchy_lrt(graph: ColoredDigraph) -> LeafColoredTree | Rejection:
    """The topology of ``lrt_via_hierarchy`` as a tree, or its rejection."""
    topology = lrt_via_hierarchy(graph)
    if isinstance(topology, Rejection):
        return topology
    return LeafColoredTree(topology, graph.colors_as_dict())


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
