"""Shared test helpers: exhaustive enumerations and seeded random scenarios."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from contextlib import contextmanager
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Sequence

from bmgraph import (
    CheckResult,
    ClassNeighborhoodTables,
    ColoredDigraph,
    LeafColoredTree,
    Rejection,
    RootedTriple,
    SimulationConfig,
    ThinnessPartition,
    TripleSet,
    bmg_of_tree,
    connected_components,
    lrt_via_hierarchy,
    reachable_set,
    recognize_ncbmg,
    redundant_edges_n,
    simulate,
    subgraph_on,
    symmetric_part,
)
from bmgraph import n_color, triples, two_color
from bmgraph.digraph import _blocks, bits, scan_bits
from bmgraph.errors import ParseError, TreeError
from bmgraph.tree import _FORBIDDEN_LABEL_CHARS, Topology, _is_token
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


def reference_format_graph(graph: ColoredDigraph) -> str:
    """Graph file text with all ``A x y`` lines sorted as strings at once:
    the reference ``graphio.format_graph`` is tested against."""
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(graph.vertex_ids)]
    lines += sorted(f"A {graph.vertex_ids[i]} {graph.vertex_ids[j]}" for i, j in graph.arcs())
    return "\n".join(lines) + "\n"


def arc_ids(graph: ColoredDigraph) -> set[tuple[str, str]]:
    return {(graph.vertex_ids[i], graph.vertex_ids[j]) for i, j in graph.arcs()}


def class_ids(part: ThinnessPartition, a: int) -> tuple[str, ...]:
    """Vertex ids of thinness class ``a``."""
    return tuple(part.graph.vertex_ids[i] for i in part.classes[a])


def no_in_classes(part: ThinnessPartition) -> tuple[int, ...]:
    """Classes with empty in-neighborhood (the set called W)."""
    return tuple(a for a in range(len(part.classes)) if not part.in_classes[a])


def restrict_triples(triples: TripleSet, labels: Iterable[str]) -> TripleSet:
    """The triples of ``triples`` on three leaves of ``labels``, over ``labels``."""
    keep = frozenset(labels)
    return TripleSet(keep, frozenset(t for t in triples.triples if {t.a, t.b, t.out} <= keep))


def class_members(part: ThinnessPartition, mask: int) -> frozenset[int]:
    """Vertices of the thinness classes in a class bitset."""
    return frozenset(v for a, cls in enumerate(part.classes) if mask >> a & 1 for v in cls)


def reference_pair_lrt(gst: ColoredDigraph) -> LeafColoredTree | Rejection:
    """Least resolved tree of a two-colored graph, composed from graph copies:
    sinks first, then ``lrt_via_hierarchy`` on a subgraph copy of each weakly
    connected component.  The reference ``two_color.pair_topology`` is
    tested against."""
    for v in range(len(gst)):
        if not gst.out_masks[v]:
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
    """A tree as a cluster family with a leaf node per leaf, leaf
    ``leaves[v]`` at bit v."""
    bit = {x: 1 << v for v, x in enumerate(leaves)}
    built: dict[int, Family] = {}
    for v in reversed(tree.nodes()):  # preorder ids: kids come after their parent
        if is_leaf(tree, v):
            built[v] = (bit[tree.label[v]], ())
        else:
            kids = tuple(built[c] for c in tree.children[v])
            built[v] = (sum(kid[0] for kid in kids), kids)
    return built[tree.root]


# -- tree queries and displays, by preorder ids -------------------------------


@lru_cache(maxsize=256)
def subtree_sizes(tree: LeafColoredTree) -> tuple[int, ...]:
    """Nodes below each node, itself included: preorder ids make the subtree
    of v the id range ``[v, v + size[v])``."""
    size = [1] * len(tree.parent)
    for v in range(len(size) - 1, 0, -1):  # children come after their parent
        size[tree.parent[v]] += size[v]
    return tuple(size)


def _check_nodes(tree: LeafColoredTree, *nodes: int) -> None:
    if not all(0 <= v < len(tree.parent) for v in nodes):
        raise TreeError(f"node out of range: {nodes}")


def is_leaf(tree: LeafColoredTree, v: int) -> bool:
    return tree.label[v] is not None


def inner_nodes(tree: LeafColoredTree) -> list[int]:
    return [v for v in tree.nodes() if tree.label[v] is None]


def leaves_under(tree: LeafColoredTree, v: int) -> list[int]:
    _check_nodes(tree, v)
    return [w for w in range(v, v + subtree_sizes(tree)[v]) if tree.label[w] is not None]


def is_ancestor(tree: LeafColoredTree, anc: int, v: int) -> bool:
    """True iff ``anc`` lies on the path from the root to ``v`` (inclusive)."""
    _check_nodes(tree, anc, v)
    return anc <= v < anc + subtree_sizes(tree)[anc]


def lca(tree: LeafColoredTree, u: int, v: int) -> int:
    _check_nodes(tree, u, v)
    if u > v:
        u, v = v, u
    # For u <= v, an ancestor a of v is one of u iff a <= u, and an ancestor
    # b of u is one of v iff v < b + size[b].  Climb both root paths in
    # step; the first node that closes the range is the lca.
    parent, size = tree.parent, subtree_sizes(tree)
    a, b = v, u
    while a > u:
        if b + size[b] > v:
            return b
        a, b = parent[a], parent[b]
    return a


def lca_set(tree: LeafColoredTree, nodes: Iterable[int]) -> int:
    # a subtree is a preorder range: it holds the set iff it holds both ends
    ids = list(nodes)
    if not ids:
        raise TreeError("lca of an empty node set")
    return lca(tree, min(ids), max(ids))


def restrict(tree: LeafColoredTree, labels: Iterable[str]) -> LeafColoredTree:
    """The tree on the leaves ``labels``, degree-two vertices suppressed."""
    keep = set(labels)
    if not keep:
        raise TreeError("restriction to an empty leaf set")
    unknown = keep - set(tree.leaf_labels)
    if unknown:
        raise TreeError(f"unknown leaves in restriction: {sorted(unknown)}")
    rep: list[object] = [None] * len(tree.parent)
    for v in reversed(tree.nodes()):
        lab = tree.label[v]
        if lab is not None:
            rep[v] = lab if lab in keep else None
        else:
            kids = [rep[c] for c in tree.children[v] if rep[c] is not None]
            rep[v] = None if not kids else kids[0] if len(kids) == 1 else tuple(kids)
    # keep is a non-empty set of the tree's leaves, so the root has a topology
    return LeafColoredTree(rep[tree.root], {lab: tree.colors[lab] for lab in keep})


def triple_tuples(tree: LeafColoredTree) -> set[tuple[str, str, str]]:
    """All rooted triples xy|z displayed by the tree, as (x, y, z) with x < y."""
    label, size = tree.label, subtree_sizes(tree)
    out: set[tuple[str, str, str]] = set()
    for w in inner_nodes(tree):
        if w == tree.root:
            continue
        # xy|z iff lca(x, y) = w for x, y under different children of w and
        # z lies outside w
        end = w + size[w]
        outside = [z for z in label[:w] + label[end:] if z is not None]
        groups = [[x for x in label[c : c + size[c]] if x is not None] for c in tree.children[w]]
        for left, right in itertools.combinations(groups, 2):
            for x, y in itertools.product(left, right):
                if x > y:
                    x, y = y, x
                out.update((x, y, z) for z in outside)
    return out


def displays(tree: LeafColoredTree, other: LeafColoredTree) -> bool:
    """True iff ``other`` arises from a restriction of ``tree`` by contractions."""
    extra = set(other.leaf_labels) - set(tree.leaf_labels)
    if extra:
        raise TreeError(f"displayed-tree leaves missing here: {sorted(extra)}")
    clash = [lab for lab in other.leaf_labels if tree.colors[lab] != other.colors[lab]]
    if clash:
        raise TreeError(f"color mismatch on shared leaves: {clash}")
    return triple_tuples(other) <= triple_tuples(restrict(tree, other.leaf_labels))


def rbmg_of_tree(tree: LeafColoredTree) -> ColoredDigraph:
    """Reciprocal best matches: the symmetric part of the best match digraph."""
    return symmetric_part(bmg_of_tree(tree))


def class_reachable_set(partition: ThinnessPartition, a: int) -> frozenset[int]:
    return reachable_set(partition.graph, partition.classes[a])


# -- the pair layer's steps one function each: references for pair_topology --


# A colour pair's thinness classes as vertex bitsets by smallest member, its
# class tables, and its weakly connected pieces as class bitsets.
PairClasses = tuple[list[int], ClassNeighborhoodTables, list[int]]


def pair_classes(graph: ColoredDigraph, ground: int) -> PairClasses | Rejection:
    """Thinness classes, class tables and pieces of the subgraph that the
    vertex mask ``ground`` induces, or its first sink, as ``pair_topology``
    reads them: classes keyed by both neighbourhoods within ``ground`` and
    numbered by smallest vertex, each out-key listed once as the classes
    whose smallest vertices it holds, the in-tables as the transpose of
    those lists, and the pieces, by smallest vertex, from the class tables."""
    outs, ins = graph.out_masks, graph.in_masks
    index: dict[tuple[int, int], int] = {}
    masks: list[int] = []
    for v in bits(ground):
        out = outs[v] & ground
        if not out:
            return Rejection("sink-vertex", graph.vertex_ids[v])
        a = index.setdefault((out, ins[v] & ground), len(masks))
        if a == len(masks):
            masks.append(0)
        masks[a] |= 1 << v

    lows = [m & -m for m in masks]
    label = dict(zip([low.bit_length() - 1 for low in lows], range(len(masks)))).__getitem__
    reps = sum(lows)
    lists = [list(map(label, scan_bits(out & reps))) for out, _ in index]
    bit = [1 << a for a in range(len(masks))]
    n1 = [sum(map(bit.__getitem__, row)) for row in lists]
    in1, n2 = [0] * len(masks), []
    for row, bit_a in zip(lists, bit):
        here = 0
        for b in row:
            in1[b] |= bit_a
            here |= n1[b]
        n2.append(here)
    in2, n3 = [0] * len(masks), []
    for row, in1_a in zip(lists, in1):
        here = 0
        for b in row:
            in2[b] |= in1_a
            here |= n2[b]
        n3.append(here)
    tables = ClassNeighborhoodTables(tuple(n1), tuple(n2), tuple(n3), tuple(in1), tuple(in2))
    return masks, tables, _blocks((1 << len(masks)) - 1, (out | 1 << a for a, out in enumerate(n1)))


def axiom_check(
    graph: ColoredDigraph, masks: list[int], tables: ClassNeighborhoodTables, pieces: list[int]
) -> CheckResult:
    """N2, N3, N1 on the classes of each of ``pieces`` in turn, class bitsets
    that no class neighbourhood crosses, so a class can only break N1 or N3
    together with a class of its own piece, and the first piece to fail
    names the violation; each loop visits the later classes b > a of a's
    piece that the premise of its axiom leaves open."""
    n1, n2, n3, in1, in2 = tables.n1, tables.n2, tables.n3, tables.in1, tables.in2

    def fail(stage: str, *witness: int) -> CheckResult:
        ids = tuple(two_color._class_ids(graph, masks, 1 << a) for a in witness)
        return CheckResult(False, stage, ids if len(ids) > 1 else ids[0])

    color_of = graph.color_of
    tops = [color_of[m.bit_length() - 1] for m in masks]  # a class's colour is that of its highest vertex
    first_color = sum(1 << a for a, c in enumerate(tops) if c == tops[0])
    for piece in pieces:
        classes = list(bits(piece))
        for a in classes:
            if n3[a] & ~n1[a]:
                return fail("N2", a)
        for a in classes:
            n1a = n1[a]
            same_color = piece & (first_color if first_color >> a & 1 else ~first_color)
            for b in bits(same_color & ~n2[a] & ~in2[a] & ~((2 << a) - 1)):
                n1b = n1[b]
                if n1a & n1b and not (in1[a] == in1[b] and (not n1a & ~n1b or not n1b & ~n1a)):
                    return fail("N3", a, b)
        for a in classes:
            n1a, n2a = n1[a], n2[a]
            other = piece & (~first_color if first_color >> a & 1 else first_color)
            for b in bits(other & ~n1a & ~in1[a] & ~((2 << a) - 1)):
                if n1a & n2[b] or n1[b] & n2a:
                    return fail("N1", a, b)
    return CheckResult(True)


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
        for b in bits(same_in[in1[a]]):
            if not n1[b] & ~n1a:
                q |= 1 << b
        out.append(n1a | n2[a] | q)
    return tuple(out)


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
    top = lca_set(tree, nodes)
    if is_leaf(tree, top):
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


def single_arc_flips(graph: ColoredDigraph, seed: int, count: int) -> list[ColoredDigraph]:
    """``count`` seeded single-arc flips of ``graph``, half of them deleting
    an arc and half adding one between two colours."""
    rng = random.Random(seed)
    colors, arcs = graph.colors_as_dict(), arc_ids(graph)
    deleted = rng.sample(sorted(arcs), count // 2)
    added: set[tuple[str, str]] = set()
    while len(added) < count - count // 2:
        x, y = rng.sample(graph.vertex_ids, 2)
        if colors[x] != colors[y] and (x, y) not in arcs:
            added.add((x, y))
    return [ColoredDigraph(colors, arcs ^ {arc}) for arc in deleted + sorted(added)]


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


@contextmanager
def pair_layer_only():
    """While the block runs, the direct candidate of each component fails,
    so that on three or more colours the pairwise route runs its full
    pair-layer candidate and its gate, with no direct tree to vouch for a
    colour pair, as when the pair layer decides the graph alone."""
    real = n_color.build
    n_color.build = lambda graph, ground, counts=None, forced=None: None
    try:
        yield
    finally:
        n_color.build = real


def pair_layer_report(graph: ColoredDigraph) -> n_color.RecognitionReport:
    """The pairwise route's report with the pair layer deciding every graph
    (``pair_layer_only``).  On one or two colours no direct attempt runs,
    and this is ``recognize_ncbmg`` itself."""
    with pair_layer_only():
        return recognize_ncbmg(graph, route="pairwise-lrt")


def agrees_with_pair_layer(graph: ColoredDigraph, report: n_color.RecognitionReport) -> bool:
    """Whether a pairwise-route ``report`` of ``graph`` is the one its full
    pair-layer candidate gives (``pair_layer_report``): on accept the same
    least resolved tree and pair notes, the tree with no redundant edge; on
    a rejection the same stage, witness and pair notes."""
    alone = pair_layer_report(graph)
    if report.accepted:
        same = alone.accepted and (report.lrt, report.pair_verdicts) == (alone.lrt, alone.pair_verdicts)
        return same and not redundant_edges_n(report.lrt, graph)
    return (report.stage, report.witness, report.pair_verdicts) == (alone.stage, alone.witness, alone.pair_verdicts)


def class_roots(tree: LeafColoredTree, graph: ColoredDigraph, part: ThinnessPartition) -> list[int]:
    """Tree node at which each thinness class is rooted: lca of the class and
    its out-neighborhood."""
    roots = []
    for a in range(len(part)):
        nodes = [tree.leaf_node(graph.vertex_ids[v]) for v in part.classes[a]]
        nodes += [tree.leaf_node(graph.vertex_ids[v]) for v in part.vertex_out(a)]
        roots.append(lca_set(tree, nodes))
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


def gene_families(families: int) -> tuple[list[ColoredDigraph], ColoredDigraph]:
    """Many gene families: the BMGs of ``simulate(SimulationConfig(50, 5,
    seed))`` for seeds 1 to ``families``, each with its ids prefixed by
    ``f<seed>.``, and their disjoint union, a BMG as every family uses all
    five colours.  Prefixes are zero-padded, so the union lists the families
    in seed order, each in its own vertex order."""
    width = len(str(families))
    parts, union_colors, union_arcs = [], {}, []
    for seed in range(1, families + 1):
        _, graph = simulate(SimulationConfig(50, 5, seed))
        ids = [f"f{seed:0{width}d}.{v}" for v in graph.vertex_ids]
        part_colors = {v: graph.color_name(i) for i, v in enumerate(ids)}
        part_arcs = [(ids[i], ids[j]) for i, j in graph.arcs()]
        parts.append(ColoredDigraph(part_colors, part_arcs))
        union_colors.update(part_colors)
        union_arcs += part_arcs
    return parts, ColoredDigraph(union_colors, union_arcs)


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
            for k, out in enumerate(bmg_of_tree(LeafColoredTree(topo, colors)).out_masks):
                row[place[k]] = sum(1 << place[w] for w in bits(out))
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


def undirected_graph(colors: dict[str, str], edges: Iterable[tuple[str, str]]) -> ColoredDigraph:
    """Undirected colored graph as the symmetric digraph holding both arcs
    of each edge."""
    return ColoredDigraph(colors, [arc for x, y in edges for arc in ((x, y), (y, x))])


def edge_ids(graph: ColoredDigraph) -> set[tuple[str, str]]:
    """Edges of a symmetric digraph, each as its arc ``(x, y)`` with x < y."""
    return {(x, y) for x, y in arc_ids(graph) if x < y}


def aho_graph(triples: Iterable[RootedTriple], subset: Iterable[str]) -> dict[str, set[str]]:
    """Graph on ``subset`` joining the pair of every triple fully inside it."""
    keep = set(subset)
    adj: dict[str, set[str]] = {x: set() for x in keep}
    for t in triples:
        if t.a in keep and t.b in keep and t.out in keep:
            adj[t.a].add(t.b)
            adj[t.b].add(t.a)
    return adj


def reference_build(triples: Sequence[RootedTriple], leaves: Sequence[str]) -> Topology | None:
    """BUILD (Aho et al. 1981) by recursion over Aho graphs, a reference for
    ``triples.build`` that shares no code with it: the tree on ``leaves`` of
    the triples inside them, or None when none displays them.  Components
    are listed by their first leaf in the order of ``leaves``, which keep
    that order inside each, so leaves in index order give build's output."""
    if len(leaves) == 1:
        return leaves[0]
    adj = aho_graph(triples, leaves)
    component: dict[str, str] = {}  # per leaf, the leaf its search started from
    for start in leaves:
        if start in component:
            continue
        component[start], todo = start, [start]
        while todo:
            for y in adj[todo.pop()]:
                if y not in component:
                    component[y] = start
                    todo.append(y)
    starts = list(dict.fromkeys(component[x] for x in leaves))
    if len(starts) == 1:
        return None
    kids = [reference_build(triples, [x for x in leaves if component[x] == s]) for s in starts]
    return None if None in kids else tuple(kids)


def reference_parse_newick(text: str) -> Topology:
    """Nested-tuple topology of a rooted Newick string, read character by
    character: the reference ``graphio.parse_newick`` is tested against."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty tree file", 1, 1)
    stack: list[list[Topology]] = []
    current: list[Topology] = []
    token = ""
    closed = False  # an element (label or group) just finished
    done_at: int | None = None

    def flush() -> None:
        nonlocal token, closed
        if token:
            current.append(token)
            token = ""
            closed = True

    for col, ch in enumerate(stripped, start=1):
        if done_at is not None and not ch.isspace():
            raise ParseError("content after ';'", 1, col)
        if ch == "(":
            if token or closed:
                raise ParseError("'(' directly after an element", 1, col)
            stack.append(current)
            current = []
        elif ch == ",":
            flush()
            if not stack:
                raise ParseError("',' outside parentheses", 1, col)
            if not closed:
                raise ParseError("empty element before ','", 1, col)
            closed = False
        elif ch == ")":
            flush()
            if not stack:
                raise ParseError("unbalanced ')'", 1, col)
            if not closed:
                raise ParseError("empty element before ')'", 1, col)
            group = tuple(current)
            current = stack.pop()
            current.append(group if len(group) > 1 else group[0])
            closed = True
        elif ch == ";":
            flush()
            if stack:
                raise ParseError("unbalanced '(' before ';'", 1, col)
            done_at = col
        elif ch.isspace():
            if token:
                raise ParseError("whitespace inside label", 1, col)
        elif ch == "#":
            raise ParseError("'#' not allowed in newick", 1, col)
        else:
            if closed:
                raise ParseError("label directly after ')'", 1, col)
            token += ch
    if done_at is None:
        raise ParseError("missing ';' terminator", 1, len(stripped))
    if len(current) != 1:
        raise ParseError("newick must describe exactly one tree", 1, done_at)
    return current[0]


def reference_layout(topology: Topology) -> tuple[list[int], list[tuple[int, ...]], list[str | None]]:
    """Canonical parent/children/label arrays of a nested-tuple topology,
    rooted at 0, each element checked as it is allocated: the reference
    ``tree._layout`` is tested against.

    Each vertex is allocated after its parent, and one-element tuples are
    unwrapped on the way: that is the suppression of degree-two vertices and
    single-child roots.  Kids come after their parent, so one reverse scan
    over allocation order sorts every child list by smallest leaf label;
    then the vertices are renumbered in preorder.
    """
    parent: list[int] = []
    kids: list[list[int]] = []
    label: list[str | None] = []
    seen: set[str] = set()
    work: list[tuple[Topology, int]] = [(topology, -1)]
    while work:
        topo, par = work.pop()
        while isinstance(topo, tuple) and len(topo) == 1:
            topo = topo[0]
        v = len(parent)
        parent.append(par)
        kids.append([])
        if par >= 0:
            kids[par].append(v)
        if isinstance(topo, str):
            if not _is_token(topo, _FORBIDDEN_LABEL_CHARS):
                raise TreeError(f"illegal leaf label {topo!r}")
            if topo in seen:
                raise TreeError(f"duplicate leaf label {topo!r}")
            seen.add(topo)
            label.append(topo)
        elif isinstance(topo, tuple):
            if not topo:
                raise TreeError("empty inner node in topology")
            label.append(None)
            work.extend((sub, v) for sub in topo)
        else:
            raise TreeError(f"bad topology element: {topo!r}")

    first = label[:]  # smallest leaf label below each vertex
    for v in reversed(range(len(parent))):
        if label[v] is None:
            below = kids[v]
            below.sort(key=first.__getitem__)  # type: ignore[arg-type]
            first[v] = first[below[0]]

    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    new_parent = [-1] + [rank[parent[v]] for v in order[1:]]
    new_children = [tuple(map(rank.__getitem__, kids[v])) for v in order]
    return new_parent, new_children, [label[v] for v in order]


@contextmanager
def build_work():
    """Count the work of both BUILDs and of the pair layer while the block
    runs, by wrapping ``triples``, ``two_color`` and ``n_color`` functions
    from outside: ``chunks`` glued by the merge, inner ``levels`` that run a
    merge (the direct route settles a block of at most two leaves without
    one), ``_lca`` calls, glue-source ``visits`` (the sources each
    direct-route level is handed), and in the pair layer the colour pairs
    that ``pair_topology`` keys into classes (``pair_classes``), the
    sink-free ones among them, whose pieces ``two_color._blocks`` finds
    right before the axioms run on them (``axiom_checks``), with the
    ``classes`` it is handed, the calls of ``hasse_forest`` (``hasse_passes``), of
    ``two_color.scan_bits`` (``scans``) and of ``two_color.bits``
    (``walks``).  The component split runs the merge through ``digraph``'s
    own binding, so its chunks are not counted."""
    pair_layer = {
        "_blocks": "axiom_checks", "hasse_forest": "hasse_passes", "scan_bits": "scans", "bits": "walks",
    }
    counted_names = ("chunks", "levels", "lca", "visits", "classes", "pair_classes", *pair_layer.values())
    counts = dict.fromkeys(counted_names, 0)
    real = {name: getattr(triples, name) for name in ("_blocks", "_with_singletons", "_lca", "_glue")}
    real_pair = {name: getattr(two_color, name) for name in pair_layer}
    real_pairs = {module: module.pair_topology for module in (two_color, n_color)}  # n_color binds it by name

    def counted(name):
        def wrapper(*args):
            counts[pair_layer[name]] += 1
            if name == "_blocks":
                counts["classes"] += args[0].bit_count()
            return real_pair[name](*args)

        return wrapper

    def decided(module):
        def wrapper(*args):
            counts["pair_classes"] += 1
            return real_pairs[module](*args)

        return wrapper

    def ticked(chunks):
        for chunk in chunks:
            counts["chunks"] += 1
            yield chunk

    def blocks(level, glued):
        counts["levels"] += 1
        return real["_blocks"](level, ticked(glued))

    def with_singletons(level, found):
        counts["levels"] += 1
        return real["_with_singletons"](level, found)

    def lca(node, inside):
        counts["lca"] += 1
        return real["_lca"](node, inside)

    def glue(level, sources):
        counts["visits"] += len(sources)
        return real["_glue"](level, sources)

    wrappers = {"_blocks": blocks, "_with_singletons": with_singletons, "_lca": lca, "_glue": glue}
    for name, wrapper in wrappers.items():
        setattr(triples, name, wrapper)
    for name in pair_layer:
        setattr(two_color, name, counted(name))
    for module in real_pairs:
        module.pair_topology = decided(module)
    try:
        yield counts
    finally:
        for name, function in real.items():
            setattr(triples, name, function)
        for name, function in real_pair.items():
            setattr(two_color, name, function)
        for module, function in real_pairs.items():
            module.pair_topology = function
