"""Rooted triples: extraction from colored digraphs, and BUILD.

A triple xy|z is informative for a two-colored digraph when the three
vertices induce one of the four forced patterns: an arc x->y together with
a missing arc x->z to a vertex of y's color pins lca(x,y) strictly below
lca(x,z).  Scanning (arc, third vertex) pairs enumerates exactly the induced
subgraphs that admit such a reading, including their recolored mirror
images, in O(|E| |L|).

``build`` is the one BUILD for triples.  It runs from an explicit stack over
Python-int leaf bitsets and takes its glue from a triple collection or
straight from a colored digraph's colour table (``color_masks`` and
``color_outs``): at a level M, ab|z lies inside M exactly for an arc a->b
and some z in M of b's color outside N(a), so a is joined to N_t(a) & M
for each color t where such a z is left, and no triple is ever built.  The
closed-form triple counts of the direct route's pair notes read the same
table.  ``RootedTriple`` and ``TripleSet`` serve the API and the CLI.
The triples route is ``recognize_ncbmg(graph, route="informative-direct")``,
which runs ``build`` per component and then the one gate; none runs here.

``build_from_trees`` glues from pair trees given as cluster families over
leaf bitsets (``two_color.pair_topology``), merging with the same ``_blocks``
where two or more families span a level.  A level that only one family spans
splits by that family's kids, which are disjoint already, so a deep pair tree
costs a few bitset operations per level, not one step per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

# bmg_of_tree stays bound here: perfbench/layers.py traces it by this name
from .bmg import bmg_of_tree  # noqa: F401
from .digraph import ColoredDigraph, bits, check_vertex_mask
from .errors import GraphError
from .tree import Topology
from .two_color import Family


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
    ids, color_of, by_color = graph.vertex_ids, graph.color_of, graph.color_masks
    found: set[RootedTriple] = set()
    for i, out in enumerate(graph.out_masks):
        for j in bits(out):
            for z in bits(by_color[color_of[j]] & ~(out | 1 << i)):
                found.add(RootedTriple.of(ids[i], ids[j], ids[z]))
    return TripleSet(frozenset(ids), frozenset(found))


def build(
    source: ColoredDigraph | TripleSet | Iterable[RootedTriple],
    leaves: int | Iterable[str],
) -> Topology | None:
    """Aho tree on ``leaves``, or None when no tree displays the triples.

    ``source`` is a triple collection on the labels ``leaves``, or a colored
    digraph standing for its informative triples, which are then read off
    the graph's colour table and never built; ``leaves`` is then a bitset of
    the graph's vertex indices.
    """
    if isinstance(source, ColoredDigraph):
        check_vertex_mask(source, leaves)
        names, glue, root = source.vertex_ids, _graph_glue(source), leaves
    else:
        names = tuple(sorted(set(leaves)))
        glue = _triple_glue(source, {x: k for k, x in enumerate(names)})
        root = (1 << len(names)) - 1
    if not root:
        raise GraphError("BUILD needs at least one leaf")
    return _aho_tree(root, glue, names)


Glue = Callable[[int], Iterable[int]]


def _aho_tree(root: int, glue: Glue, names: tuple[str, ...]) -> Topology | None:
    """BUILD from an explicit stack over leaf bitsets: ``glue(level)`` yields
    leaf sets that must end up in one block of ``level``; blocks are ordered
    by their smallest leaf, so a name order equal to index order makes the
    output canonical.  Nodes are numbered parents first, so the topology is
    assembled by one pass in reverse."""
    kids: list[list[int]] = []
    leaf_of: list[int] = []  # leaf index, or -1 for an inner node
    stack = [(root, -1)]
    while stack:
        level, parent = stack.pop()
        node = len(kids)
        if parent >= 0:
            kids[parent].append(node)
        kids.append([])
        if level & (level - 1) == 0:
            leaf_of.append(level.bit_length() - 1)
            continue
        blocks = _blocks(level, glue(level))
        if len(blocks) == 1:
            return None
        leaf_of.append(-1)
        stack.extend((block, node) for block in reversed(blocks))
    built: list[Topology] = [""] * len(kids)
    for node in range(len(kids) - 1, -1, -1):
        leaf = leaf_of[node]
        built[node] = names[leaf] if leaf >= 0 else tuple(built[c] for c in kids[node])
    return built[0]


def _blocks(level: int, glued: Iterable[int]) -> list[int]:
    """Connected blocks of ``level`` once every glued set is joined, sorted by
    smallest leaf.  A union-find over leaf indices, linked by size, keeps
    each root's block mask, so a glued set costs one step per block it
    touches; a leaf that no earlier set held is a block of its own, so a set
    of fresh leaves costs one step per leaf."""
    up: dict[int, int] = {}
    block_of: dict[int, int] = {}
    for chunk in glued:
        top = (chunk & -chunk).bit_length() - 1
        while top in up:
            top = up[top]
        merged = block_of.pop(top, 1 << top)
        rest = chunk & ~merged
        while rest:
            other = (rest & -rest).bit_length() - 1
            while other in up:
                other = up[other]
            mask = block_of.pop(other, 1 << other)
            if mask.bit_count() > merged.bit_count():
                top, other = other, top
            up[other] = top
            merged |= mask
            rest &= ~mask
        if merged == level:
            return [level]
        block_of[top] = merged
    return _with_singletons(level, list(block_of.values()))


def _with_singletons(level: int, blocks: list[int]) -> list[int]:
    """``blocks``, disjoint subsets of ``level``, and a singleton for each
    leaf of ``level`` they miss, sorted by smallest leaf."""
    alone = level
    for mask in blocks:
        alone &= ~mask
    while alone:
        low = alone & -alone
        blocks.append(low)
        alone ^= low
    blocks.sort(key=lambda mask: mask & -mask)
    return blocks


def _graph_glue(graph: ColoredDigraph) -> Glue:
    """Glue of the informative triples of a graph: ab|z lies inside a level
    M exactly for an arc a->b and a vertex z of b's color in M, outside N(a)
    and other than a; so a joins N_t(a) & M whenever some such z exists."""
    color_sets, out_masks = graph.color_masks, graph.color_outs

    def glue(level: int) -> Iterator[int]:
        inside = [level & mask for mask in color_sets]
        rest = level
        while rest:
            low = rest & -rest
            rest ^= low
            for t, nbrs in out_masks[low.bit_length() - 1]:
                hit = nbrs & level
                if hit and inside[t] & ~(hit | low):
                    yield low | hit

    return glue


def informative_triple_counts(graph: ColoredDigraph, ground: int) -> dict[tuple[int, int], int]:
    """Informative triples per color pair ``(s, t)``, ``s < t`` color indices,
    of the subgraph on the vertex mask ``ground``, which no arc leaves, in
    closed form for a graph without same-color arcs: ab|z arises from the one
    arc a->b and the one z of b's color outside N(a), so a pair counts
    |N_u(a)| * (|L_u| - |N_u(a)|) over its vertices a, u the other color."""
    sizes = [(mask & ground).bit_count() for mask in graph.color_masks]
    color_of, outs = graph.color_of, graph.color_outs
    counts: dict[tuple[int, int], int] = {}
    for a in bits(ground):
        s = color_of[a]
        for t, hit in outs[a]:
            k = hit.bit_count()
            pair = (s, t) if s < t else (t, s)
            counts[pair] = counts.get(pair, 0) + k * (sizes[t] - k)
    return counts


def _triple_glue(triples: TripleSet | Iterable[RootedTriple], index: dict[str, int]) -> Glue:
    """Glue of a triple collection: ab|z joins a and b on every level that
    holds all three; triples leaving the leaf set are dropped."""
    spans: list[tuple[int, int]] = []
    for t in triples.triples if isinstance(triples, TripleSet) else triples:
        if t.a in index and t.b in index and t.out in index:
            pair = 1 << index[t.a] | 1 << index[t.b]
            spans.append((pair | 1 << index[t.out], pair))

    def glue(level: int) -> Iterator[int]:
        return (pair for span, pair in spans if span & level == span)

    return glue


def build_from_trees(families: list[Family], names: Sequence[str], root: int | None = None) -> Topology | None:
    """BUILD on the leaf bitset ``root`` (all of ``names`` when omitted), on
    the triples that trees display, each tree a cluster family over leaf
    bitsets, bit v naming ``names[v]``; leaves that no family covers stay
    leaves of the root.  At a level M, a family with two or more leaves in M
    glues ``kid & M`` for each kid of its lca of them, the children of its
    restricted root (BuildST, Deng & Fernandez-Baca 2018).  That lca lies at
    or below the one of M's parent level, where the search starts.  When
    only one family has two or more leaves in M, its chunks are M's blocks,
    with each leaf they miss alone, and no union-find runs.  One frame per
    level."""
    if root is None:
        root = (1 << len(names)) - 1
    if not root:
        raise GraphError("BUILD needs at least one leaf")
    return _build_st(root, families, names)


def _build_st(level: int, nodes: list[Family], names: Sequence[str]) -> Topology | None:
    if level & (level - 1) == 0:
        return names[level.bit_length() - 1]
    here = []
    for node in nodes:
        inside = node[0] & level
        if inside & (inside - 1):
            here.append(_lca(node, inside))
    if len(here) == 1:  # its chunks are disjoint already: no union-find
        blocks = _with_singletons(level, [hit for kid in here[0][1] if (hit := kid[0] & level)])
    else:
        glued = (hit for node in here for kid in node[1] if (hit := kid[0] & level) & (hit - 1))
        blocks = _blocks(level, glued)
    if len(blocks) == 1:
        return None
    kids = []
    for block in blocks:
        sub = _build_st(block, here, names)
        if sub is None:
            return None
        kids.append(sub)
    return tuple(kids)


def _lca(node: Family, inside: int) -> Family:
    """Deepest node at or below ``node`` whose bitset holds ``inside``."""
    while True:
        for kid in node[1]:
            if kid[0] & inside == inside:
                node = kid
                break
        else:
            return node
