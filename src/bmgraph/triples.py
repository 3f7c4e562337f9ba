"""Rooted triples: extraction from colored digraphs, and BUILD.

A triple xy|z is informative for a two-colored digraph when the three
vertices induce one of the four forced patterns: an arc x->y together with
a missing arc x->z to a vertex of y's color pins lca(x,y) strictly below
lca(x,z).  Scanning (arc, third vertex) pairs enumerates exactly the induced
subgraphs that admit such a reading, including their recolored mirror
images, in O(|E| |L|).

``build`` is the one BUILD for triples, from an explicit stack over leaf
bitsets.  Its glue comes from a triple collection or a colored digraph's
out-bitsets: ab|z lies inside a level M exactly for an arc a->b and a z
in M of b's colour t outside N_t(a), a test that reads a only through
(t, N_t(a)), so the vertices sharing that key glue as one source and no
triple is built; one pass takes each N_t(a) as ``out & L_t``, keeps none,
and, given ``counts``, counts each colour pair's triples for the pair notes.
The triples route is ``recognize_ncbmg(graph, route="informative-direct")``;
the pairwise route's direct attempt forces each level that does not split,
dropping one colour's sources or making it a star, instead of stopping.

``build_from_trees`` glues from pair trees given as cluster families over
leaf bitsets (``two_color.pair_topology``), merging with the same ``_blocks``
where two or more families span a level.  A level that only one family spans
splits by that family's kids, which are disjoint already, so a deep pair tree
costs a few bitset operations per level, not one step per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# bmg_of_tree stays bound here: perfbench/layers.py traces it by this name
from .bmg import bmg_of_tree  # noqa: F401
from .digraph import ColoredDigraph, _blocks, _with_singletons, bits, check_vertex_mask, scan_bits
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
    counts: dict[tuple[int, int], int] | None = None,
    forced: list[int] | None = None,
) -> Topology | None:
    """Aho tree on ``leaves``, or None when no tree displays the triples:
    those of a collection on the labels ``leaves``, or the informative ones
    of a colored digraph on the vertex bitset ``leaves``, never built, with
    their number per colour pair added to ``counts`` when given; without
    ``counts`` nothing is counted.  Given a list ``forced`` (a colored
    digraph only), BUILD does not stop at a level that does not split: it
    splits it by ``_forced_split``, appends the level to ``forced`` and
    carries on, so a tree always comes back.  Only the pairwise route's
    direct attempt passes ``forced``, to get a tree whose best match graph
    vouches for the colour pairs it reproduces; the direct route, and
    ``build_from_trees`` on the pair layer, stop at their first such level."""
    if isinstance(source, ColoredDigraph):
        check_vertex_mask(source, leaves)
        sources = _graph_sources(source, leaves, counts)
        names, root, color_of = source.vertex_ids, leaves, source.color_of
    else:
        if forced is not None:
            raise GraphError("only a colored digraph's BUILD forces a level")
        names = tuple(sorted(set(leaves)))
        sources = _triple_sources(source, {x: k for k, x in enumerate(names)})
        root, color_of = (1 << len(names)) - 1, ()
    if not root:
        raise GraphError("BUILD needs at least one leaf")
    return _aho_tree(root, sources, names, color_of, forced)


# A glue source ``(z, first, chunk)`` of the root: its triples join the leaf
# bitset ``chunk`` on each level that holds it and a bit of ``z``; ``first``
# is a leaf of ``chunk`` that keys it, so sources sharing it glue as one chunk
Source = tuple[int, int, int]


def _aho_tree(
    root: int, sources: list[Source], names: tuple[str, ...], color_of: Sequence[int], forced: list[int] | None
) -> Topology | None:
    """BUILD from an explicit stack over leaf bitsets, blocks ordered by
    smallest leaf, so a name order equal to index order makes the output
    canonical.  A source glues its one chunk on every level it lives: its
    chunk lies in the block holding ``first``, so only that block is handed
    the source, and there it lives while ``z`` meets the block, one AND per
    level.  As a chunk spans two leaves and ``z`` a third, a block of at
    most two is settled at once.  Inner nodes are numbered parents first,
    so the topology is assembled by one pass in reverse.  A level that does
    not split ends BUILD with None, unless ``forced`` is a list (the
    pairwise route's direct attempt): then ``_forced_split`` splits it by
    ``color_of``, the level is appended there, and BUILD carries on."""
    if (settled := _settled(root, names)) is not None:
        return settled
    kids: list[list] = []  # per inner node, per block, a settled topology or an inner node
    stack = [(root, sources, [None], 0)]
    while stack:
        level, sources, slots, slot = stack.pop()
        live, chunks = _glue(level, sources)
        blocks = _blocks(level, chunks.values())
        if len(blocks) == 1:
            if forced is None:
                return None
            forced.append(level)
            blocks, live, chunks = _forced_split(level, live, chunks, color_of)
        slots[slot] = len(kids)
        here = [_settled(b, names) for b in blocks]
        kids.append(here)
        inner = [k for k, done in enumerate(here) if done is None]
        if len(inner) == 1:  # all sources but those keyed in a settled block, whose chunks lie there
            outside = set(bits(level ^ blocks[inner[0]]))
            shares = {inner[0]: live if outside.isdisjoint(chunks) else [s for s in live if s[1] not in outside]}
        elif inner:
            lows = sum(1 << v for v in chunks)
            block_at = {v: k for k in inner for v in bits(blocks[k] & lows)}
            shares = {k: [] for k in inner}
            for source in live:
                if (k := block_at.get(source[1])) is not None:
                    shares[k].append(source)
        stack.extend((blocks[k], shares[k], here, k) for k in reversed(inner))
    built: list[Topology] = [""] * len(kids)
    for node in range(len(kids) - 1, -1, -1):
        built[node] = tuple([built[x] if type(x) is int else x for x in kids[node]])
    return built[0]


def _forced_split(
    level: int, live: list[Source], chunks: dict[int, int], color_of: Sequence[int]
) -> tuple[list[Source], list[Source], dict[int, int]]:
    """Blocks, live sources and chunks of a level whose chunks join it into
    one block: without the sources of the one colour ``color_of[first]``
    whose removal leaves the fewest blocks, at least two, the lowest colour
    on ties, at one merge per colour present; a star of the level's leaves,
    with no source, when no single colour splits it.  The rule only picks
    which forced tree vouches for colour pairs, so it moves speed, never a
    verdict."""
    best: tuple[int, list[int]] | None = None
    for c in sorted({color_of[first] for first in chunks}):
        blocks = _blocks(level, [chunk for first, chunk in chunks.items() if color_of[first] != c])
        if len(blocks) > 1 and (best is None or len(blocks) < len(best[1])):
            best = (c, blocks)
    if best is None:
        return [1 << v for v in scan_bits(level)], [], {}
    c, blocks = best
    kept = {first: chunk for first, chunk in chunks.items() if color_of[first] != c}
    return blocks, [s for s in live if color_of[s[1]] != c], kept


def _settled(block: int, names: tuple[str, ...]) -> Topology | None:
    """The leaf of a one-leaf block, the cherry of a two-leaf one, else None."""
    low, rest = block & -block, block & (block - 1)
    if rest & (rest - 1):
        return None
    return (names[low.bit_length() - 1], names[rest.bit_length() - 1]) if rest else names[low.bit_length() - 1]


def _glue(level: int, sources: list[Source]) -> tuple[list[Source], dict[int, int]]:
    """The sources handed to ``level`` that glue there, those whose ``z``
    meets it, and their chunks, joined where they share ``first``.  A source
    that fails here fails on every level below."""
    live, chunks = [], {}
    for source in sources:
        z, first, chunk = source
        if z & level:
            live.append(source)
            chunks[first] = chunks.get(first, 0) | chunk
    return live, chunks


def _graph_sources(graph: ColoredDigraph, leaves: int, counts: dict[tuple[int, int], int] | None) -> list[Source]:
    """Glue sources of the informative triples inside ``leaves``: the
    vertices not of colour t that share one N = N_t(a) = ``out & L_t`` within
    ``leaves``, for the colours t in ``leaves``, give one source with chunk
    ``N | members`` and z the rest of L_t within ``leaves``; a same-colour arc
    its own.  When ``counts`` is given, the same step adds to
    ``counts[(s, t)]``, ``s < t``, the colour pair's informative triples,
    exact when no arc leaves ``leaves`` and none joins one colour: ab|z
    arises from the one arc a->b and the one z of b's colour outside N(a),
    so a pair counts |N_u(a)| * (|L_u| - |N_u(a)|) over its vertices a, u
    the other colour."""
    color_of, out_masks = graph.color_of, graph.out_masks
    inside = [mask & leaves for mask in graph.color_masks]
    present = [(t, mask, mask.bit_count()) for t, mask in enumerate(inside) if mask]
    sources, members = [], {}
    for a in scan_bits(leaves):
        out, bit, s = out_masks[a], 1 << a, color_of[a]
        for t, mask, size in present:
            if not (n := out & mask):
                continue
            if t == s:
                sources.append((mask & ~(n | bit), (n & -n).bit_length() - 1, n | bit))
                continue
            members[n] = members.get(n, 0) | bit
            if counts is not None:
                k = n.bit_count()
                pair = (s, t) if s < t else (t, s)
                counts[pair] = counts.get(pair, 0) + k * (size - k)
    for n, m in members.items():
        first = (n & -n).bit_length() - 1
        sources.append((inside[color_of[first]] & ~n, first, n | m))
    return sources


def _triple_sources(triples: TripleSet | Iterable[RootedTriple], index: dict[str, int]) -> list[Source]:
    """Glue sources of a triple collection: ab|z joins a and b on every level
    that holds all three; triples leaving the leaf set are dropped."""
    sources = []
    for t in triples.triples if isinstance(triples, TripleSet) else triples:
        if len({t.a, t.b, t.out}) != 3:
            raise GraphError(f"triple needs three distinct leaves: {(t.a, t.b, t.out)}")
        if t.a in index and t.b in index and t.out in index:
            sources.append((1 << index[t.out], index[t.b], 1 << index[t.a] | 1 << index[t.b]))
    return sources


def build_from_trees(families: list[Family], names: Sequence[str], root: int | None = None) -> Topology | None:
    """BUILD on the leaf bitset ``root`` (all of ``names`` when omitted), on
    the triples that trees display, each tree a cluster family over leaf
    bitsets, with or without leaf nodes, bit v naming ``names[v]``; leaves
    that no family covers stay leaves of the root.  At a level M, a family
    with two or more leaves in M glues ``kid & M`` for each kid of its lca of
    them, the children of its restricted root (BuildST, Deng & Fernandez-Baca
    2018), and a leaf node glues nothing.  That lca lies at or below the one
    of M's parent level, where the search starts.  When only one family has
    two or more leaves in M, its chunks are M's blocks, with each leaf they
    miss alone, and no union-find runs.  One frame per level."""
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
