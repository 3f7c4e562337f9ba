"""Vertex-colored digraphs, their thinness partition, and derived views.

Vertex and color ids are interned to dense integers in lexicographic order
of the original string ids, so "smallest vertex" is well defined and every
derived object (components, classes, arc listings) is deterministic.

A digraph stores one Python-int bitset per vertex, its only adjacency: bit
j of ``out_masks[i]`` is set exactly for the arc i -> j.  Two views are
built on first read and then kept: the in-bitsets ``in_masks`` (pairwise
route and API only) and the colour classes ``color_masks`` (L_t).  N_t(v)
is ``out & L_t``, taken where it is needed and kept nowhere.  So a graph
that is only written or compared, as in ``from-tree`` and the gate, builds
neither.
An undirected graph holds both arcs of each edge.  Bit order is vertex
order, so ``bits`` (or ``scan_bits`` for dense masks) lists vertices sorted.
One merge, ``_blocks``, splits a graph into components, a colour pair into
pieces and a BUILD level into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError
from .tree import _FORBIDDEN_COLOR_CHARS, _FORBIDDEN_LABEL_CHARS, _check_tokens


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# turns binary digits into the truth values ``compress`` selects by
_DIGIT_TRUTH = bytes.maketrans(b"01", b"\x00\x01")
# ``scan_bits`` scans a mask with at least one bit set in this many of its width
SCAN_DENSITY = 8


def scan_bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of ``mask``, lowest first, as ``bits``
    gives them.  Each step of ``bits`` costs O(width/64) words, so a mask
    with at least one bit set in ``SCAN_DENSITY`` is read in one C-level
    scan of its binary digits instead; a sparser one goes through ``bits``,
    and one of at most one bit needs no walk at all."""
    width = mask.bit_length()
    count = mask.bit_count()
    if count < 2:
        return (width - 1,) if count else ()
    if count * SCAN_DENSITY < width:
        return bits(mask)
    return compress(range(width), bin(mask)[:1:-1].encode().translate(_DIGIT_TRUTH))


class ColoredDigraph:
    """Immutable loop-free digraph with one color per vertex."""

    __slots__ = (
        "vertex_ids", "index_of", "color_ids", "color_of", "out_masks",
        "_in_masks", "_color_masks",  # the views built on first read
    )

    def __init__(self, colors: Mapping[str, str], arcs: Iterable[tuple[str, str]] = ()):
        # ids and colors are written as file tokens, so they must read back
        _check_tokens(colors, _FORBIDDEN_LABEL_CHARS, "vertex id", GraphError)
        _check_tokens(set(colors.values()), _FORBIDDEN_COLOR_CHARS, "color", GraphError)
        self._intern(colors)
        out = [0] * len(self.vertex_ids)
        for src, dst in arcs:
            try:
                i, j = self.index_of[src], self.index_of[dst]
            except KeyError as missing:
                raise GraphError(f"arc endpoint {missing.args[0]!r} is not a declared vertex") from None
            if i == j:
                raise GraphError(f"self-loop on vertex {src!r}")
            out[i] |= 1 << j
        self.out_masks: tuple[int, ...] = tuple(out)

    @classmethod
    def from_masks(cls, colors: Mapping[str, str], masks: Sequence[int]) -> "ColoredDigraph":
        """Graph whose ``i``-th vertex in sorted id order has the out-bitset
        ``masks[i]``.  Ids, colors and masks are trusted: bits in range, no loop."""
        graph = cls.__new__(cls)
        graph._intern(colors)
        graph.out_masks = tuple(masks)
        return graph

    def _intern(self, colors: Mapping[str, str]) -> None:
        if not colors:
            raise GraphError("graph needs at least one vertex")
        self.vertex_ids: tuple[str, ...] = tuple(sorted(colors))
        self.index_of: dict[str, int] = {v: i for i, v in enumerate(self.vertex_ids)}
        self.color_ids: tuple[str, ...] = tuple(sorted(set(colors.values())))
        color_index = {c: i for i, c in enumerate(self.color_ids)}
        self.color_of: tuple[int, ...] = tuple(color_index[colors[v]] for v in self.vertex_ids)
        self._in_masks: tuple[int, ...] | None = None
        self._color_masks: tuple[int, ...] | None = None

    @property
    def in_masks(self) -> tuple[int, ...]:
        """In-bitsets, built on first read and then kept."""
        in_masks = self._in_masks
        if in_masks is None:
            ins = [0] * len(self.vertex_ids)
            for i, out in enumerate(self.out_masks):
                bit = 1 << i
                for j in scan_bits(out):
                    ins[j] |= bit
            in_masks = self._in_masks = tuple(ins)
        return in_masks

    @property
    def color_masks(self) -> tuple[int, ...]:
        """Per colour index t, the bitset of the vertices of colour t (L_t),
        built on first read and then kept."""
        color_masks = self._color_masks
        if color_masks is None:
            by_color = [0] * len(self.color_ids)
            for v, c in enumerate(self.color_of):
                by_color[c] |= 1 << v
            color_masks = self._color_masks = tuple(by_color)
        return color_masks

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def arc_count(self) -> int:
        return sum(out.bit_count() for out in self.out_masks)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs as index pairs, sorted."""
        for i, out in enumerate(self.out_masks):
            for j in bits(out):
                yield i, j

    def has_arc(self, i: int, j: int) -> bool:
        return bool(self.out_masks[i] >> j & 1)

    def color_name(self, i: int) -> str:
        return self.color_ids[self.color_of[i]]

    def colors_as_dict(self) -> dict[str, str]:
        return {v: self.color_ids[self.color_of[i]] for i, v in enumerate(self.vertex_ids)}

    def same_color_arc(self) -> tuple[int, int] | None:
        """Smallest arc joining two vertices of equal color, if any."""
        by_color = self.color_masks
        for i, (out, c) in enumerate(zip(self.out_masks, self.color_of)):
            same = out & by_color[c]
            if same:
                return i, (same & -same).bit_length() - 1
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (
            self.vertex_ids == other.vertex_ids
            and self.colors_as_dict() == other.colors_as_dict()
            and self.out_masks == other.out_masks
        )

    def __hash__(self) -> int:
        return hash((self.vertex_ids, self.color_ids, self.color_of, self.out_masks))

    def __repr__(self) -> str:
        return f"ColoredDigraph({len(self)} vertices, {self.arc_count()} arcs, {len(self.color_ids)} colors)"


def connected_components(graph: ColoredDigraph) -> list[int]:
    """Weakly connected components as vertex bitsets, ordered by smallest
    vertex: each vertex is joined to its out-neighbours, no in-bitset read."""
    return _blocks((1 << len(graph)) - 1, (out | 1 << v for v, out in enumerate(graph.out_masks) if out))


def _blocks(level: int, glued: Iterable[int]) -> list[int]:
    """Connected blocks of ``level`` once every glued set is joined, sorted by
    smallest leaf.  Up to 16 blocks (the scan breaks even with the union-find
    at about 10 blocks of two leaves, 30 of eight), a set is ORed with the
    blocks it meets, with no step per leaf; past that, a union-find over leaf
    indices, linked by size, keeps each root's block mask and takes one step
    per block or fresh leaf a set touches."""
    found: list[int] = []
    glued = iter(glued)
    for chunk in glued:
        apart = []
        for block in found:
            if block & chunk:
                chunk |= block
            else:
                apart.append(block)
        if chunk == level:
            return [level]
        apart.append(chunk)
        found = apart
        if len(found) > 16:
            glued = chain(found, glued)
            break
    else:
        return _with_singletons(level, found)
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
    leaf of ``level`` they miss, read in one walk, sorted by smallest leaf."""
    alone = level & ~sum(blocks)  # disjoint, so their sum is their union
    if alone:
        blocks += [1 << v for v in scan_bits(alone)]
    blocks.sort(key=lambda mask: mask & -mask)
    return blocks


def check_vertex_mask(graph: ColoredDigraph, mask: int) -> None:
    """Raise unless ``mask`` is a bitset of the graph's vertex indices, an
    ``int`` that is no ``bool``."""
    if isinstance(mask, bool) or not isinstance(mask, int) or mask < 0 or mask.bit_length() > len(graph):
        raise GraphError(f"vertex set is no bitset of the graph's {len(graph)} vertex indices")


def induced_subgraph(graph: ColoredDigraph, colors: Iterable[str]) -> ColoredDigraph:
    """Subgraph on all vertices whose color lies in ``colors``."""
    wanted = set(colors)
    unknown = wanted - set(graph.color_ids)
    if unknown:
        raise GraphError(f"unknown color id(s): {sorted(unknown)}")
    by_color = zip(graph.color_ids, graph.color_masks)
    return subgraph_on(graph, sum(mask for name, mask in by_color if name in wanted))  # disjoint: sum is OR


def subgraph_on(graph: ColoredDigraph, kept: int) -> ColoredDigraph:
    """Subgraph induced by the vertex bitset ``kept``; original ids kept.  A
    graph is immutable, so on every vertex it serves as its own subgraph."""
    check_vertex_mask(graph, kept)
    if kept == (1 << len(graph)) - 1:
        return graph
    keep = list(bits(kept))
    new_bit = {i: 1 << k for k, i in enumerate(keep)}
    ids, names, color_of = graph.vertex_ids, graph.color_ids, graph.color_of
    return ColoredDigraph.from_masks(
        {ids[i]: names[color_of[i]] for i in keep},
        [sum(map(new_bit.__getitem__, bits(graph.out_masks[i] & kept))) for i in keep],
    )


def first_arc_difference(graph: ColoredDigraph, other: ColoredDigraph) -> tuple[str, str] | None:
    """Smallest arc ``(x, y)`` that lies in exactly one of two graphs on the
    same vertex ids, in vertex id order; None when their arcs agree."""
    if graph.vertex_ids != other.vertex_ids:
        raise GraphError("arc comparison needs graphs on the same vertices")
    for i, (mine, theirs) in enumerate(zip(graph.out_masks, other.out_masks)):
        if mine != theirs:
            diff = mine ^ theirs
            return graph.vertex_ids[i], graph.vertex_ids[(diff & -diff).bit_length() - 1]
    return None


def symmetric_part(graph: ColoredDigraph) -> ColoredDigraph:
    """Symmetric digraph keeping exactly the bidirectional arc pairs."""
    both = [out & into for out, into in zip(graph.out_masks, graph.in_masks)]
    return ColoredDigraph.from_masks(graph.colors_as_dict(), both)


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

    def vertex_out(self, a: int) -> frozenset[int]:
        """Vertex-level N of class ``a`` (taken from a representative)."""
        return frozenset(bits(self.graph.out_masks[self.classes[a][0]]))

    def vertex_in(self, a: int) -> frozenset[int]:
        return frozenset(bits(self.graph.in_masks[self.classes[a][0]]))


def thinness_partition(graph: ColoredDigraph) -> ThinnessPartition:
    """Group vertices sharing both neighborhoods; classes sorted by smallest member."""
    groups: dict[tuple[int, int], list[int]] = {}
    for v, key in enumerate(zip(graph.out_masks, graph.in_masks)):
        groups.setdefault(key, []).append(v)
    classes = tuple(map(tuple, groups.values()))  # by first, hence smallest, member
    class_of = [0] * len(graph)
    for a, cls in enumerate(classes):
        for v in cls:
            class_of[v] = a

    def lift(masks: Sequence[int]) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(class_of[w] for w in bits(masks[cls[0]])) for cls in classes)

    return ThinnessPartition(
        graph=graph,
        classes=classes,
        class_of=tuple(class_of),
        color_of_class=tuple(graph.color_of[cls[0]] for cls in classes),
        out_classes=lift(graph.out_masks),
        in_classes=lift(graph.in_masks),
    )
