"""Vertex-colored digraphs, their thinness partition, and derived views.

Vertex and color ids are interned to dense integers in lexicographic order
of the original string ids, so "smallest vertex" is well defined and every
derived object (components, classes, arc listings) is deterministic.

A digraph stores one Python-int bitset per vertex, its only adjacency: bit
j of ``out_masks[i]`` is set exactly for the arc i -> j.  The in-bitsets are
built on the first read of ``in_masks`` and kept, so a graph that is only
written or compared, as in ``from-tree`` and the acceptance gate, never
builds them.  An undirected graph, such as the symmetric part, is a digraph
that holds both arcs of each edge.  Bit order is vertex order, so walking a
bitset's bits (``bits``) lists its vertices sorted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphError
from .tree import _FORBIDDEN_COLOR_CHARS, _FORBIDDEN_LABEL_CHARS, _check_tokens


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ColoredDigraph:
    """Immutable loop-free digraph with one color per vertex."""

    __slots__ = ("vertex_ids", "index_of", "color_ids", "color_of", "out_masks", "_in_masks")

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
        self._in_masks: tuple[int, ...] | None = None

    @classmethod
    def from_masks(cls, colors: Mapping[str, str], masks: Sequence[int]) -> "ColoredDigraph":
        """Graph whose ``i``-th vertex in sorted id order has the out-bitset
        ``masks[i]``.  Ids, colors and masks are trusted: bits in range, no loop."""
        graph = cls.__new__(cls)
        graph._intern(colors)
        graph.out_masks = tuple(masks)
        graph._in_masks = None
        return graph

    def _intern(self, colors: Mapping[str, str]) -> None:
        if not colors:
            raise GraphError("graph needs at least one vertex")
        self.vertex_ids: tuple[str, ...] = tuple(sorted(colors))
        self.index_of: dict[str, int] = {v: i for i, v in enumerate(self.vertex_ids)}
        self.color_ids: tuple[str, ...] = tuple(sorted(set(colors.values())))
        color_index = {c: i for i, c in enumerate(self.color_ids)}
        self.color_of: tuple[int, ...] = tuple(color_index[colors[v]] for v in self.vertex_ids)

    @property
    def in_masks(self) -> tuple[int, ...]:
        """In-bitsets, built on first read and then kept."""
        in_masks = self._in_masks
        if in_masks is None:
            ins = [0] * len(self.vertex_ids)
            for i, out in enumerate(self.out_masks):
                bit = 1 << i
                for j in bits(out):
                    ins[j] |= bit
            in_masks = self._in_masks = tuple(ins)
        return in_masks

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

    def color_bitsets(self) -> list[int]:
        """Per color index, the bitset of the vertices of that color."""
        by_color = [0] * len(self.color_ids)
        for v, c in enumerate(self.color_of):
            by_color[c] |= 1 << v
        return by_color

    def same_color_arc(self) -> tuple[int, int] | None:
        """Smallest arc joining two vertices of equal color, if any."""
        by_color = self.color_bitsets()
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


def connected_components(graph: ColoredDigraph) -> list[tuple[int, ...]]:
    """Weakly connected components, ordered by smallest vertex."""
    comps = bitset_components(graph.out_masks, graph.in_masks, (1 << len(graph)) - 1)
    return [tuple(bits(comp)) for comp in comps]


def bitset_components(outs: Sequence[int], ins: Sequence[int], left: int) -> list[int]:
    """Weakly connected components of the elements in the bitset ``left``,
    whose arcs are the bitsets ``outs`` and ``ins``, as bitsets ordered by
    lowest element: each grows from its lowest element by OR-ing out- and
    in-bitsets over its frontier."""
    comps: list[int] = []
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= outs[v] | ins[v]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(comp)
    return comps


def induced_subgraph(graph: ColoredDigraph, colors: Iterable[str]) -> ColoredDigraph:
    """Subgraph on all vertices whose color lies in ``colors``."""
    wanted = set(colors)
    unknown = wanted - set(graph.color_ids)
    if unknown:
        raise GraphError(f"unknown color id(s): {sorted(unknown)}")
    kept = {k for k, c in enumerate(graph.color_ids) if c in wanted}
    in_kept = map(kept.__contains__, graph.color_of)
    return subgraph_on(graph, itertools.compress(range(len(graph)), in_kept))


def subgraph_on(graph: ColoredDigraph, vertices: Iterable[int]) -> ColoredDigraph:
    """Subgraph induced by a set of vertex indices; original ids kept.  A
    graph is immutable, so on every vertex it serves as its own subgraph."""
    keep = sorted(set(vertices))
    if len(keep) == len(graph):
        return graph
    kept = sum(1 << i for i in keep)
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

    def class_ids(self, a: int) -> tuple[str, ...]:
        g = self.graph
        return tuple(g.vertex_ids[i] for i in self.classes[a])

    def vertex_out(self, a: int) -> frozenset[int]:
        """Vertex-level N of class ``a`` (taken from a representative)."""
        return frozenset(bits(self.graph.out_masks[self.classes[a][0]]))

    def vertex_in(self, a: int) -> frozenset[int]:
        return frozenset(bits(self.graph.in_masks[self.classes[a][0]]))

    def no_in_classes(self) -> tuple[int, ...]:
        """Classes with empty in-neighborhood (the set called W)."""
        return tuple(a for a in range(len(self.classes)) if not self.in_classes[a])


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
