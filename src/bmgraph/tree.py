"""Rooted leaf-colored phylogenetic trees in canonical preorder arrays.

Trees are immutable once built.  Construction canonicalizes the shape in
one layout pass (``_layout``): one-element tuples are unwrapped as vertices
are allocated, which suppresses degree-two inner vertices and single-child
roots, the leaf labels are checked all at once, children are ordered by
their smallest descendant leaf label, and node ids are the preorder ranks
of that canonical layout.  Two equal trees therefore have identical node
numbering, which keeps every downstream computation and serialization
deterministic.  Leaf labels are whitespace-free and hold none of
``();,#``, and colours are whitespace-free and hold no ``#``, so every
label and colour reads back from the files the library writes.

Preorder ids put every child after its parent, so one reverse pass over
the ids folds any per-node quantity from the leaves up, as ``_finalize``
does for the colour set below each node.

All traversals are iterative so that caterpillar trees of a few hundred
leaves stay well clear of the interpreter recursion limit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Union

from .errors import TreeError

Topology = Union[str, tuple]

_FORBIDDEN_LABEL_CHARS = frozenset("();,#")
_FORBIDDEN_COLOR_CHARS = frozenset("#")


def _is_token(token: object, forbidden: frozenset[str]) -> bool:
    # ``str.split`` breaks at exactly the ``str.isspace`` characters, which
    # every reader takes for separators, so a token is one whitespace-free word
    return isinstance(token, str) and token.split() == [token] and forbidden.isdisjoint(token)


def _check_tokens(
    tokens: Iterable[object], forbidden: frozenset[str], what: str, error: type[Exception]
) -> None:
    """Raise ``error`` naming the first token, by repr, that the file readers
    would not read back: one that is no whitespace-free word, or holds a
    ``forbidden`` character (``#`` starts a comment in every file)."""
    bad = [t for t in tokens if not _is_token(t, forbidden)]
    if bad:
        raise error(f"illegal {what} {min(bad, key=repr)!r}")


class LeafColoredTree:
    """Rooted phylogenetic tree whose leaves carry ids and colors."""

    __slots__ = (
        "parent",
        "children",
        "label",
        "root",
        "colors",
        "leaf_labels",
        "color_universe",
        "_leaf_node",
        "_colormask",
    )

    def __init__(self, topology: Topology, colors: Mapping[str, str]):
        parent, children, label = _layout(topology)
        self.parent: tuple[int, ...] = tuple(parent)
        self.children: tuple[tuple[int, ...], ...] = tuple(children)
        self.label: tuple[str | None, ...] = tuple(label)
        self.root: int = 0

        leaves = sorted(lab for lab in label if lab is not None)
        missing = [lab for lab in leaves if lab not in colors]
        if missing:
            raise TreeError(f"color map misses leaves: {missing}")
        self.leaf_labels: tuple[str, ...] = tuple(leaves)
        self.colors: dict[str, str] = {lab: colors[lab] for lab in leaves}
        palette = set(self.colors.values())
        _check_tokens(palette, _FORBIDDEN_COLOR_CHARS, "color", TreeError)
        self.color_universe: tuple[str, ...] = tuple(sorted(palette))
        self._leaf_node: dict[str, int] = {
            lab: v for v, lab in enumerate(self.label) if lab is not None
        }
        self._finalize()

    # -- construction helpers ---------------------------------------------

    def _finalize(self) -> None:
        parent = self.parent
        bit = {c: 1 << k for k, c in enumerate(self.color_universe)}
        cmask = [0] * len(parent)
        for lab, v in self._leaf_node.items():
            cmask[v] = bit[self.colors[lab]]
        # node ids are preorder ranks, so children come after their parent
        for v in range(len(parent) - 1, 0, -1):
            cmask[parent[v]] |= cmask[v]
        self._colormask = tuple(cmask)

    # -- elementary queries -------------------------------------------------

    def leaf_node(self, lab: str) -> int:
        try:
            return self._leaf_node[lab]
        except KeyError:
            raise TreeError(f"unknown leaf {lab!r}") from None

    def nodes(self) -> range:
        return range(len(self.parent))

    def inner_edges(self) -> list[tuple[int, int]]:
        """Edges (parent, child) whose child is an inner node."""
        return [
            (self.parent[v], v)
            for v in self.nodes()
            if v != self.root and self.label[v] is None
        ]

    # -- structural operations ------------------------------------------------

    def contract_edges(self, edges: Iterable[tuple[int, int]]) -> "LeafColoredTree":
        doomed: set[int] = set()
        for u, v in edges:
            if not (0 < v < len(self.parent)) or self.parent[v] != u:
                raise TreeError(f"({u}, {v}) is not an edge of this tree")
            if self.label[v] is not None:
                raise TreeError(f"({u}, {v}) is an outer edge; only inner edges contract")
            doomed.add(v)
        flat: list[list[Topology]] = [[] for _ in self.parent]
        rep: list[Topology] = [""] * len(self.parent)
        for v in reversed(range(len(self.parent))):
            lab = self.label[v]
            if lab is not None:
                rep[v] = lab
                continue
            kids: list[Topology] = []
            for c in self.children[v]:
                if c in doomed:
                    kids.extend(flat[c])
                else:
                    kids.append(rep[c])
            flat[v] = kids
            rep[v] = tuple(kids)
        return LeafColoredTree(rep[self.root], self.colors)

    # -- serialization and comparison -----------------------------------------

    def topology(self) -> Topology:
        rep: list[Topology] = [""] * len(self.parent)
        for v in reversed(range(len(self.parent))):
            lab = self.label[v]
            rep[v] = lab if lab is not None else tuple(rep[c] for c in self.children[v])
        return rep[self.root]

    def newick(self) -> str:
        rep: list[str] = [""] * len(self.parent)
        for v in reversed(range(len(self.parent))):
            lab = self.label[v]
            if lab is not None:
                rep[v] = lab
            else:
                rep[v] = "(" + ",".join(rep[c] for c in self.children[v]) + ")"
        return rep[self.root] + ";"

    # Canonical numbering makes the flat parent/label arrays a complete,
    # exact key; unlike nested topologies they compare at any depth.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeafColoredTree):
            return NotImplemented
        return (
            self.label == other.label
            and self.parent == other.parent
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.label, self.parent, tuple(sorted(self.colors.items()))))

    def __repr__(self) -> str:
        return f"LeafColoredTree({len(self.leaf_labels)} leaves, {len(self.color_universe)} colors)"


# -- topology plumbing ---------------------------------------------------------


def _layout(topology: Topology) -> tuple[list[int], list[tuple[int, ...]], list[str | None]]:
    """Canonical parent/children/label arrays of a nested-tuple topology,
    rooted at 0.

    Each vertex is allocated after its parent, and one-element tuples are
    unwrapped on the way: that is the suppression of degree-two vertices and
    single-child roots.  The labels are checked all at once after the walk;
    only a failed check, or a structural fault met on the way, pays for the
    scan in allocation order that finds the first fault.  Kids come after
    their parent, so one reverse scan over allocation order sorts every
    child list by smallest leaf label; then the vertices are renumbered in
    preorder.
    """
    parent: list[int] = []
    kids: list[list[int] | None] = []  # None for a leaf
    label: list[str | None] = []
    fault = None  # the structural fault the walk stopped at
    work: list[tuple[Topology, int]] = [(topology, -1)]
    while work:
        topo, par = work.pop()
        while isinstance(topo, tuple) and len(topo) == 1:
            topo = topo[0]
        v = len(parent)
        if isinstance(topo, str):
            kids.append(None)
            label.append(topo)
        elif isinstance(topo, tuple) and topo:
            kids.append([])
            label.append(None)
            work.extend(zip(topo, itertools.repeat(v)))
        else:
            empty = isinstance(topo, tuple)
            fault = TreeError("empty inner node in topology" if empty else f"bad topology element: {topo!r}")
            break
        parent.append(par)
        if par >= 0:
            kids[par].append(v)  # type: ignore[union-attr]
    leaves: list[str] = [lab for lab in label if lab is not None]
    joined = "".join(leaves)
    legal = joined.split() == [joined] and _FORBIDDEN_LABEL_CHARS.isdisjoint(joined) and all(leaves)
    if fault or not legal or len(set(leaves)) < len(leaves):
        _raise_first_fault(leaves, fault)

    first = label[:]  # smallest leaf label below each vertex
    key = first.__getitem__
    for v in reversed(range(len(parent))):
        below = kids[v]
        if below is not None:
            below.sort(key=key)  # type: ignore[arg-type]
            first[v] = first[below[0]]

    order: list[int] = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        below = kids[v]
        if below is not None:
            stack.extend(reversed(below))
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    at = rank.__getitem__
    new_parent = [-1, *map(at, map(parent.__getitem__, order[1:]))]
    new_children = [tuple(map(at, below)) if below else () for below in map(kids.__getitem__, order)]
    return new_parent, new_children, list(map(label.__getitem__, order))


def _raise_first_fault(leaves: list[str], fault: TreeError | None) -> None:
    """Raise the first fault of a topology as its layout walk meets them:
    an illegal label, then a repeat, leaf by leaf in allocation order, and
    ``fault``, the structural fault met after the last of ``leaves``."""
    seen: set[str] = set()
    for lab in leaves:
        if not _is_token(lab, _FORBIDDEN_LABEL_CHARS):
            raise TreeError(f"illegal leaf label {lab!r}")
        if lab in seen:
            raise TreeError(f"duplicate leaf label {lab!r}")
        seen.add(lab)
    raise fault  # type: ignore[misc]
