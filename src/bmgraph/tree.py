"""Rooted leaf-colored phylogenetic trees with preorder-range lca queries.

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

Preorder ids make every subtree the id range ``[v, v + size[v])``, so an
ancestor test is two comparisons and ``lca`` climbs only the shorter of
the two root paths (see :meth:`LeafColoredTree.lca`).

All traversals are iterative so that caterpillar trees of a few hundred
leaves stay well clear of the interpreter recursion limit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Union

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
        "size",
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
        n = len(self.parent)
        size = [1] * n
        cmask = [0] * n
        cindex = {c: k for k, c in enumerate(self.color_universe)}
        # node ids are preorder ranks, so children come after their parent
        for v in reversed(range(n)):
            if self.label[v] is not None:
                cmask[v] = 1 << cindex[self.colors[self.label[v]]]
            if v != self.root:
                size[self.parent[v]] += size[v]
                cmask[self.parent[v]] |= cmask[v]
        self.size = tuple(size)
        self._colormask = tuple(cmask)

    # -- elementary queries -------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        return self.label[v] is not None

    def leaf_node(self, lab: str) -> int:
        try:
            return self._leaf_node[lab]
        except KeyError:
            raise TreeError(f"unknown leaf {lab!r}") from None

    def nodes(self) -> range:
        return range(len(self.parent))

    def inner_nodes(self) -> Iterator[int]:
        return (v for v in self.nodes() if self.label[v] is None)

    def inner_edges(self) -> list[tuple[int, int]]:
        """Edges (parent, child) whose child is an inner node."""
        return [
            (self.parent[v], v)
            for v in self.nodes()
            if v != self.root and self.label[v] is None
        ]

    def leaves_under(self, v: int) -> list[int]:
        # preorder ids make every subtree a contiguous id range
        return [w for w in range(v, v + self.size[v]) if self.label[w] is not None]

    # -- lca ----------------------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        if not (0 <= u < len(self.parent) and 0 <= v < len(self.parent)):
            raise TreeError(f"node out of range: {(u, v)}")
        if u > v:
            u, v = v, u
        # For u <= v, an ancestor a of v is one of u iff a <= u, and an
        # ancestor b of u is one of v iff v < b + size[b].  Climb both root
        # paths in step; the first node that closes the range is the lca.
        parent, size = self.parent, self.size
        a, b = v, u
        while a > u:
            if b + size[b] > v:
                return b
            a, b = parent[a], parent[b]
        return a

    def lca_set(self, nodes: Iterable[int]) -> int:
        # a subtree is a preorder range: it holds the set iff it holds both ends
        ids = list(nodes)
        if not ids:
            raise TreeError("lca of an empty node set")
        return self.lca(min(ids), max(ids))

    def is_ancestor(self, anc: int, v: int) -> bool:
        """True iff ``anc`` lies on the path from the root to ``v`` (inclusive)."""
        return anc <= v < anc + self.size[anc]

    # -- structural operations ------------------------------------------------

    def restrict(self, labels: Iterable[str]) -> "LeafColoredTree":
        keep = set(labels)
        if not keep:
            raise TreeError("restriction to an empty leaf set")
        unknown = keep - set(self.leaf_labels)
        if unknown:
            raise TreeError(f"unknown leaves in restriction: {sorted(unknown)}")
        rep: list[object] = [None] * len(self.parent)
        for v in reversed(range(len(self.parent))):
            lab = self.label[v]
            if lab is not None:
                rep[v] = lab if lab in keep else None
            else:
                kids = [rep[c] for c in self.children[v] if rep[c] is not None]
                if not kids:
                    rep[v] = None
                elif len(kids) == 1:
                    rep[v] = kids[0]
                else:
                    rep[v] = tuple(kids)
        # keep is a non-empty set of this tree's leaves, so the root has a topology
        return LeafColoredTree(rep[self.root], {lab: self.colors[lab] for lab in keep})

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

    def displays(self, other: "LeafColoredTree") -> bool:
        """True iff ``other`` arises from a restriction of this tree by contractions."""
        extra = set(other.leaf_labels) - set(self.leaf_labels)
        if extra:
            raise TreeError(f"displayed-tree leaves missing here: {sorted(extra)}")
        clash = [
            lab for lab in other.leaf_labels if self.colors[lab] != other.colors[lab]
        ]
        if clash:
            raise TreeError(f"color mismatch on shared leaves: {clash}")
        restricted = self.restrict(other.leaf_labels)
        return other.triple_tuples() <= restricted.triple_tuples()

    def triple_tuples(self) -> set[tuple[str, str, str]]:
        """All rooted triples xy|z displayed by this tree, as (x, y, z) with x < y."""
        label, size = self.label, self.size
        out: set[tuple[str, str, str]] = set()
        for w in self.inner_nodes():
            if w == self.root:
                continue
            # xy|z iff lca(x, y) = w for x, y under different children of w
            # and z lies outside w
            end = w + size[w]
            outside = [z for z in label[:w] + label[end:] if z is not None]
            groups = [
                [x for x in label[c : c + size[c]] if x is not None]
                for c in self.children[w]
            ]
            for left, right in itertools.combinations(groups, 2):
                for x, y in itertools.product(left, right):
                    if x > y:
                        x, y = y, x
                    out.update((x, y, z) for z in outside)
        return out

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
