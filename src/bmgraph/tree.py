"""Rooted leaf-colored phylogenetic trees with preorder-range lca queries.

Trees are immutable once built.  Construction canonicalizes the shape:
degree-two inner vertices and single-child roots are suppressed, children
are ordered by their smallest descendant leaf label, and node ids are the
preorder ranks of that canonical layout.  Two equal trees therefore have
identical node numbering, which keeps every downstream computation and
serialization deterministic.

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

_FORBIDDEN_LABEL_CHARS = set("();,# \t\r\n")


def _check_label(token: str) -> str:
    if not token or any(ch in _FORBIDDEN_LABEL_CHARS for ch in token):
        raise TreeError(f"illegal leaf label {token!r}")
    return token


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
        parent, children, label, root = _allocate(topology)
        parent, children, label, root = _suppress(parent, children, label, root)
        parent, children, label, root = _canonicalize(parent, children, label, root)
        self.parent: tuple[int, ...] = tuple(parent)
        self.children: tuple[tuple[int, ...], ...] = tuple(tuple(c) for c in children)
        self.label: tuple[str | None, ...] = tuple(label)
        self.root: int = root

        leaves = sorted(lab for lab in label if lab is not None)
        missing = [lab for lab in leaves if lab not in colors]
        if missing:
            raise TreeError(f"color map misses leaves: {missing}")
        self.leaf_labels: tuple[str, ...] = tuple(leaves)
        self.colors: dict[str, str] = {lab: colors[lab] for lab in leaves}
        self.color_universe: tuple[str, ...] = tuple(sorted(set(self.colors.values())))
        self._leaf_node: dict[str, int] = {
            lab: v for v, lab in enumerate(self.label) if lab is not None
        }
        self._finalize()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_newick(cls, text: str, colors: Mapping[str, str]) -> "LeafColoredTree":
        from .graphio import parse_newick  # local import to avoid a cycle

        return cls(parse_newick(text), colors)

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

    @property
    def node_count(self) -> int:
        return len(self.parent)

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
            if not (0 <= v < len(self.parent)) or self.parent[v] != u:
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

    def triples(self):
        """Triple set displayed by the tree (see :mod:`bmgraph.triples`)."""
        from .triples import TripleSet, RootedTriple

        return TripleSet(
            universe=frozenset(self.leaf_labels),
            triples=frozenset(
                RootedTriple(a, b, z) for a, b, z in self.triple_tuples()
            ),
        )

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


def _allocate(topology: Topology) -> tuple[list[int], list[list[int]], list[str | None], int]:
    """Turn nested tuples/labels into parent/children/label arrays."""
    parent: list[int] = []
    children: list[list[int]] = []
    label: list[str | None] = []
    seen: set[str] = set()

    def new_node(par: int) -> int:
        parent.append(par)
        children.append([])
        label.append(None)
        return len(parent) - 1

    root = new_node(-1)
    work: list[tuple[Topology, int]] = [(topology, root)]
    while work:
        topo, v = work.pop()
        if isinstance(topo, str):
            _check_label(topo)
            if topo in seen:
                raise TreeError(f"duplicate leaf label {topo!r}")
            seen.add(topo)
            label[v] = topo
        elif isinstance(topo, tuple):
            if not topo:
                raise TreeError("empty inner node in topology")
            for sub in topo:
                w = new_node(v)
                children[v].append(w)
                work.append((sub, w))
        else:
            raise TreeError(f"bad topology element: {topo!r}")
    # stack order reversed the children; restore declaration order
    for v in range(len(children)):
        children[v].reverse()
    return parent, children, label, root


def _suppress(parent, children, label, root):
    """Drop single-child inner vertices, including a single-child root."""
    while label[root] is None and len(children[root]) == 1:
        root = children[root][0]
        parent[root] = -1
    skip: list[int] = list(range(len(parent)))
    for v in reversed(range(len(parent))):
        if v != root and label[v] is None and len(children[v]) == 1:
            skip[v] = skip[children[v][0]]
    for v in range(len(parent)):
        kids = [skip[c] for c in children[v]]
        children[v] = kids
        for c in kids:
            parent[c] = v
    parent[root] = -1  # unreachable old chain nodes may have re-claimed it
    return parent, children, label, root


def _canonicalize(parent, children, label, root):
    """Sort children by smallest descendant leaf and renumber in preorder."""
    n = len(parent)
    order: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    min_leaf: list[str | None] = [None] * n
    for v in reversed(order):
        if label[v] is not None:
            min_leaf[v] = label[v]
        else:
            min_leaf[v] = min(min_leaf[c] for c in children[v])  # type: ignore[type-var]
        children[v].sort(key=lambda c: min_leaf[c])  # type: ignore[arg-type,return-value]

    new_id: dict[int, int] = {}
    pre: list[int] = []
    stack = [root]
    while stack:
        v = stack.pop()
        new_id[v] = len(pre)
        pre.append(v)
        stack.extend(reversed(children[v]))
    new_parent = [-1] * len(pre)
    new_children: list[list[int]] = [[] for _ in pre]
    new_label: list[str | None] = [None] * len(pre)
    for v in pre:
        nv = new_id[v]
        new_label[nv] = label[v]
        new_children[nv] = [new_id[c] for c in children[v]]
        new_parent[nv] = new_id[parent[v]] if parent[v] != -1 else -1
    return new_parent, new_children, new_label, 0
