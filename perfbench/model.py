"""Reference model of leaf-coloured trees and best match graphs.

The benchmark makes its inputs and checks bmgraph's outputs with this module
alone; it imports nothing from bmgraph, so a defect in the program under test
cannot hide in its own yardstick.  Everything is iterative: caterpillars are
deeper than the interpreter's recursion limit.

A tree is ``(children, label, color)``: per node a child list, a leaf label
(``None`` on inner nodes) and a colour (``None`` on inner nodes).  Node 0 is
the root.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left


class Tree:
    __slots__ = ("children", "label", "color")

    def __init__(self, children, label, color):
        self.children = children
        self.label = label
        self.color = color

    def leaves(self):
        return [v for v, lab in enumerate(self.label) if lab is not None]

    def colors(self) -> dict[str, str]:
        return {self.label[v]: self.color[v] for v in self.leaves()}


# -- generators -----------------------------------------------------------------


def _labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """``n`` fixed-width labels in random order, so label order carries no shape."""
    width = len(str(n - 1))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    rng.shuffle(names)
    return names


def _color_names(k: int) -> list[str]:
    width = len(str(k))
    return [f"c{i:0{width}d}" for i in range(1, k + 1)]


def yule_tree(rng: random.Random, n: int, n_colors: int, contraction: float) -> Tree:
    """Yule tree on ``n`` leaves, uniform surjective colouring, and each inner
    edge contracted with probability ``contraction``."""
    children: list[list[int]] = [[]]
    leaves = [0]
    for _ in range(n - 1):
        pick = rng.randrange(len(leaves))
        v = leaves[pick]
        a, b = len(children), len(children) + 1
        children[v] = [a, b]
        children.extend(([], []))
        leaves[pick] = a
        leaves.append(b)
    names = _labels(rng, n, "x")
    palette = _color_names(n_colors)
    while True:
        assignment = [rng.randrange(n_colors) for _ in range(n)]
        if len(set(assignment)) == n_colors:
            break
    label: list[str | None] = [None] * len(children)
    color: list[str | None] = [None] * len(children)
    for k, v in enumerate(leaves):
        label[v] = names[k]
        color[v] = palette[assignment[k]]
    doomed = [v != 0 and bool(children[v]) and rng.random() < contraction for v in range(len(children))]
    return _contract(Tree(children, label, color), doomed)


def _contract(tree: Tree, doomed: list[bool]) -> Tree:
    """Splice the children of every doomed inner node into its parent; renumber."""
    order = _preorder(tree.children)
    flat: list[list[int]] = [[] for _ in tree.children]
    for v in reversed(order):
        kids: list[int] = []
        for c in tree.children[v]:
            kids.extend(flat[c] if doomed[c] else (c,))
        flat[v] = kids
    stack = [0]
    keep = []
    while stack:
        v = stack.pop()
        keep.append(v)
        stack.extend(reversed(flat[v]))
    new_id = {v: i for i, v in enumerate(keep)}
    return Tree(
        [[new_id[c] for c in flat[v]] for v in keep],
        [tree.label[v] for v in keep],
        [tree.color[v] for v in keep],
    )


def caterpillar(rng: random.Random, n: int) -> Tree:
    """``(((l0,l1),l2),...)`` with two colours alternating along the spine."""
    names = _labels(rng, n, "y")
    a, b = _color_names(2)
    children: list[list[int]] = [[] for _ in range(n - 1)]  # inner node k holds l_{n-1-k}
    label: list[str | None] = [None] * (n - 1)
    color: list[str | None] = [None] * (n - 1)

    def leaf(pos: int) -> int:
        children.append([])
        label.append(names[pos])
        color.append(a if pos % 2 == 0 else b)
        return len(children) - 1

    for k in range(n - 1):
        below = k + 1 if k < n - 2 else leaf(0)
        children[k] = [below, leaf(n - 1 - k)]
    return Tree(children, label, color)


def root_child_lacks_color(tree: Tree) -> bool:
    """True iff some child of the root misses a colour, which is exactly when
    the best match graph is weakly connected: that child's leaves then match
    across the root, and otherwise every root child is a component of its own."""
    palette = {c for c in tree.color if c is not None}
    for top in tree.children[0]:
        seen = set()
        stack = [top]
        while stack:
            v = stack.pop()
            if tree.color[v] is not None:
                seen.add(tree.color[v])
            stack.extend(tree.children[v])
        if seen != palette:
            return True
    return False


def _preorder(children: list[list[int]]) -> list[int]:
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order


# -- forward construction -----------------------------------------------------------


def best_matches(tree: Tree) -> dict[str, dict[str, list[str]]]:
    """N_s(x) for every leaf x and colour s != colour(x).

    Walk up from x; at the first ancestor u whose subtree holds colour s, the
    s-leaves below u are N_s(x).  Preorder makes every subtree a contiguous
    range of leaf ranks, so that set is one slice of the colour-s rank list.
    """
    children, label, color = tree.children, tree.label, tree.color
    n_nodes = len(children)
    parent = [-1] * n_nodes
    for v in range(n_nodes):
        for c in children[v]:
            parent[c] = v
    order = _preorder(children)
    rank = [0] * n_nodes  # leaf rank in preorder
    lo = [0] * n_nodes
    hi = [0] * n_nodes
    palette = sorted({c for c in color if c is not None})
    bit = {c: 1 << k for k, c in enumerate(palette)}
    mask = [0] * n_nodes
    leaves_by_rank: list[int] = []
    for v in order:
        if label[v] is not None:
            rank[v] = len(leaves_by_rank)
            leaves_by_rank.append(v)
    for v in reversed(order):
        if label[v] is not None:
            lo[v], hi[v] = rank[v], rank[v] + 1
            mask[v] = bit[color[v]]
        else:
            lo[v] = lo[children[v][0]]
            hi[v] = hi[children[v][-1]]
            m = 0
            for c in children[v]:
                m |= mask[c]
            mask[v] = m
    ranks_of: dict[str, list[int]] = {c: [] for c in palette}
    for r, v in enumerate(leaves_by_rank):
        ranks_of[color[v]].append(r)
    full = (1 << len(palette)) - 1
    out: dict[str, dict[str, list[str]]] = {}
    for x in leaves_by_rank:
        seen = mask[x]
        nbrs: dict[str, list[str]] = {}
        u = parent[x]
        while u != -1 and seen != full:
            fresh = mask[u] & ~seen
            if fresh:
                for s in palette:
                    if fresh & bit[s]:
                        rs = ranks_of[s]
                        a, b = bisect_left(rs, lo[u]), bisect_left(rs, hi[u])
                        nbrs[s] = [label[leaves_by_rank[r]] for r in rs[a:b]]
                seen |= fresh
            u = parent[u]
        out[label[x]] = nbrs
    return out


def graph_text(colors: dict[str, str], nbrs: dict[str, dict[str, list[str]]]) -> str:
    """Graph file in bmgraph's canonical layout: vertices, then arcs, both sorted."""
    lines = [f"V {v} {colors[v]}" for v in sorted(colors)]
    for x in sorted(nbrs):
        lines.extend(f"A {x} {y}" for y in sorted(y for ys in nbrs[x].values() for y in ys))
    return "\n".join(lines) + "\n"


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# -- flips ------------------------------------------------------------------------


def certified_flip(
    rng: random.Random, colors: dict[str, str], nbrs: dict[str, dict[str, list[str]]], tries: int = 400
) -> tuple[str, str, str, str] | None:
    """Toggle one arc x->y so that the result is provably not a best match graph.

    Two certificates need nothing but the graph.  Every leaf has at least one
    best match of every other colour, so a deletion that empties N_s(x) is a
    "sink".  The colour-s neighbourhoods of any tree are its clusters cut down
    to the colour-s leaves, so they form a laminar family; a toggle after which
    N_s(x) overlaps some N_s(x') without nesting is a "laminarity" break.
    Returns ``(op, x, y, certificate)`` with op "del" or "add".
    """
    by_color: dict[str, list[str]] = {}
    for v in sorted(colors):
        by_color.setdefault(colors[v], []).append(v)
    xs = sorted(nbrs)
    for _ in range(tries):
        x = rng.choice(xs)
        s = rng.choice([c for c in by_color if c != colors[x]])
        current = set(nbrs[x][s])
        y = rng.choice(by_color[s])
        op = "del" if y in current else "add"
        changed = current - {y} if op == "del" else current | {y}
        if not changed:
            return op, x, y, "sink"
        for other in xs:
            if other == x or colors[other] == s:
                continue
            theirs = nbrs[other][s]
            inside = sum(1 for z in theirs if z in changed)
            if 0 < inside and inside < len(theirs) and inside < len(changed):
                return op, x, y, "laminarity"
    return None


def apply_flip(nbrs: dict[str, dict[str, list[str]]], colors: dict[str, str], flip) -> dict:
    op, x, y, _ = flip
    s = colors[y]
    out = dict(nbrs)
    out[x] = dict(nbrs[x])
    out[x][s] = [z for z in nbrs[x][s] if z != y] if op == "del" else sorted(nbrs[x][s] + [y])
    return out


# -- Newick ------------------------------------------------------------------------


def newick(tree: Tree) -> str:
    order = _preorder(tree.children)
    rep = [""] * len(tree.children)
    for v in reversed(order):
        lab = tree.label[v]
        rep[v] = lab if lab is not None else "(" + ",".join(rep[c] for c in tree.children[v]) + ")"
    return rep[0] + ";"


def color_map_text(colors: dict[str, str]) -> str:
    return "".join(f"{leaf}\t{colors[leaf]}\n" for leaf in sorted(colors))


def parse_tree(newick_text: str, color_text: str) -> Tree:
    """Tree from a Newick string (no lengths, no inner labels) and a colour sidecar."""
    colors = {}
    for line in color_text.splitlines():
        if line.strip():
            leaf, col = line.split("\t")
            colors[leaf] = col
    text = newick_text.strip()
    if not text.endswith(";"):
        raise ValueError("newick lacks ';'")
    children: list[list[int]] = []
    label: list[str | None] = []
    stack: list[int] = []
    token = ""

    def node(lab):
        children.append([])
        label.append(lab)
        if stack:
            children[stack[-1]].append(len(children) - 1)
        return len(children) - 1

    for ch in text[:-1]:
        if ch in "(),":
            if token:
                node(token)
                token = ""
            if ch == "(":
                stack.append(node(None))
            elif ch == ")":
                stack.pop()
        else:
            token += ch
    if token:
        node(token)
    if stack:
        raise ValueError("unbalanced newick")
    if sorted(lab for lab in label if lab is not None) != sorted(colors):
        raise ValueError("colour sidecar and tree leaves differ")
    return Tree(children, label, [colors.get(lab) if lab is not None else None for lab in label])
