"""Forward construction tree -> best match graph, plus oracle and simulator.

Both engines rest on the characterization that the colour-s
out-neighbourhood of a leaf x (s not x's colour) is exactly the set of
colour-s leaves below the lowest ancestor of x that has colour s below it.
For a child v of p, every leaf below v has p as that ancestor for the
colours ``cmask[p] & ~cmask[v]`` (``_colormask``), so in preorder the
targets of v are those of p plus the leaves below p of those colours.
``bmg_of_tree``, the engine of every gate and of the simulator, keeps them
as leaf bitsets, O(N) bitset operations of n bits each; ``bmg_targets``,
with which ``from-tree`` writes the graph file, keeps them as sorted label
lists, about one element per arc.  ``bmg_oracle`` re-derives the graph
from the defining quantifier with naive root-path lca, sharing nothing
with the engines beyond the parent array; tests hold the three equal.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .digraph import ColoredDigraph, bits
from .errors import GraphError
from .tree import LeafColoredTree, _canonical

SHAPES = ("binary", "multifurcating")
CONTRACTION_PROBABILITY = 0.2  # chance that ``simulate`` contracts an inner edge
# Uniform colourings ``simulate`` draws, hoping for one that uses every colour,
# before it builds one that does; far fewer suffice unless colours are
# nearly as many as leaves.
COLORING_DRAWS = 500


def bmg_of_tree(tree: LeafColoredTree) -> ColoredDigraph:
    """Best match digraph of a leaf-colored tree, top down over leaf bitsets."""
    parent, cmask, node_of = tree.parent, tree._colormask, tree._leaf_node
    labs = tree.leaf_labels
    below = [0] * len(parent)  # leaves under each node, bit i for labs[i]
    of_color = [0] * len(tree.color_universe)  # leaves of each colour
    for i, lab in enumerate(labs):
        v = node_of[lab]
        below[v] = 1 << i
        of_color[cmask[v].bit_length() - 1] |= 1 << i
    for v in range(len(parent) - 1, 0, -1):  # preorder ids: kids after parents
        below[parent[v]] |= below[v]
    picked: dict[int, int] = {}  # a colour set -> leaves of those colours
    reach = [0] * len(parent)
    for v in range(1, len(parent)):
        p = parent[v]
        new = cmask[p] & ~cmask[v]
        if not new:
            reach[v] = reach[p]
            continue
        leaves = picked.get(new)
        if leaves is None:
            leaves = picked[new] = sum(map(of_color.__getitem__, bits(new)))
        reach[v] = reach[p] | below[p] & leaves
    return ColoredDigraph.from_masks(tree.colors, [reach[node_of[lab]] for lab in labs])


def bmg_targets(tree: LeafColoredTree) -> list[list[str]]:
    """Per node v of ``tree``, the sorted labels of the leaves in
    ``bmg_of_tree``'s ``reach[v]``: at a leaf, its out-neighbours.  A child
    v of p adds to p's list, for each colour c of ``cmask[p] & ~cmask[v]``,
    the colour-c leaves with node ids from p up to ``end[p]``, where p's
    subtree ends: a slice of colour c's leaves in preorder."""
    children, cmask = tree.children, tree._colormask
    end = list(range(1, len(children) + 1))
    for v in range(len(children) - 1, -1, -1):
        if children[v]:
            end[v] = end[children[v][-1]]
    nodes: list[list[int]] = [[] for _ in tree.color_universe]  # each colour's leaves in preorder
    names: list[list[str]] = [[] for _ in tree.color_universe]  # and their labels
    for lab, v in tree._leaf_node.items():  # in preorder
        c = cmask[v].bit_length() - 1
        nodes[c].append(v)
        names[c].append(lab)
    found: list[list[str]] = [[]] * len(children)
    for p, kids in enumerate(children):  # preorder: p's list is done before its kids'
        mine, stop = found[p], end[p]
        for v in kids:
            new = cmask[p] & ~cmask[v]
            if not new:
                found[v] = mine
                continue
            got = mine[:]
            while new:
                low = new & -new
                new ^= low
                c = low.bit_length() - 1
                got += names[c][bisect_left(nodes[c], p) : bisect_left(nodes[c], stop)]
            got.sort()
            found[v] = got
    return found


def bmg_oracle(tree: LeafColoredTree) -> ColoredDigraph:
    """Definition-level reconstruction: check every (x, y, y') explicitly.

    The ancestor order along a fixed leaf's root path is its path position,
    and lca is the last shared node of two root paths.  No data is shared
    with :func:`bmg_of_tree` beyond the parent array.
    """
    parent = tree.parent
    labs = tree.leaf_labels
    colors = tree.colors
    paths: dict[str, list[int]] = {}
    for lab in labs:
        v = tree.leaf_node(lab)
        path = [v]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        paths[lab] = path[::-1]  # root first

    def lca_pos(x: str, y: str) -> int:
        """Position on x's root path of lca(x, y); larger means closer to x."""
        px, py = paths[x], paths[y]
        k = 0
        while k < len(px) and k < len(py) and px[k] == py[k]:
            k += 1
        return k - 1

    arcs = []
    for x in labs:
        pos = {other: lca_pos(x, other) for other in labs}  # one root-path walk per pair
        for y in labs:
            if y == x or colors[y] == colors[x]:
                continue
            if all(
                pos[y] >= pos[other]
                for other in labs
                if colors[other] == colors[y]
            ):
                arcs.append((x, y))
    return ColoredDigraph(dict(colors), arcs)


@dataclass(frozen=True)
class SimulationConfig:
    """Reproducible random scenario: tree shape, coloring, and seed."""

    leaf_count: int
    color_count: int
    seed: int
    shape: str = "multifurcating"

    def __post_init__(self) -> None:
        if self.leaf_count < 2:
            raise GraphError("simulation needs at least 2 leaves")
        if self.color_count < 1:
            raise GraphError("simulation needs at least 1 color")
        if self.color_count > self.leaf_count:
            raise GraphError("more colors than leaves cannot be surjective")
        if self.shape not in SHAPES:
            raise GraphError(f"unknown shape {self.shape!r}; pick one of {SHAPES}")


def simulate(cfg: SimulationConfig) -> tuple[LeafColoredTree, ColoredDigraph]:
    """Grow a random leaf-colored tree that uses every colour and return it
    with its best match graph."""
    rng = random.Random(cfg.seed)
    kids = _grow_yule_shape(cfg.leaf_count, rng)
    n = cfg.leaf_count
    width = len(str(n))
    names = [f"v{i:0{width}d}" for i in range(1, n + 1)]
    label: list[str | None] = [None] * len(kids)
    stack, unused = [0], iter(names)
    while stack:  # leaves named in depth-first order
        v = stack.pop()
        if kids[v] is None:
            label[v] = next(unused)
        else:
            stack.extend(reversed(kids[v]))  # type: ignore[arg-type]
    k = cfg.color_count
    cwidth = len(str(k))
    color_names = [f"c{c:0{cwidth}d}" for c in range(1, k + 1)]
    for _ in range(COLORING_DRAWS):
        assignment = [rng.randrange(k) for _ in range(n)]
        if len(set(assignment)) == k:
            break
    else:  # some colour kept missing: give each colour a leaf, the rest at random
        assignment = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(assignment)
    colors = {names[i]: color_names[assignment[i]] for i in range(n)}
    tree = LeafColoredTree._of_layout(_canonical(kids, label, range(len(kids) - 1, -1, -1)), colors)
    if cfg.shape == "multifurcating":
        doomed = [e for e in tree.inner_edges() if rng.random() < CONTRACTION_PROBABILITY]
        if doomed:
            tree = tree.contract_edges(doomed)
    return tree, bmg_of_tree(tree)


def _grow_yule_shape(n: int, rng: random.Random) -> list[list[int] | None]:
    """Child lists (``None`` for a leaf) made by repeatedly splitting a
    uniformly chosen leaf until ``n`` leaves exist; kids after their parent."""
    kids: list[list[int] | None] = [None]
    leaves = [0]
    for _ in range(n - 1):
        pick = rng.randrange(len(leaves))
        v, a = leaves[pick], len(kids)
        kids[v] = [a, a + 1]
        kids += (None, None)
        leaves[pick] = a
        leaves.append(a + 1)
    return kids
