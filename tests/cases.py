"""Hand-checked fixture instances used by the golden tests.

Each constructor returns a fresh object; the structural claims stated here
are re-verified inside the tests rather than trusted.
"""

from __future__ import annotations

from bmgraph import ColoredDigraph, LeafColoredTree
from util import undirected_graph


def smallest_counterexample() -> ColoredDigraph:
    """Four-vertex connected two-colored digraph with all out-degrees >= 1
    that no leaf-colored tree explains: the alternating directed 4-cycle."""
    return ColoredDigraph(
        {"w": "red", "x": "red", "y": "blue", "z": "blue"},
        [("w", "y"), ("y", "x"), ("x", "z"), ("z", "w")],
    )


def counter_triples_graph() -> ColoredDigraph:
    """Consistent informative triples yet not a best match graph: vertex a2
    has no out-arc, and the Aho tree of {ab|b2, ab|a2, ab2|a2} explains a
    different graph."""
    return ColoredDigraph(
        {"a": "red", "a2": "red", "b": "blue", "b2": "blue"},
        [("a", "b"), ("b", "a"), ("b2", "a")],
    )


def weird_tree() -> LeafColoredTree:
    """Two classes without in-neighbors: alpha={9,10} at the root, beta={7,8}
    deeper down; R(alpha)={1..6}, R(beta)={5,6}."""
    topology = (("1", "2"), ("3", "4"), ("7", "8", ("5", "6")), "9", "10")
    colors = {
        "1": "blue",
        "2": "red",
        "3": "blue",
        "4": "red",
        "5": "blue",
        "6": "red",
        "7": "red",
        "8": "red",
        "9": "red",
        "10": "red",
    }
    return LeafColoredTree(topology, colors)


def countercog_tree() -> LeafColoredTree:
    """Duplication above the root of a three-species tree followed by
    complementary losses; its reciprocal graph is the path u-v-x-w."""
    return LeafColoredTree(
        (("u", "v"), ("w", "x")),
        {"u": "red", "v": "cyan", "w": "red", "x": "yellow"},
    )


def p4_path() -> ColoredDigraph:
    """Two-colored path on four vertices: bipartite but not complete."""
    return undirected_graph(
        {"u": "red", "v": "blue", "x": "red", "w": "blue"},
        [("u", "v"), ("v", "x"), ("x", "w")],
    )


def counterex_sym_graph() -> ColoredDigraph:
    """Symmetric three-colored 6-cycle: every two-color induced subgraph is a
    reciprocal best match graph, the whole is no best match graph."""
    colors = {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C"}
    undirected = [
        ("a1", "b1"),
        ("b1", "c1"),
        ("c1", "a2"),
        ("a2", "b2"),
        ("b2", "c2"),
        ("c2", "a1"),
    ]
    arcs = undirected + [(y, x) for x, y in undirected]
    return ColoredDigraph(colors, arcs)


def three_class_scenario_tree() -> LeafColoredTree:
    """Three-colored scenario with exactly three non-trivial classes:
    {a2,a3,a4}, {b3,b4}, {c3,c4}."""
    topology = (
        "a1",
        ("b1", "c1"),
        (("a2", "a3", "a4"), (("b2", "c2"), (("b3", "b4"), ("c3", "c4")))),
    )
    colors = {
        "a1": "A",
        "a2": "A",
        "a3": "A",
        "a4": "A",
        "b1": "B",
        "b2": "B",
        "b3": "B",
        "b4": "B",
        "c1": "C",
        "c2": "C",
        "c3": "C",
        "c4": "C",
    }
    return LeafColoredTree(topology, colors)


def rvsr_tree() -> LeafColoredTree:
    """Several classes share one in-neighborhood; plain reachable sets merge
    them, extended reachable sets keep them apart."""
    return LeafColoredTree(
        ("a1", "b1", ("a5", ("a6", "b2"))),
        {"a1": "blue", "a5": "blue", "a6": "blue", "b1": "red", "b2": "red"},
    )


def gate_mismatch_graph() -> ColoredDigraph:
    """Three-colored graph whose every color pair is a two-colored best
    match graph and whose pair trees are BUILD-consistent, yet the candidate
    tree ((v1,v2),(v3,v4,v5)) lacks the input arc v3 -> v2: only the final
    arc-for-arc gate rejects it.  It is a simulated best match graph with
    the arc v3 -> v1 removed."""
    return ColoredDigraph(
        {"v1": "c2", "v2": "c1", "v3": "c3", "v4": "c1", "v5": "c2"},
        [
            ("v1", "v2"), ("v1", "v3"), ("v2", "v1"), ("v2", "v3"),
            ("v3", "v2"), ("v3", "v4"), ("v3", "v5"),
            ("v4", "v3"), ("v4", "v5"), ("v5", "v3"), ("v5", "v4"),
        ],
    )
