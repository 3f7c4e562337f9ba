"""Exactness beyond two colours: every graph on five or six vertices and
three or four colours, split 2+2+1, 3+1+1, 2+1+1+1, 4+1+1, 3+1+1+1 or
2+2+1+1, in which each vertex has an arc into every other colour, and every
graph on 2+2+2 vertices whose three colour pairs are best match graphs,
against the best match graphs of all trees on those leaves.  On seven
vertices, split 5+1+1, every best match graph and every single-arc flip
that leaves the best match graphs, against the trees on those leaves, which
also give each best match graph's least resolved tree.  On every graph the
pairwise route, which accepts through the direct candidate, agrees with its
full pair-layer candidate (``util.agrees_with_pair_layer``), so the pair
BUILD keeps its positive coverage."""

import itertools
from collections import Counter

from bmgraph import ColoredDigraph, LeafColoredTree, bmg_of_tree, recognize_ncbmg, redundant_edges_n
from bmgraph.n_color import ROUTES
from util import (
    agrees_with_pair_layer,
    all_topologies,
    coloured_graph,
    coloured_leaves,
    foreign_arc_out_masks,
    pair_bmg_product_out_masks,
)

GRAPHS = {
    (2, 2, 1): 729, (3, 1, 1): 49, (2, 1, 1, 1): 27,
    (4, 1, 1): 225, (3, 1, 1, 1): 343, (2, 2, 1, 1): 6561,
}
# Verdict stages per split and route.  On 2+2+1 and 2+2+1+1 both rejections
# behind the pair checks occur: pair trees that BUILD cannot join, and joined
# trees that only the final arc-for-arc gate rejects, as
# ``cases.gate_mismatch_graph``.  Where at most one colour has two or more
# vertices, each colour pair has a single vertex on one side and is a best
# match graph, so no pair check fails.
STAGES = {
    (2, 2, 1): {
        "pairwise-lrt": {
            "accepted": 87, "2cbmg-failure": 558, "triples-inconsistent": 28, "graph-mismatch": 56,
        },
        "informative-direct": {"accepted": 87, "triples-inconsistent": 346, "graph-mismatch": 296},
    },
    (3, 1, 1): {
        "pairwise-lrt": {"accepted": 43, "triples-inconsistent": 6},
        "informative-direct": {"accepted": 43, "triples-inconsistent": 6},
    },
    (2, 1, 1, 1): {"pairwise-lrt": {"accepted": 27}, "informative-direct": {"accepted": 27}},
    (4, 1, 1): {
        "pairwise-lrt": {"accepted": 165, "triples-inconsistent": 60},
        "informative-direct": {"accepted": 165, "triples-inconsistent": 60},
    },
    (3, 1, 1, 1): {
        "pairwise-lrt": {"accepted": 247, "triples-inconsistent": 96},
        "informative-direct": {"accepted": 247, "triples-inconsistent": 96},
    },
    (2, 2, 1, 1): {
        "pairwise-lrt": {
            "accepted": 407, "2cbmg-failure": 5022, "triples-inconsistent": 472, "graph-mismatch": 660,
        },
        "informative-direct": {"accepted": 407, "triples-inconsistent": 3718, "graph-mismatch": 2436},
    },
}
# On 2+2+2 each of the three pairs is one of the 19 best match graphs on 2+2
# leaves, so no pair check fails.  Consistent pair trees whose join still
# misses the graph reach the final gate: the corrigendum's gap.
PRODUCT_STAGES = {"accepted": 987, "triples-inconsistent": 3508, "graph-mismatch": 2364}


def sweep(sizes: tuple[int, ...], out_masks) -> dict[str, Counter]:
    """Stage counts per route over the graphs of the split ``sizes`` given by
    their out-neighbourhood bitmasks; each verdict must be acceptance exactly
    when the graph is a tree's BMG."""
    ids, colors = coloured_leaves(sizes)
    bmgs = {bmg_of_tree(LeafColoredTree(topo, colors)).out_masks for topo in all_topologies(ids)}
    stages = {route: Counter() for route in ROUTES}
    for outs in out_masks:
        graph = coloured_graph(sizes, outs)
        is_bmg = graph.out_masks in bmgs
        reports = {route: recognize_ncbmg(graph, route=route) for route in ROUTES}
        for route, report in reports.items():
            assert report.accepted == is_bmg, (route, sorted(graph.arcs()))
            stages[route][report.stage or "accepted"] += 1
        assert agrees_with_pair_layer(graph, reports["pairwise-lrt"]), sorted(graph.arcs())
    return stages


def check_splits(vertices: int) -> None:
    """Graph counts and verdict stages of the splits of ``vertices``."""
    splits = [sizes for sizes in GRAPHS if sum(sizes) == vertices]
    found = {sizes: sweep(sizes, foreign_arc_out_masks(sizes)) for sizes in splits}
    for sizes in splits:
        for route in ROUTES:
            assert sum(found[sizes][route].values()) == GRAPHS[sizes], (sizes, route)
    assert found == {sizes: STAGES[sizes] for sizes in splits}


def test_both_routes_accept_exactly_the_tree_bmgs_on_five_vertices():
    check_splits(5)


def test_both_routes_accept_exactly_the_tree_bmgs_on_six_vertices():
    check_splits(6)


def test_both_routes_accept_exactly_the_tree_bmgs_among_2_2_2_pair_bmg_products():
    found = sweep((2, 2, 2), pair_bmg_product_out_masks((2, 2, 2)))
    assert found == {route: PRODUCT_STAGES for route in ROUTES}


def test_both_routes_on_every_bmg_and_non_bmg_flip_of_the_seven_leaf_split_5_1_1():
    # Every tree on the leaves is enumerated, so the set of their graphs is
    # exactly the split's best match graphs, and a best match graph's least
    # resolved tree is the one tree with the fewest inner nodes that explains
    # it (Geiss et al. 2019); neither route is trusted for either.
    ids, colors = coloured_leaves((5, 1, 1))
    fewest: dict[tuple[int, ...], list[LeafColoredTree]] = {}  # per graph, its trees with fewest inner nodes
    topologies = all_topologies(ids)
    for topo in topologies:
        tree = LeafColoredTree(topo, colors)
        outs = bmg_of_tree(tree).out_masks
        best = fewest.get(outs)
        if best is None or len(tree.parent) < len(best[0].parent):
            fewest[outs] = [tree]
        elif len(tree.parent) == len(best[0].parent):
            best.append(tree)
    assert (len(topologies), len(fewest)) == (39_208, 571)
    flips: set[tuple[int, ...]] = set()
    color_of = [colors[v] for v in ids]
    for outs, best in fewest.items():
        assert len(best) == 1
        graph = ColoredDigraph.from_masks(colors, outs)
        assert redundant_edges_n(best[0], graph) == frozenset(), outs  # least resolved: no edge contracts
        reports = {route: recognize_ncbmg(graph, route=route) for route in ROUTES}
        for route, report in reports.items():
            assert report.accepted and report.lrt == best[0], (route, outs)
        assert agrees_with_pair_layer(graph, reports["pairwise-lrt"]), outs
        for x, y in itertools.permutations(range(len(ids)), 2):
            if color_of[x] != color_of[y]:
                flipped = outs[:x] + (outs[x] ^ 1 << y,) + outs[x + 1 :]
                if flipped not in fewest:
                    flips.add(flipped)
    assert len(flips) == 7_304
    for outs in flips:
        graph = ColoredDigraph.from_masks(colors, outs)
        reports = {route: recognize_ncbmg(graph, route=route) for route in ROUTES}
        for route, report in reports.items():
            assert not report.accepted, (route, outs)
        assert agrees_with_pair_layer(graph, reports["pairwise-lrt"]), outs
