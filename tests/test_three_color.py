"""Exactness beyond two colours: every graph on five vertices and three or
four colours in which each vertex has an arc into every other colour, and
every graph on 2+2+2 vertices whose three colour pairs are best match graphs,
against the best match graphs of all trees on those leaves."""

from collections import Counter

from bmgraph import LeafColoredTree, bmg_of_tree, recognize_ncbmg
from bmgraph.n_color import ROUTES
from util import (
    all_topologies,
    coloured_graph,
    coloured_leaves,
    foreign_arc_out_masks,
    pair_bmg_product_out_masks,
)

GRAPHS = {(2, 2, 1): 729, (3, 1, 1): 49, (2, 1, 1, 1): 27}
# Verdict stages per split and route.  On 2+2+1 both rejections behind the
# pair checks occur: pair trees that BUILD cannot join, and joined trees that
# only the final arc-for-arc gate rejects, as ``cases.gate_mismatch_graph``.
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
        for route in ROUTES:
            report = recognize_ncbmg(graph, route=route)
            assert report.accepted == is_bmg, (route, sorted(graph.arcs()))
            stages[route][report.stage or "accepted"] += 1
    return stages


def test_both_routes_accept_exactly_the_tree_bmgs_on_five_vertices():
    found = {sizes: sweep(sizes, foreign_arc_out_masks(sizes)) for sizes in GRAPHS}
    for sizes, count in GRAPHS.items():
        for route in ROUTES:
            assert sum(found[sizes][route].values()) == count, (sizes, route)
    assert found == STAGES


def test_both_routes_accept_exactly_the_tree_bmgs_among_2_2_2_pair_bmg_products():
    found = sweep((2, 2, 2), pair_bmg_product_out_masks((2, 2, 2)))
    assert found == {route: PRODUCT_STAGES for route in ROUTES}
