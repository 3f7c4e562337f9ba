"""Exhaustive verdict sweeps, too slow for the test suite.

    PYTHONPATH=src:tests python tests/sweep_two_color.py

For every connected, sink-free two-colored digraph on at most 3 red + 3 blue
vertices, for every digraph on the colour splits 2+2+1, 3+1+1, 2+1+1+1
and 3+2+1 in which each vertex has an arc into every other colour, and for
every graph on 2+2+2 vertices whose three colour pairs are best match graphs,
both recognition routes must accept exactly when the graph is the best match
graph of some tree on those leaves; the trees are enumerated.  Then, on every
tree of at most 5 leaves coloured by at least two of three colours,
``redundant_edges_n`` must be the set of inner edges whose contraction keeps
the tree's best match graph.  Prints the counts per vertex split, with wrong
verdicts and verdict stages per route, and the redundant-edge mismatches, and
exits 1 on any wrong verdict or mismatch.
"""

from __future__ import annotations

import itertools
import sys
import time

from bmgraph import LeafColoredTree, bmg_of_tree, recognize_ncbmg, redundant_edges_n
from bmgraph.n_color import ROUTES
from util import (
    all_topologies,
    coloured_graph,
    coloured_leaves,
    coloured_trees,
    connected_sink_free_out_masks,
    contractible_edges,
    foreign_arc_out_masks,
    pair_bmg_product_out_masks,
)

SPLITS = ((2, 2, 1), (3, 1, 1), (2, 1, 1, 1), (3, 2, 1))


def main() -> int:
    start = time.perf_counter()
    totals = {"graphs": 0, "bmgs": 0, **{route: 0 for route in ROUTES}}
    for sizes in itertools.product(range(1, 4), repeat=2):
        _sweep(sizes, connected_sink_free_out_masks(*sizes), totals)
    for sizes in SPLITS:
        _sweep(sizes, foreign_arc_out_masks(sizes), totals)
    _sweep((2, 2, 2), pair_bmg_product_out_masks((2, 2, 2)), totals)
    trees = mismatches = 0
    for tree in coloured_trees(5, 3):
        graph = bmg_of_tree(tree)
        trees += 1
        if redundant_edges_n(tree, graph) != contractible_edges(tree, graph):
            mismatches += 1
            print(f"redundant-edge mismatch: {tree.newick()} {tree.colors}")
    elapsed = time.perf_counter() - start
    print(f"redundant edges: {trees} trees, {mismatches} mismatches")
    print(
        f"total: {totals['graphs']} graphs, {totals['bmgs']} best match graphs, "
        f"{_wrong(totals)}, {elapsed:.1f} s"
    )
    return 1 if mismatches or any(totals[route] for route in ROUTES) else 0


def _sweep(sizes: tuple[int, ...], out_masks, totals: dict) -> None:
    """Verdicts of both routes on the graphs of one colour split, given by
    their out-neighbourhood bitmasks, against the BMGs of all trees."""
    ids, colors = coloured_leaves(sizes)
    bmgs = {bmg_of_tree(LeafColoredTree(topo, colors)).out_adj for topo in all_topologies(ids)}
    graphs = bmg_count = 0
    wrong = {route: 0 for route in ROUTES}
    stages: dict[str, dict[str, int]] = {route: {} for route in ROUTES}
    split = "+".join(map(str, sizes))
    for outs in out_masks:
        graph = coloured_graph(sizes, outs)
        is_bmg = graph.out_adj in bmgs
        graphs += 1
        bmg_count += is_bmg
        for route in ROUTES:
            report = recognize_ncbmg(graph, route=route)
            stage = report.stage or "accepted"
            stages[route][stage] = stages[route].get(stage, 0) + 1
            if report.accepted != is_bmg:
                wrong[route] += 1
                print(f"wrong {route} verdict: {sorted(graph.arcs())} on {split}")
    print(f"{split}: {graphs} graphs, {bmg_count} best match graphs, {_wrong(wrong)}")
    for route in ROUTES:
        print(f"  {route}: {dict(sorted(stages[route].items()))}")
    totals["graphs"] += graphs
    totals["bmgs"] += bmg_count
    for route in ROUTES:
        totals[route] += wrong[route]


def _wrong(counts: dict) -> str:
    return ", ".join(f"{counts[route]} wrong {route}" for route in ROUTES)


if __name__ == "__main__":
    sys.exit(main())
