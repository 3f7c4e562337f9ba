"""Exhaustive verdict sweep, too slow for the test suite (about 20 s).

    PYTHONPATH=src:tests python tests/sweep_two_color.py

For every connected, sink-free two-colored digraph on at most 3 red + 3 blue
vertices, the pairwise route must accept exactly when the graph is the best
match graph of some tree on those leaves; the trees are enumerated.  Prints
the counts per vertex split and exits 1 on any wrong verdict.
"""

from __future__ import annotations

import itertools
import sys
import time

from bmgraph import ColoredDigraph, LeafColoredTree, bmg_of_tree, recognize_ncbmg
from util import all_topologies, connected_sink_free_out_masks


def main() -> int:
    start = time.perf_counter()
    totals = {"graphs": 0, "bmgs": 0, "wrong": 0}
    for reds, blues in itertools.product(range(1, 4), repeat=2):
        n = reds + blues
        ids = tuple(f"v{v}" for v in range(n))
        colors = {ids[v]: "red" if v < reds else "blue" for v in range(n)}
        bmgs = {
            bmg_of_tree(LeafColoredTree(topo, colors)).out_adj
            for topo in all_topologies(ids)
        }
        graphs = bmg_count = wrong = 0
        for outs in connected_sink_free_out_masks(reds, blues):
            graph = ColoredDigraph(
                colors,
                [(ids[v], ids[w]) for v in range(n) for w in range(n) if outs[v] >> w & 1],
            )
            is_bmg = graph.out_adj in bmgs
            graphs += 1
            bmg_count += is_bmg
            if recognize_ncbmg(graph).accepted != is_bmg:
                wrong += 1
                print(f"wrong verdict: {sorted(graph.arcs())} on {reds}+{blues}")
        print(f"{reds}+{blues}: {graphs} graphs, {bmg_count} best match graphs, {wrong} wrong")
        totals["graphs"] += graphs
        totals["bmgs"] += bmg_count
        totals["wrong"] += wrong
    elapsed = time.perf_counter() - start
    print(
        f"total: {totals['graphs']} graphs, {totals['bmgs']} best match graphs, "
        f"{totals['wrong']} wrong verdicts, {elapsed:.1f} s"
    )
    return 1 if totals["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
