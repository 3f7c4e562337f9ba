"""Seven-leaf sweep against a tree-enumeration oracle, too slow for the test suite.

    PYTHONPATH=src:tests python tests/sweep_seven_leaves.py [SPLIT ...]

A split such as ``2+2+2+1`` colours 7 leaves; without arguments every split
of 7 leaves into 2-4 colours runs (about 10-15 min on 2 vCPU).  For each
split, all 39,208 trees on the leaves are enumerated, so the set of their
best match graphs is exactly the split's, and each one's least resolved tree
is the one tree with the fewest inner nodes that explains it (Geiss et al.
2019); neither route is trusted for either.  Both routes must accept every
best match graph with that tree, and reject every distinct graph one
cross-colour arc flip away from one that is no best match graph, and that
tree must have no redundant edge (``redundant_edges_n``).  The pairwise
route, which accepts through the direct candidate on three or more colours,
must also agree with its full pair-layer candidate on every graph
(``util.agrees_with_pair_layer``): the same least resolved tree on a best
match graph, and the same stage, witness and pair notes on a flip.  Prints
per split the graph counts, the wrong verdicts and the verdict stages per
route, and exits 1 on any wrong verdict or tree.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

from bmgraph import ColoredDigraph, LeafColoredTree, bmg_of_tree, recognize_ncbmg, redundant_edges_n
from bmgraph.n_color import ROUTES
from util import agrees_with_pair_layer, all_topologies, coloured_leaves

LEAVES = 7


def splits(leaves: int = LEAVES, colours: range = range(2, 5)):
    """Every split of ``leaves`` into the given numbers of colours, largest
    colour class first."""
    def parts(total: int, count: int, most: int):
        if count == 1:
            if total <= most:
                yield (total,)
            return
        for first in range(min(total - count + 1, most), 0, -1):
            for rest in parts(total - first, count - 1, first):
                yield (first, *rest)

    for count in colours:
        yield from parts(leaves, count, leaves)


def sweep(sizes: tuple[int, ...]) -> int:
    """Check both routes on the split ``sizes``; print its counts and return
    the number of wrong outcomes."""
    ids, colors = coloured_leaves(sizes)
    fewest: dict[tuple[int, ...], list[LeafColoredTree]] = {}  # per graph, its trees with fewest inner nodes
    for topo in all_topologies(ids):
        tree = LeafColoredTree(topo, colors)
        outs = bmg_of_tree(tree).out_masks
        best = fewest.get(outs)
        if best is None or len(tree.parent) < len(best[0].parent):
            fewest[outs] = [tree]
        elif len(tree.parent) == len(best[0].parent):
            best.append(tree)
    color_of = [colors[v] for v in ids]
    flips: set[tuple[int, ...]] = set()
    for outs in fewest:
        for x, y in itertools.permutations(range(len(ids)), 2):
            if color_of[x] != color_of[y]:
                flipped = outs[:x] + (outs[x] ^ 1 << y,) + outs[x + 1 :]
                if flipped not in fewest:
                    flips.add(flipped)
    split = "+".join(map(str, sizes))
    wrong = {route: 0 for route in ROUTES} | {"oracle": 0, "pair-layer": 0}
    stages: dict[str, Counter] = {route: Counter() for route in ROUTES}
    for outs, best in fewest.items():
        graph = ColoredDigraph.from_masks(colors, outs)
        if redundant_edges_n(best[0], graph):
            wrong["oracle"] += 1
            print(f"oracle tree of best match graph {outs} of {split} has a redundant edge")
        for route in ROUTES:
            report = recognize_ncbmg(graph, route=route)
            stages[route][report.stage or "accepted"] += 1
            if len(best) != 1 or not report.accepted or report.lrt != best[0]:
                wrong[route] += 1
                print(f"wrong {route} outcome on best match graph {outs} of {split}")
            if route == "pairwise-lrt" and not agrees_with_pair_layer(graph, report):
                wrong["pair-layer"] += 1
                print(f"pair-layer candidate differs on best match graph {outs} of {split}")
    for outs in sorted(flips):
        graph = ColoredDigraph.from_masks(colors, outs)
        for route in ROUTES:
            report = recognize_ncbmg(graph, route=route)
            stages[route][report.stage or "accepted"] += 1
            if report.accepted:
                wrong[route] += 1
                print(f"wrong {route} verdict on flip {outs} of {split}")
            if route == "pairwise-lrt" and not agrees_with_pair_layer(graph, report):
                wrong["pair-layer"] += 1
                print(f"pair-layer candidate differs on flip {outs} of {split}")
    print(
        f"{split}: {len(fewest)} best match graphs, {len(flips)} non-BMG flips, "
        + ", ".join(f"{count} wrong {name}" for name, count in wrong.items())
    )
    for route in ROUTES:
        print(f"  {route}: {dict(sorted(stages[route].items()))}")
    return sum(wrong.values())


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    chosen = [tuple(int(s) for s in arg.split("+")) for arg in argv] or list(splits())
    for sizes in chosen:
        if sum(sizes) != LEAVES or min(sizes) < 1 or len(sizes) < 2:
            print(f"not a split of {LEAVES} leaves into 2 or more colours: {'+'.join(map(str, sizes))}")
            return 2
    wrong = sum(sweep(sizes) for sizes in chosen)
    print(f"total: {len(chosen)} splits, {wrong} wrong, {time.perf_counter() - start:.1f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
