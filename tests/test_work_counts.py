"""Deterministic work counts of both BUILDs and of the pair layer as
complexity guards, and one memory guard on the direct route.

Single timings on a shared host spread up to 2x, so a regression in how
BUILD work grows can hide in noise; the counts of ``util.build_work`` do
not drift.  Each bound is an upper bound on today's count or log-log slope,
over caterpillars of 200, 400 and 800 leaves and Yule graphs of 100, 200
and 400 leaves in 20 colours.  On three or more colours the pairwise route
accepts these graphs through the direct candidate, so the pair layer's
work is counted on ``util.pair_layer_report``, its full candidate, under
the name ``PAIR_LAYER``."""

import math
import sys
import tracemalloc

import pytest

from bmgraph import ColoredDigraph, SimulationConfig, bmg_of_tree, recognize_ncbmg, simulate
from bmgraph.graphio import format_graph, parse_graph
from cases import counterex_sym_graph, gate_mismatch_graph
from util import build_work, caterpillar, pair_layer_report

SIZES = (200, 400, 800)
YULE_SIZES = (100, 200, 400)
ROUTES = ("informative-direct", "pairwise-lrt")
PAIR_LAYER = "pair-layer"  # the pairwise route's full pair-layer candidate and gate
PAIR_COUNTS = ("pair_classes", "axiom_checks", "hasse_passes", "scans", "walks", "lca")


def _slope(counts: list[int], sizes: tuple[int, ...] = SIZES) -> float:
    """Least-squares slope of log(count) over log(leaves)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _recognized(graph: ColoredDigraph, route: str):
    """The report of ``graph`` on ``route`` or on ``PAIR_LAYER``."""
    return pair_layer_report(graph) if route == PAIR_LAYER else recognize_ncbmg(graph, route=route)


@pytest.fixture(scope="module")
def work():
    """Per (route, colours), the work counts of each caterpillar size."""
    found = {}
    for colors in (2, 20):
        for n in SIZES:
            graph = bmg_of_tree(caterpillar(n, colors))
            for route in (*ROUTES, PAIR_LAYER):
                with build_work() as counts:
                    assert _recognized(graph, route).accepted
                found.setdefault((route, colors), []).append(counts)
    return found


def test_direct_route_glues_once_per_group(work):
    # the chunks that share a leaf are joined before the merge, so their
    # count grows with the depth (slopes 1.01 and 1.09 when first measured),
    # while each level still visits its live sources (slopes 2.00 and 2.10),
    # one AND per visit, as a source carries the chunk it glues
    chunks = {colors: [c["chunks"] for c in work["informative-direct", colors]] for colors in (2, 20)}
    # 395 / 795 / 1,595 on two colours and 3,410 / 7,410 / 15,410 on twenty
    assert chunks[2][-1] <= 1_760 and chunks[20][-1] <= 17_000, chunks
    for colors, counts in chunks.items():
        assert _slope(counts) <= 1.2, (colors, counts)
        visits = [c["visits"] for c in work["informative-direct", colors]]
        assert _slope(visits) <= 2.15, (colors, visits)


def test_pairwise_route_walks_each_pair_tree_once(work):
    # one _lca call per level on two colours (slope 1.00 when first measured),
    # one per level and family on twenty (1.055 when first measured)
    for colors, bound in ((2, 1.05), (20, 1.1)):
        lca = [c["lca"] for c in work[PAIR_LAYER, colors]]
        assert _slope(lca) <= bound, (colors, lca)
    assert [c["chunks"] for c in work[PAIR_LAYER, 2]] == [0, 0, 0]
    chunks = [c["chunks"] for c in work[PAIR_LAYER, 20]]
    assert _slope(chunks) <= 1.15, chunks


def test_the_pair_layer_decides_each_colour_pair_in_one_pass(work):
    # one class table, one axiom check and one Hasse pass per colour pair:
    # 1 pair on two colours, 190 on twenty; the direct route runs none
    for colors in (2, 20):
        pairs = colors * (colors - 1) // 2
        for c in work[PAIR_LAYER, colors]:
            assert c["pair_classes"] == c["axiom_checks"] == c["hasse_passes"] == pairs, (colors, c)
        for c in work["informative-direct", colors]:
            assert c["pair_classes"] == c["axiom_checks"] == c["hasse_passes"] == 0, (colors, c)


def test_the_pairwise_route_runs_the_pair_layer_only_where_it_decides(work, yule_work):
    # on two colours the one pair body gives the whole candidate, so the
    # route makes one pair_topology call and the full candidate's work; an
    # accepted graph of twenty colours runs no pair body and no _lca call,
    # only the direct route's BUILD
    for c, full in zip(work["pairwise-lrt", 2], work[PAIR_LAYER, 2]):
        assert c["pair_classes"] == 1 and c == full, (c, full)
    accepted = work["pairwise-lrt", 20] + [c for c, _ in yule_work["pairwise-lrt"]]
    direct = work["informative-direct", 20] + [c for c, _ in yule_work["informative-direct"]]
    for c, d in zip(accepted, direct):
        assert c["pair_classes"] == c["lca"] == 0 and c == d, (c, d)


# per rejected graph, its stage and the pairwise route's pair-layer work
# (PAIR_COUNTS): the gate-mismatch graph passes every colour pair, so its
# full pair layer runs, as when it decides the graph alone; the 6-cycle
# passes every pair too, but the direct attempt forced a level there, so no
# tree displays its pair trees and their BUILD is left out (3 _lca calls
# when it ran); on the Yule cuts a body runs only on the colour pairs the
# rejected direct tree does not explain, up to the first failing one (25 and
# 428 bodies when every pair up to it ran), and the 400-leaf graph's two
# components before the failing one are explained in full, so their bodies
# and BUILD never run (380 bodies and 5,734 _lca calls when they did)
REJECTED = {
    "gate mismatch": ("graph-mismatch", (3, 3, 3, 9, 12, 7)),
    "symmetric 6-cycle": ("triples-inconsistent", (3, 3, 3, 12, 15, 0)),
    "Yule 100 x 20 cut": ("2cbmg-failure", (1, 0, 0, 0, 1, 0)),
    "Yule 400 x 20 cut": ("2cbmg-failure", (1, 0, 0, 0, 1, 0)),  # fails in its third component
}
# per rejected graph, the direct route's BUILD levels and glue-source visits:
# the direct route stops at its first level that does not split, so the
# stuck-level rule of the pairwise route's direct attempt costs it nothing
REJECTED_DIRECT = {
    "gate mismatch": (2, 8),
    "symmetric 6-cycle": (1, 6),
    "Yule 100 x 20 cut": (33, 513),
    "Yule 400 x 20 cut": (142, 2962),
}


def _without_last_arc(graph: ColoredDigraph) -> ColoredDigraph:
    ids = graph.vertex_ids
    return ColoredDigraph(graph.colors_as_dict(), [(ids[i], ids[j]) for i, j in sorted(graph.arcs())[:-1]])


@pytest.fixture(scope="module")
def rejected():
    """The rejected graphs of ``REJECTED``, by name."""
    return {
        "gate mismatch": gate_mismatch_graph(),
        "symmetric 6-cycle": counterex_sym_graph(),
        "Yule 100 x 20 cut": _without_last_arc(simulate(SimulationConfig(100, 20, 2))[1]),
        "Yule 400 x 20 cut": _without_last_arc(simulate(SimulationConfig(400, 20, 2))[1]),
    }


def test_a_rejected_graph_runs_pair_bodies_only_where_the_direct_tree_differs(rejected):
    # the direct attempt's rejected tree vouches for the colour pairs its
    # best match graph reproduces; the pair layer runs the others and names
    # the rejection it names when it decides the graph alone
    for name, graph in rejected.items():
        with build_work() as counts:
            report = recognize_ncbmg(graph)
        alone = pair_layer_report(graph)
        assert (report.stage, tuple(counts[k] for k in PAIR_COUNTS)) == REJECTED[name], (name, counts)
        assert (report.witness, report.pair_verdicts) == (alone.witness, alone.pair_verdicts), name


def test_the_direct_route_stops_at_its_first_stuck_level(rejected):
    for name, graph in rejected.items():
        with build_work() as counts:
            assert not recognize_ncbmg(graph, route="informative-direct").accepted
        assert (counts["levels"], counts["visits"]) == REJECTED_DIRECT[name], (name, counts)


def test_each_level_is_one_inner_node_of_the_tree(work):
    # one merge per BUILD level, and a tree on n leaves has at most n - 1 inner nodes
    for (route, colors), counts in work.items():
        for n, c in zip(SIZES, counts):
            assert 0 < c["levels"] <= n - 1, (route, colors, n, c)


@pytest.fixture(scope="module")
def yule_work():
    """Per route, the work counts and components of each 20-colour Yule
    graph; seed 2 splits the 400-leaf graph into three components."""
    found = {}
    for n in YULE_SIZES:
        _, graph = simulate(SimulationConfig(n, 20, 2))
        for route in (*ROUTES, PAIR_LAYER):
            with build_work() as counts:
                report = _recognized(graph, route)
            assert report.accepted
            found.setdefault(route, []).append((counts, len(report.components)))
    return found


def test_yule_pairwise_work_grows_with_the_levels(yule_work):
    # when first measured: _lca calls 2,394 / 4,775 / 8,826 (slope 0.94) and
    # chunks 1,388 / 3,457 / 7,118 (slope 1.18); each colour pair of each
    # component is decided by one class table, axiom check and Hasse pass
    lca = [c["lca"] for c, _ in yule_work[PAIR_LAYER]]
    chunks = [c["chunks"] for c, _ in yule_work[PAIR_LAYER]]
    assert lca[-1] <= 9_300 and _slope(lca, YULE_SIZES) <= 1.0, lca
    assert chunks[-1] <= 7_500 and _slope(chunks, YULE_SIZES) <= 1.25, chunks
    assert max(comps for _, comps in yule_work[PAIR_LAYER]) > 1
    for c, comps in yule_work[PAIR_LAYER]:
        assert c["pair_classes"] == c["axiom_checks"] == c["hasse_passes"] == 190 * comps, (comps, c)


def test_yule_direct_work_grows_with_the_levels(yule_work):
    # glue-source visits 521 / 1,525 / 2,976 (slope 1.26) when first
    # measured; 516 / 1,511 / 2,962 once a source goes only to the block
    # that holds its chunk, also where one block is inner
    visits = [c["visits"] for c, _ in yule_work["informative-direct"]]
    assert visits[-1] <= 3_130 and _slope(visits, YULE_SIZES) <= 1.3, visits
    for c, _ in yule_work["informative-direct"]:
        assert c["pair_classes"] == c["axiom_checks"] == c["hasse_passes"] == 0, c


def test_the_pair_layer_scans_each_class_key_once(work, yule_work):
    # pair_classes lists each class's out-key with one scan_bits call; the
    # in-tables are the transpose of those lists, so no in-key is scanned
    found = [c for colors in (2, 20) for c in work[PAIR_LAYER, colors]]
    found += [c for c, _ in yule_work[PAIR_LAYER]]
    for c in found:
        assert 0 < c["scans"] == c["classes"], c


def test_the_pair_layer_walks_each_class_a_bounded_number_of_times(work, yule_work):
    # two_color.bits walks per class, when first measured: on a caterpillar
    # one per pair over its vertices and one per class, in its piece and its
    # Hasse pass, as no axiom premise leaves a class open (2 colours 201 /
    # 401 / 801 walks over 200 / 400 / 800 classes, 20 colours 3,990 /
    # 7,790 / 15,390 over 3,800 / 7,600 / 15,200); on the Yule graphs
    # 1,920 / 4,087 / 10,529 over 1,307 / 2,482 / 5,337 classes.  N2 is one
    # AND per piece, no empty axiom candidate mask is walked, and R' walks
    # only groups of two or more classes with one in-neighbourhood
    bounds = {  # walks per thousand classes, the measured ratio rounded up
        ("caterpillar", 2): (1005, 1003, 1002),
        ("caterpillar", 20): (1050, 1025, 1013),
        ("yule", 20): (1470, 1647, 1973),
    }
    found = {("caterpillar", colors): work[PAIR_LAYER, colors] for colors in (2, 20)}
    found["yule", 20] = [c for c, _ in yule_work[PAIR_LAYER]]
    for scenario, counts in found.items():
        for c, bound in zip(counts, bounds[scenario]):
            assert 0 < 1000 * c["walks"] <= bound * c["classes"], (scenario, bound, c)


def test_each_component_build_visits_its_own_groups_only():
    # 2,000 components ((a, b), c), a of colour a, b and c of colour b: b and c
    # share N_a = {a}, so each component has two groups and one BUILD level
    pairs = 2000
    colors = {f"{side}{i:04d}": "b" if side == "c" else side for i in range(pairs) for side in "abc"}
    arcs = [(f"{x}{i:04d}", f"{y}{i:04d}") for i in range(pairs) for x, y in ("ab", "ba", "ca")]
    graph = ColoredDigraph(colors, arcs)
    with build_work() as counts:
        assert recognize_ncbmg(graph, route="informative-direct").accepted
    # one group per (t, N_t), as no arc joins one colour
    groups = {(t, n) for out in graph.out_masks for t, mask in enumerate(graph.color_masks) if (n := out & mask)}
    assert len(groups) == 2 * pairs
    assert 0 < counts["visits"] <= 4 * len(groups), counts


def test_direct_route_keeps_no_per_vertex_colour_table():
    # the direct route takes each N_t(a) as ``out & L_t`` where it needs it,
    # so its peak allocation stays a small multiple of the graph's own
    # out-bitsets: 7.99x when first measured on parsed Yule 2000 x 20
    # (seed 3), the pairwise route 8.9x; a per-(vertex, colour) table of
    # out-neighbourhoods, kept for the life of the graph, made it 34.4x
    _, simulated = simulate(SimulationConfig(2000, 20, 3))
    graph = parse_graph(format_graph(simulated))
    own = sum(map(sys.getsizeof, graph.out_masks))
    tracemalloc.start()
    try:
        assert recognize_ncbmg(graph, route="informative-direct").accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * own, (peak, own, peak / own)
