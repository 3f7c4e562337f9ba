"""Full n-color recognition pipeline and n-color redundant edges."""

import itertools
import random

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    LeafColoredTree,
    SimulationConfig,
    bmg_of_tree,
    connected_components,
    induced_subgraph,
    recognize_ncbmg,
    redundant_edges_n,
    simulate,
    subgraph_on,
    thinness_partition,
)
from bmgraph.n_color import ROUTES
from cases import (
    counterex_sym_graph,
    gate_mismatch_graph,
    smallest_counterexample,
    three_class_scenario_tree,
)
from util import (
    all_topologies,
    arc_ids,
    caterpillar,
    color_partitions,
    coloring_from_partition,
    coloured_trees,
    connected_scenario,
    contractible_edges,
    hierarchy_lrt,
    random_binary_refinement,
    random_scenario,
)


def test_three_class_scenario():
    tree = three_class_scenario_tree()
    graph = bmg_of_tree(tree)
    part = thinness_partition(graph)
    nontrivial = {part.class_ids(a) for a in range(len(part)) if len(part.classes[a]) > 1}
    assert nontrivial == {("a2", "a3", "a4"), ("b3", "b4"), ("c3", "c4")}
    report = recognize_ncbmg(graph)
    direct = recognize_ncbmg(graph, route="informative-direct")
    assert report.accepted and direct.accepted
    assert report.lrt == direct.lrt
    assert bmg_of_tree(report.lrt) == graph
    assert tree.displays(report.lrt)


def test_counterex_sym_is_rejected_after_all_pair_checks_pass():
    graph = counterex_sym_graph()
    for s, t in itertools.combinations(graph.color_ids, 2):
        sub = induced_subgraph(graph, {s, t})
        for comp_result in [recognize_ncbmg(sub)]:
            assert comp_result.accepted
    report = recognize_ncbmg(graph)
    assert not report.accepted
    assert report.stage in {"triples-inconsistent", "graph-mismatch"}
    direct = recognize_ncbmg(graph, route="informative-direct")
    assert not direct.accepted
    assert direct.stage in {"triples-inconsistent", "graph-mismatch"}


def test_rejection_stages():
    same = ColoredDigraph({"a": "r", "b": "r"}, [("a", "b")])
    assert recognize_ncbmg(same).stage == "same-color-arc"

    # components {a,b,e} and {c,d} carry different color sets
    unequal = ColoredDigraph(
        {"a": "r", "b": "b", "c": "r", "d": "b", "e": "g"},
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c"), ("e", "a"), ("a", "e"), ("b", "e"), ("e", "b")],
    )
    assert recognize_ncbmg(unequal).stage == "component-color-mismatch"

    fig2 = smallest_counterexample()
    rep = recognize_ncbmg(fig2)
    assert rep.stage == "2cbmg-failure"
    assert recognize_ncbmg(fig2, route="informative-direct").stage in {
        "triples-inconsistent",
        "graph-mismatch",
    }


def test_vertex_missing_a_foreign_color_is_rejected():
    # c sees no green partner, so the {b,g} induced subgraph has a sink
    g = ColoredDigraph(
        {"a": "r", "b": "b", "c": "b", "e": "g"},
        [("a", "b"), ("b", "a"), ("c", "a"), ("a", "e"), ("e", "a"), ("b", "e"), ("e", "b")],
    )
    rep = recognize_ncbmg(g)
    assert not rep.accepted
    assert rep.stage == "2cbmg-failure"


def test_single_color_graph_gets_star_with_note():
    g = ColoredDigraph({"a": "r", "b": "r", "c": "r"})
    report = recognize_ncbmg(g)
    assert report.accepted
    assert report.note and "single-color" in report.note
    assert report.lrt.newick() == "(a,b,c);"
    single = ColoredDigraph({"a": "r"})
    rep = recognize_ncbmg(single)
    assert rep.accepted and rep.lrt.newick() == "a;"


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("n", [1, 2, 5, 10_000])
def test_single_color_graphs_get_the_star_on_both_routes(n, route):
    ids = [f"v{i:05d}" for i in range(n)]  # zero-padded, so listed in sorted order
    report = recognize_ncbmg(ColoredDigraph({v: "r" for v in ids}), route=route)
    assert report.accepted and report.rejection is None
    assert report.lrt.newick() == (ids[0] if n == 1 else f"({','.join(ids)})") + ";"
    assert report.lrt.colors == {v: "r" for v in ids}
    assert report.note == "single-color: edge-less graph, star tree"
    assert report.components == tuple((v,) for v in ids)
    assert report.pair_verdicts == {}


def test_round_trip_on_simulated_ncbmgs():
    for seed in range(60):
        tree, graph = random_scenario(seed, max_leaves=18)
        report = recognize_ncbmg(graph)
        assert report.accepted, (seed, report.stage)
        assert bmg_of_tree(report.lrt) == graph
        assert tree.displays(report.lrt)


def test_routes_agree_on_simulated_ncbmgs():
    for seed in range(40):
        _, graph = random_scenario(seed, max_leaves=15)
        a = recognize_ncbmg(graph)
        b = recognize_ncbmg(graph, route="informative-direct")
        assert a.accepted and b.accepted
        assert a.lrt == b.lrt


def test_pairwise_lrts_are_displayed_by_final_tree():
    for seed in range(25):
        _, graph = random_scenario(seed, max_leaves=14)
        report = recognize_ncbmg(graph)
        assert report.accepted
        lrt = report.lrt
        for s, t in itertools.combinations(graph.color_ids, 2):
            sub = induced_subgraph(graph, {s, t})
            for comp in connected_components(sub):
                piece = subgraph_on(sub, comp)
                pair_lrt = hierarchy_lrt(piece)
                assert isinstance(pair_lrt, LeafColoredTree)
                assert lrt.displays(pair_lrt)


def test_three_distinct_colors_restrict_to_complete_triangle():
    rng = random.Random(11)
    for seed in range(15):
        tree, graph = random_scenario(seed, max_leaves=14, max_colors=5)
        if len(graph.color_ids) < 3:
            continue
        labels = list(tree.leaf_labels)
        for _ in range(8):
            picks = rng.sample(labels, 3)
            if len({tree.colors[p] for p in picks}) != 3:
                continue
            small = bmg_of_tree(tree.restrict(picks))
            assert len(list(small.arcs())) == 6


def test_disconnected_union_accepted_iff_same_color_sets():
    t1, g1 = connected_scenario(1, colors=2, max_leaves=8)
    t2, g2 = connected_scenario(2, colors=2, max_leaves=8)
    # same color sets: union is a BMG
    colors = {f"L{v}": g1.color_name(i) for i, v in enumerate(g1.vertex_ids)}
    colors.update({f"R{v}": g2.color_name(i) for i, v in enumerate(g2.vertex_ids)})
    arcs = [(f"L{a}", f"L{b}") for a, b in arc_ids(g1)]
    arcs += [(f"R{a}", f"R{b}") for a, b in arc_ids(g2)]
    union = ColoredDigraph(colors, arcs)
    report = recognize_ncbmg(union)
    assert report.accepted
    assert bmg_of_tree(report.lrt) == union
    # rename one side's colors: rejected
    recolors = dict(colors)
    for i, v in enumerate(g2.vertex_ids):
        recolors[f"R{v}"] = "other-" + g2.color_name(i)
    broken = ColoredDigraph(recolors, arcs)
    assert recognize_ncbmg(broken).stage == "component-color-mismatch"


def _component_copy_reference(graph: ColoredDigraph, route: str) -> dict:
    """The report fields of a rejected graph, each component recognized from
    its own ``subgraph_on`` copy: the first component to fail before the
    gate gives the verdict, or else the smallest arc that a component's gate
    names, since the joined tree explains each component on its own."""
    comps = connected_components(graph)
    fields = {
        "accepted": False,
        "route": route,
        "lrt": None,
        "note": None,
        "components": tuple(tuple(graph.vertex_ids[v] for v in comp) for comp in comps),
        "pair_verdicts": {},
    }
    mismatches = []
    for ci, comp in enumerate(comps):
        report = recognize_ncbmg(subgraph_on(graph, comp), route=route)
        fields["pair_verdicts"].update(((ci, pair), v) for (_, pair), v in report.pair_verdicts.items())
        if report.stage == "graph-mismatch":
            mismatches.append(report.witness)
        elif not report.accepted:
            return {**fields, "stage": report.stage, "witness": report.witness}
    return {**fields, "stage": "graph-mismatch", "witness": min(mismatches)}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("bmg_first", [True, False], ids=["bmg-first", "bmg-second"])
@pytest.mark.parametrize("failing", ["counterexample", "gate-mismatch"])
def test_union_of_a_bmg_and_a_failing_component_matches_the_copying_reference(failing, bmg_first, route):
    bad = smallest_counterexample() if failing == "counterexample" else gate_mismatch_graph()
    names = bad.color_ids
    good = bmg_of_tree(LeafColoredTree((("p", "q"), "r"), {"p": names[0], "q": names[1], "r": names[-1]}))
    good_prefix, bad_prefix = ("a", "b") if bmg_first else ("b", "a")
    colors, arcs = {}, []
    for prefix, part in ((good_prefix, good), (bad_prefix, bad)):
        colors.update({prefix + v: c for v, c in part.colors_as_dict().items()})
        arcs += [(prefix + x, prefix + y) for x, y in arc_ids(part)]
    union = ColoredDigraph(colors, arcs)
    report = recognize_ncbmg(union, route=route)
    expected = _component_copy_reference(union, route)
    assert {name: getattr(report, name) for name in expected} == expected
    assert report.stage == {
        ("counterexample", "pairwise-lrt"): "2cbmg-failure",
        ("counterexample", "informative-direct"): "triples-inconsistent",
    }.get((failing, route), "graph-mismatch")
    assert report.components[1 if bmg_first else 0][0].startswith(bad_prefix)


def test_report_carries_components_pairs_and_timings():
    _, graph = random_scenario(3, max_leaves=12, max_colors=3)
    report = recognize_ncbmg(graph)
    assert report.accepted
    assert report.components
    assert report.pair_verdicts
    assert "structure" in report.timings and "gate" in report.timings


def test_redundant_edges_n_empty_on_lrt():
    for seed in range(40):
        _, graph = random_scenario(seed, max_leaves=14)
        report = recognize_ncbmg(graph)
        assert redundant_edges_n(report.lrt, graph) == frozenset()


def test_redundant_edges_n_from_source_tree_reaches_lrt():
    for seed in range(40):
        tree, graph = random_scenario(seed, max_leaves=14)
        report = recognize_ncbmg(graph)
        edges = redundant_edges_n(tree, graph)
        assert tree.contract_edges(edges) == report.lrt


def test_redundant_edges_n_is_the_contraction_definition_on_small_trees():
    # every tree on <= 5 leaves in two colours, and on <= 4 leaves in three
    counts = {2: [0, 0], 3: [0, 0]}
    for max_leaves, colors in ((5, 2), (4, 3)):
        for tree in coloured_trees(max_leaves, colors):
            graph = bmg_of_tree(tree)
            edges = contractible_edges(tree, graph)
            assert redundant_edges_n(tree, graph) == edges, tree.newick()
            counts[colors][0] += 1
            counts[colors][1] += bool(edges)
    assert [total for total, _ in counts.values()] == [7470, 2130]
    assert all(hits > 100 for _, hits in counts.values()), counts


def test_redundant_edges_n_is_the_contraction_definition_on_simulated_trees():
    # source trees, their least resolved trees and binary refinements of both
    rng = random.Random(11)
    trees = hits = 0
    for seed in range(80):
        tree, graph = random_scenario(seed, max_leaves=14, max_colors=5)
        lrt = recognize_ncbmg(graph).lrt
        refined = [random_binary_refinement(t, rng) for t in (tree, lrt)]
        for candidate in (tree, lrt, *refined):
            if bmg_of_tree(candidate) != graph:
                continue  # not every refinement still explains the graph
            edges = contractible_edges(candidate, graph)
            assert redundant_edges_n(candidate, graph) == edges, (seed, candidate.newick())
            trees += 1
            hits += bool(edges)
    assert trees > 200 and hits > 100, (trees, hits)


def test_lrt_uniqueness_single_contractions_change_graph():
    for seed in range(25):
        _, graph = random_scenario(seed, max_leaves=12)
        report = recognize_ncbmg(graph)
        for edge in report.lrt.inner_edges():
            contracted = report.lrt.contract_edges([edge])
            assert bmg_of_tree(contracted) != graph


def test_binary_refinements_contract_back():
    rng = random.Random(23)
    hits = 0
    for seed in range(40):
        _, graph = random_scenario(seed, max_leaves=12)
        report = recognize_ncbmg(graph)
        refined = random_binary_refinement(report.lrt, rng)
        if refined == report.lrt or bmg_of_tree(refined) != graph:
            continue
        hits += 1
        assert refined.contract_edges(redundant_edges_n(refined, graph)) == report.lrt
    assert hits


def test_redundant_edges_n_rejects_non_explaining_tree():
    tree, _ = random_scenario(1, max_leaves=8)
    _, graph = random_scenario(2, max_leaves=9)
    if bmg_of_tree(tree) != graph:
        with pytest.raises(GraphError):
            redundant_edges_n(tree, graph)


def test_unknown_route_is_an_error():
    _, graph = random_scenario(0, max_leaves=6)
    with pytest.raises(GraphError):
        recognize_ncbmg(graph, route="nope")


def test_redundant_edges_n_rejects_a_star_that_misses_the_graph():
    colors = {"x": "red", "y": "blue", "z": "blue"}
    graph = bmg_of_tree(LeafColoredTree((("x", "y"), "z"), colors))
    star = LeafColoredTree(("x", "y", "z"), colors)
    with pytest.raises(GraphError):
        redundant_edges_n(star, graph)


def test_global_gate_names_the_first_differing_arc():
    graph = gate_mismatch_graph()
    for route in ("pairwise-lrt", "informative-direct"):
        report = recognize_ncbmg(graph, route=route)
        assert report.stage == "graph-mismatch"
        assert report.witness == ("v3", "v2")
    assert set(recognize_ncbmg(graph).pair_verdicts.values()) == {"2-cBMG"}


def test_pair_failure_witness_is_the_pair_rejection():
    report = recognize_ncbmg(smallest_counterexample())
    assert report.stage == "2cbmg-failure"
    assert report.pair_verdicts == {(0, ("blue", "red")): "failed: axioms"}
    assert report.witness.stage == "axioms"
    assert report.witness.witness.stage == "N2"


def test_every_small_bmg_is_recognized_by_both_routes():
    # every best match graph of every tree on <= 6 leaves with 2-3 colours,
    # up to renaming leaves and colours
    graphs = set()
    for n in range(2, 7):
        leaves = tuple(f"l{i}" for i in range(n))
        for partition in color_partitions(n, 3):
            if len(partition) < 2:
                continue
            colors = coloring_from_partition(leaves, partition)
            for topo in all_topologies(leaves):
                graphs.add(bmg_of_tree(LeafColoredTree(topo, colors)))
    assert len(graphs) == 3782
    for graph in graphs:
        for route in ("pairwise-lrt", "informative-direct"):
            report = recognize_ncbmg(graph, route=route)
            assert report.accepted, (route, arc_ids(graph))
            assert bmg_of_tree(report.lrt) == graph, (route, arc_ids(graph))


def test_routes_agree_on_every_single_arc_flip():
    checks = accepted = 0
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        _, graph = simulate(
            SimulationConfig(n, rng.randint(2, min(4, n)), rng.getrandbits(48), shape="multifurcating")
        )
        colors = graph.colors_as_dict()
        arcs = arc_ids(graph)
        variants = [graph] + [
            ColoredDigraph(colors, arcs ^ {(x, y)})
            for x, y in itertools.permutations(graph.vertex_ids, 2)
            if colors[x] != colors[y]
        ]
        for variant in variants:
            pairwise = recognize_ncbmg(variant)
            direct = recognize_ncbmg(variant, route="informative-direct")
            assert pairwise.accepted == direct.accepted, (seed, arc_ids(variant))
            if pairwise.accepted:
                assert pairwise.lrt.newick() == direct.lrt.newick(), (seed, arc_ids(variant))
                accepted += 1
            checks += 1
    assert checks > 3000 and accepted > 150, (checks, accepted)


def test_direct_route_accepts_an_1100_leaf_caterpillar():
    tree = caterpillar(1100)
    report = recognize_ncbmg(bmg_of_tree(tree), route="informative-direct")
    assert report.accepted, report.stage
    assert report.lrt.newick() == tree.newick()


def test_pairwise_route_accepts_a_600_leaf_caterpillar():
    # BUILD from the pair families recurses once per level; 600 levels stay
    # below the interpreter's recursion limit
    tree = caterpillar(600)
    graph = bmg_of_tree(tree)
    report = recognize_ncbmg(graph, route="pairwise-lrt")
    assert report.accepted, report.stage
    assert report.lrt == recognize_ncbmg(graph, route="informative-direct").lrt == tree
