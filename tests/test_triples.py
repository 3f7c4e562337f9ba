"""Informative triples, Aho graphs, BUILD, and the triples route."""

import itertools
import random

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    LeafColoredTree,
    Rejection,
    RootedTriple,
    TripleSet,
    bmg_of_tree,
    build,
    build_from_trees,
    connected_components,
    induced_subgraph,
    informative_triples,
    recognize_ncbmg,
    subgraph_on,
    thinness_partition,
)
from cases import counter_triples_graph
from util import (
    aho_graph,
    arc_ids,
    connected_scenario,
    direct_lrt,
    hierarchy_lrt,
    random_scenario,
    tree_family,
)


def test_counter_triples_extraction_is_exact():
    graph = counter_triples_graph()
    assert informative_triples(graph) == TripleSet.of(
        graph.vertex_ids,
        [("a", "b", "a2"), ("a", "b", "b2"), ("a", "b2", "a2")],
    )


def test_counter_triples_consistent_but_mismatched():
    graph = counter_triples_graph()
    trips = informative_triples(graph)
    topo = build(trips, graph.vertex_ids)
    assert topo == ((("a", "b"), "b2"), "a2")
    assert bmg_of_tree(LeafColoredTree(topo, graph.colors_as_dict())) != graph
    # a2 has no arc at all, so the direct route stops before BUILD
    outcome = direct_lrt(graph)
    assert isinstance(outcome, Rejection)
    assert outcome.stage == "component-color-mismatch"


def test_single_pair_has_no_informative_triples():
    g = ColoredDigraph({"x": "r", "y": "b"}, [("x", "y"), ("y", "x")])
    assert len(informative_triples(g)) == 0


def test_informative_triples_are_displayed_by_source_tree():
    for seed in range(50):
        tree, graph = connected_scenario(seed)
        displayed = tree.triple_tuples()
        for t in informative_triples(graph):
            assert (t.a, t.b, t.out) in displayed


def test_pattern_scan_matches_naive_pattern_match():
    # every informative triple comes from one of the four induced subgraphs,
    # checked here by brute-force classification of all vertex triples
    for seed in range(25):
        _, graph = connected_scenario(seed, max_leaves=10)
        expected = set()
        ids = graph.vertex_ids
        for i, j, k in itertools.permutations(range(len(graph)), 3):
            if graph.color_of[i] == graph.color_of[j]:
                continue
            # pair (i, j) with arc i->j; third vertex k of j's color
            if graph.color_of[k] != graph.color_of[j]:
                continue
            if graph.has_arc(i, j) and not graph.has_arc(i, k):
                expected.add(RootedTriple.of(ids[i], ids[j], ids[k]))
        assert informative_triples(graph).triples == frozenset(expected)


def test_aho_graph_edges():
    r = TripleSet.of("xyz", [("x", "y", "z")])
    assert aho_graph(r, ["x", "y", "z"]) == {"x": {"y"}, "y": {"x"}, "z": set()}
    assert aho_graph(r, ["x", "y"]) == {"x": set(), "y": set()}
    assert aho_graph(TripleSet.of("xyz", []), ["x", "y", "z"]) == {
        "x": set(),
        "y": set(),
        "z": set(),
    }


def test_build_contradiction_and_star():
    contradictory = TripleSet.of("xyz", [("x", "y", "z"), ("x", "z", "y")])
    assert build(contradictory, "xyz") is None
    assert build(TripleSet.of("abc", []), "abc") == ("a", "b", "c")
    with pytest.raises(GraphError):
        build(TripleSet.of("", []), [])


def test_build_reconstructs_random_trees():
    for seed in range(60):
        tree, _ = random_scenario(seed, max_leaves=12)
        topo = build(tree.triples(), tree.leaf_labels)
        assert topo is not None
        assert LeafColoredTree(topo, tree.colors) == tree


def test_build_is_monotone_under_restriction():
    for seed in range(20):
        tree, _ = random_scenario(seed, max_leaves=10)
        trips = tree.triples()
        labels = list(tree.leaf_labels)
        for cut in (2, max(2, len(labels) // 2)):
            sub = labels[:cut]
            assert build(trips.restrict(sub), sub) is not None


def test_build_from_trees_equals_build_on_pooled_triples():
    for seed in range(30):
        tree_a, _ = random_scenario(seed, max_leaves=9)
        labels = list(tree_a.leaf_labels)
        tree_b = tree_a.restrict(labels[: max(2, len(labels) - 2)])
        pooled = tree_a.triples().union(tree_b.triples())
        lhs = build_from_trees([tree_family(tree_a, labels), tree_family(tree_b, labels)], labels)
        rhs = build(pooled, labels)
        assert lhs == rhs


def test_direct_lrt_two_vertices():
    g = ColoredDigraph({"x": "r", "y": "b"}, [("x", "y"), ("y", "x")])
    tree = direct_lrt(g)
    assert isinstance(tree, LeafColoredTree)
    assert tree.newick() == "(x,y);"


def test_routes_agree_on_connected_two_color_graphs():
    for seed in range(60):
        _, graph = connected_scenario(seed)
        lhs = direct_lrt(graph)
        rhs = hierarchy_lrt(graph)
        assert isinstance(lhs, LeafColoredTree)
        assert lhs == rhs


def test_every_lrt_inner_edge_is_distinguished():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        lrt = direct_lrt(graph)
        assert isinstance(lrt, LeafColoredTree)
        trips = informative_triples(graph)
        for u, v in lrt.inner_edges():
            distinguished = False
            for t in trips:
                na, nb, nz = (lrt.leaf_node(l) for l in (t.a, t.b, t.out))
                if lrt.lca(na, nb) == v and lrt.lca_set((na, nb, nz)) == u:
                    distinguished = True
                    break
            assert distinguished


def test_disconnected_join_equals_component_augmentation():
    # explicit cross-component triples reproduce the root join on small inputs
    for seed in range(25):
        tree, graph = random_scenario(seed, max_leaves=12, max_colors=2)
        comps = connected_components(graph)
        if len(comps) < 2:
            continue
        outcome = direct_lrt(graph)
        assert isinstance(outcome, LeafColoredTree)
        pooled = set()
        for comp in comps:
            pooled |= informative_triples(subgraph_on(graph, comp)).triples
        for one, other in itertools.permutations(comps, 2):
            for x, y in itertools.combinations(one, 2):
                for z in other:
                    pooled.add(
                        RootedTriple.of(
                            graph.vertex_ids[x], graph.vertex_ids[y], graph.vertex_ids[z]
                        )
                    )
        topo = build(
            TripleSet(frozenset(graph.vertex_ids), frozenset(pooled)), graph.vertex_ids
        )
        assert topo is not None
        assert LeafColoredTree(topo, graph.colors_as_dict()) == outcome


def test_triple_serialization_is_canonical():
    trips = TripleSet.of("abcd", [("d", "a", "b"), ("c", "b", "a")])
    assert trips.to_lines() == ["a d | b", "b c | a"]


def _mixed_graphs(count: int):
    """Colored digraphs on <= 9 vertices with 2-4 colors and no same-color
    arcs: best match graphs, single-arc flips of them, and random arc sets."""
    for seed in range(count):
        rng = random.Random(seed)
        _, graph = random_scenario(seed, max_leaves=9, max_colors=4)
        colors = graph.colors_as_dict()
        foreign = [
            (x, y) for x, y in itertools.permutations(graph.vertex_ids, 2) if colors[x] != colors[y]
        ]
        yield graph
        yield ColoredDigraph(colors, arc_ids(graph) ^ {rng.choice(foreign)})
        yield ColoredDigraph(colors, [a for a in foreign if rng.random() < rng.random()])


def _pooled_pair_triples(graph: ColoredDigraph) -> TripleSet:
    pooled = TripleSet(frozenset(graph.vertex_ids), frozenset())
    for s, t in itertools.combinations(graph.color_ids, 2):
        pooled = pooled.union(informative_triples(induced_subgraph(graph, {s, t})))
    return pooled


def test_graph_glue_equals_triple_glue():
    outcomes = {True: 0, False: 0}
    for graph in _mixed_graphs(400):
        pooled = _pooled_pair_triples(graph)
        assert pooled == informative_triples(graph)
        ids = list(graph.vertex_ids)
        topo = build(graph, ids)
        assert topo == build(pooled, ids), arc_ids(graph)
        outcomes[topo is None] += 1
        part = ids[::2] + ids[1:2]
        assert build(graph, part) == build(pooled, part), (arc_ids(graph), part)
    assert min(outcomes.values()) > 100, outcomes


def test_graph_glue_equals_triple_glue_with_same_color_arcs():
    for seed in range(300):
        rng = random.Random(seed)
        _, graph = random_scenario(seed, max_leaves=9, max_colors=4)
        pairs = list(itertools.permutations(graph.vertex_ids, 2))
        noisy = ColoredDigraph(graph.colors_as_dict(), [a for a in pairs if rng.random() < 0.4])
        ids = noisy.vertex_ids
        assert build(noisy, ids) == build(informative_triples(noisy), ids), arc_ids(noisy)


def test_graph_glue_rejects_foreign_leaves():
    graph = counter_triples_graph()
    with pytest.raises(GraphError):
        build(graph, ["a", "nope"])


def test_direct_pair_verdicts_count_the_pair_triples():
    reached = 0
    for graph in _mixed_graphs(400):
        report = recognize_ncbmg(graph, route="informative-direct")
        for (ci, (s, t)), verdict in report.pair_verdicts.items():
            comp = [graph.index_of[x] for x in report.components[ci]]
            sub = subgraph_on(graph, comp)
            found = informative_triples(induced_subgraph(sub, {s, t}))
            assert verdict == f"{len(found)} informative triples"
            reached += 1
    assert reached > 1000
