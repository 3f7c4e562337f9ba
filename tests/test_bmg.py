"""Forward construction, oracle agreement, simulator behavior."""

import itertools
import time

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    LeafColoredTree,
    SimulationConfig,
    bmg_of_tree,
    bmg_oracle,
    connected_components,
    recognize_ncbmg,
    simulate,
    subgraph_on,
    symmetric_part,
)
from bmgraph.digraph import bits
from util import arc_ids, inner_nodes, leaves_under, random_scenario, rbmg_of_tree, restrict


def test_two_leaves_are_mutual_best_matches():
    t = LeafColoredTree(("x", "y"), {"x": "red", "y": "blue"})
    assert arc_ids(bmg_of_tree(t)) == {("x", "y"), ("y", "x")}


def test_star_points_everything_at_the_other_color():
    t = LeafColoredTree(("x", "y", "z"), {"x": "red", "y": "blue", "z": "blue"})
    assert arc_ids(bmg_of_tree(t)) == {("x", "y"), ("x", "z"), ("y", "x"), ("z", "x")}


def test_restriction_can_add_arcs():
    # the restricted scenario gains w->v relative to the induced subgraph
    t = LeafColoredTree(
        (("w", "y"), ("u", "v")),
        {"w": "red", "y": "blue", "u": "red", "v": "blue"},
    )
    g = bmg_of_tree(t)
    keep = sum(1 << t_i for t_i, lab in enumerate(g.vertex_ids) if lab in {"u", "v", "w"})
    induced = subgraph_on(g, keep)
    restricted = bmg_of_tree(restrict(t, {"u", "v", "w"}))
    assert arc_ids(induced) == {("u", "v"), ("v", "u")}
    assert arc_ids(restricted) == {("u", "v"), ("v", "u"), ("w", "v")}


def test_subgraph_monotonicity_under_restriction():
    for seed in range(30):
        tree, graph = random_scenario(seed, max_leaves=14)
        import random

        rng = random.Random(seed)
        sub = rng.sample(list(tree.leaf_labels), max(2, len(tree.leaf_labels) // 2))
        colors_in_sub = {tree.colors[l] for l in sub}
        if len(colors_in_sub) < 1:
            continue
        restricted = bmg_of_tree(restrict(tree, sub))
        keep = sum(1 << i for i, lab in enumerate(graph.vertex_ids) if lab in set(sub))
        induced = subgraph_on(graph, keep)
        assert arc_ids(induced) <= arc_ids(restricted)


def test_oracle_agrees_on_tiny_and_random_trees():
    t2 = LeafColoredTree(("x", "y"), {"x": "r", "y": "b"})
    assert bmg_oracle(t2) == bmg_of_tree(t2)
    star = LeafColoredTree(tuple("abcde"), dict(zip("abcde", "rbbrb")))
    assert bmg_oracle(star) == bmg_of_tree(star)
    for seed in range(60):
        tree, graph = random_scenario(seed, max_leaves=16)
        assert bmg_oracle(tree) == graph


def test_every_foreign_color_is_matched():
    for seed in range(20):
        tree, graph = random_scenario(seed, max_leaves=15)
        for i in range(len(graph)):
            mine = graph.color_of[i]
            seen = {graph.color_of[j] for j in bits(graph.out_masks[i])}
            assert seen == set(range(len(graph.color_ids))) - {mine}


def test_connectivity_criterion():
    for seed in range(40):
        tree, graph = random_scenario(seed, max_leaves=14)
        all_colors = set(tree.color_universe)
        root_kids = tree.children[tree.root]
        some_child_misses_color = any(
            {tree.colors[tree.label[w]] for w in leaves_under(tree, c)} != all_colors
            for c in root_kids
        )
        assert (len(connected_components(graph)) == 1) == some_child_misses_color


def test_components_sit_below_root_children():
    for seed in range(25):
        tree, graph = random_scenario(seed, max_leaves=14)
        comps = connected_components(graph)
        if len(comps) == 1:
            continue
        kids_leafsets = [
            {tree.label[w] for w in leaves_under(tree, c)}
            for c in tree.children[tree.root]
        ]
        for comp in comps:
            members = {graph.vertex_ids[v] for v in bits(comp)}
            assert any(members <= ls for ls in kids_leafsets)


def test_color_restriction_commutes_with_bmg():
    # the graph induced on a color subset is the graph of the restricted tree
    from bmgraph import induced_subgraph

    for seed in range(30):
        tree, graph = random_scenario(seed, max_leaves=14, max_colors=4)
        colors = list(tree.color_universe)
        for chosen in (colors[:1], colors[:2], colors[:-1]):
            subset = set(chosen)
            keep = [l for l in tree.leaf_labels if tree.colors[l] in subset]
            assert induced_subgraph(graph, subset) == bmg_of_tree(restrict(tree, keep))


def test_rbmg_is_symmetric_part_of_bmg():
    for seed in range(20):
        tree, graph = random_scenario(seed, max_leaves=12)
        assert rbmg_of_tree(tree) == symmetric_part(graph)


def test_simulate_two_leaves_and_determinism():
    cfg = SimulationConfig(2, 2, 1)
    tree, graph = simulate(cfg)
    assert len(tree.leaf_labels) == 2
    assert arc_ids(graph) == {("v1", "v2"), ("v2", "v1")}
    tree2, graph2 = simulate(SimulationConfig(2, 2, 1))
    assert tree == tree2 and graph == graph2


def test_simulate_coloring_is_surjective():
    for seed in range(20):
        tree, _ = simulate(SimulationConfig(11, 5, seed))
        assert len(set(tree.colors.values())) == 5


@pytest.mark.parametrize("leaves, colors", [(40, 40), (1000, 400)])
def test_simulate_ends_fast_when_colours_are_nearly_as_many_as_leaves(leaves, colors):
    # a uniform colouring of 1000 leaves uses all 400 colours with
    # probability about e^-33, so redrawing until one does never ends
    start = time.perf_counter()
    tree, graph = simulate(SimulationConfig(leaves, colors, 1))
    assert time.perf_counter() - start < 1.0
    assert len(set(tree.colors.values())) == len(graph.color_ids) == colors


def test_simulated_graph_is_recognized():
    _, graph = simulate(SimulationConfig(20, 3, 7))
    report = recognize_ncbmg(graph)
    assert report.accepted


def test_simulation_config_validation():
    with pytest.raises(GraphError):
        SimulationConfig(1, 1, 0)
    with pytest.raises(GraphError):
        SimulationConfig(3, 4, 0)
    with pytest.raises(GraphError):
        SimulationConfig(3, 0, 0)
    with pytest.raises(GraphError):
        SimulationConfig(3, 2, 0, shape="weird")


def test_exhaustive_oracle_agreement_tiny():
    # all shapes on 4 labeled leaves, one coloring per color multiset
    from util import all_topologies, color_partitions, coloring_from_partition

    leaves = ("a", "b", "c", "d")
    for topo in all_topologies(leaves):
        for part in color_partitions(4, 3):
            colors = coloring_from_partition(leaves, part)
            tree = LeafColoredTree(topo, colors)
            assert bmg_of_tree(tree) == bmg_oracle(tree)


def test_distinct_seeds_give_distinct_shapes_eventually():
    seen = {simulate(SimulationConfig(9, 3, s))[0].topology() for s in range(8)}
    assert len(seen) > 1


def test_engine_matches_oracle_on_deep_and_many_color_trees():
    from util import caterpillar

    deep = caterpillar(300)
    assert bmg_of_tree(deep) == bmg_oracle(deep)
    wide, graph = simulate(SimulationConfig(60, 12, 5, shape="multifurcating"))
    assert any(len(wide.children[v]) > 2 for v in inner_nodes(wide))
    assert len(wide.color_universe) == 12
    assert graph == bmg_oracle(wide)


def test_gate_witness_is_the_flipped_arc():
    from bmgraph.digraph import first_arc_difference

    for seed in range(20):
        tree, _ = random_scenario(seed, max_leaves=10, max_colors=4)
        graph = bmg_of_tree(tree)
        assert first_arc_difference(graph, graph) is None
        colors = graph.colors_as_dict()
        arcs = arc_ids(graph)
        for x, y in itertools.permutations(graph.vertex_ids, 2):
            if colors[x] == colors[y]:
                continue
            flipped = ColoredDigraph(colors, arcs ^ {(x, y)})
            assert first_arc_difference(flipped, graph) == (x, y)
