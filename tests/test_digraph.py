"""Colored digraph structure: components, induced subgraphs, thinness."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmgraph import (
    ColoredDigraph,
    GraphError,
    bmg_of_tree,
    class_quotient,
    connected_components,
    induced_subgraph,
    induced_subgraph_undirected,
    rbmg_of_tree,
    subgraph_on,
    symmetric_part,
    thinness_partition,
)
from cases import countercog_tree, weird_tree
from util import arc_ids, random_scenario


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    ids = [f"v{i}" for i in range(n)]
    k = draw(st.integers(min_value=1, max_value=3))
    colors = {v: f"c{draw(st.integers(min_value=0, max_value=k - 1))}" for v in ids}
    pairs = [(a, b) for a in ids for b in ids if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    return ColoredDigraph(colors, arcs)


def test_single_arc_is_one_component():
    g = ColoredDigraph({"x": "r", "y": "b"}, [("x", "y")])
    assert connected_components(g) == [(0, 1)]


def test_edgeless_graph_has_singleton_components():
    g = ColoredDigraph({"a": "r", "b": "b", "c": "b"})
    assert connected_components(g) == [(0,), (1,), (2,)]


def test_construction_rejects_bad_input():
    with pytest.raises(GraphError):
        ColoredDigraph({}, [])
    with pytest.raises(GraphError):
        ColoredDigraph({"x": "r"}, [("x", "x")])
    with pytest.raises(GraphError):
        ColoredDigraph({"x": "r"}, [("x", "y")])


def test_induced_subgraph_keeps_selected_colors():
    g = ColoredDigraph(
        {"a": "r", "b": "s", "c": "t"},
        [("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")],
    )
    sub = induced_subgraph(g, {"r", "s"})
    assert sub.vertex_ids == ("a", "b")
    assert arc_ids(sub) == {("a", "b"), ("b", "a")}
    assert induced_subgraph(g, {"r", "s", "t"}) == g
    with pytest.raises(GraphError):
        induced_subgraph(g, {"nope"})


def test_symmetric_part_keeps_only_bidirectional_pairs():
    g = ColoredDigraph({"x": "r", "y": "b", "z": "b"}, [("x", "y"), ("y", "x"), ("x", "z")])
    sym = symmetric_part(g)
    assert [(sym.vertex_ids[i], sym.vertex_ids[j]) for i, j in sym.edges()] == [("x", "y")]


def test_countercog_symmetric_part_is_the_path():
    sym = rbmg_of_tree(countercog_tree())
    edges = {(sym.vertex_ids[i], sym.vertex_ids[j]) for i, j in sym.edges()}
    assert edges == {("u", "v"), ("v", "x"), ("w", "x")}


def test_thinness_partition_bidirectional_bipartite():
    colors = {"a": "r", "b": "r", "x": "b", "y": "b"}
    arcs = [(u, v) for u in "ab" for v in "xy"] + [(v, u) for u in "ab" for v in "xy"]
    part = thinness_partition(ColoredDigraph(colors, arcs))
    assert [part.class_ids(a) for a in range(len(part))] == [("a", "b"), ("x", "y")]


def test_thinness_partition_weird_tree_classes():
    g = bmg_of_tree(weird_tree())
    part = thinness_partition(g)
    classes = {part.class_ids(a) for a in range(len(part))}
    assert ("10", "9") in classes
    assert ("7", "8") in classes
    w = {part.class_ids(a) for a in part.no_in_classes()}
    assert w == {("10", "9"), ("7", "8")}


def test_distinct_out_neighborhoods_give_singletons():
    g = ColoredDigraph(
        {"a": "r", "x": "b", "y": "b"},
        [("a", "x"), ("x", "a"), ("y", "a")],
    )
    part = thinness_partition(g)
    # brute-force pairwise comparison is the defining criterion
    for i in range(len(g)):
        for j in range(len(g)):
            same = g.out_adj[i] == g.out_adj[j] and g.in_adj[i] == g.in_adj[j]
            assert (part.class_of[i] == part.class_of[j]) == same
    assert all(len(c) == 1 for c in part.classes)


@settings(max_examples=150, deadline=None)
@given(random_digraphs())
def test_class_granularity_n0(g):
    part = thinness_partition(g)
    for a in range(len(part)):
        n_alpha = part.vertex_out(a)
        for b in range(len(part)):
            beta = set(part.classes[b])
            assert beta <= n_alpha or not (beta & n_alpha)


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_thinness_is_idempotent_on_quotient(g):
    part = thinness_partition(g)
    quotient = class_quotient(part)
    again = thinness_partition(quotient)
    assert all(len(c) == 1 for c in again.classes)


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_induced_commutes_with_symmetric_part(g):
    chosen = set(g.color_ids[: max(1, len(g.color_ids) - 1)])
    left = symmetric_part(induced_subgraph(g, chosen))
    right = induced_subgraph_undirected(symmetric_part(g), chosen)
    assert left == right


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_components_of_induced_subgraph_partition_it(g):
    chosen = set(g.color_ids[:1])
    sub = induced_subgraph(g, chosen)
    comps = connected_components(sub)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(len(sub)))


def test_subgraph_on_preserves_ids():
    g = ColoredDigraph({"a": "r", "b": "b", "c": "r"}, [("a", "b"), ("b", "c")])
    sub = subgraph_on(g, [0, 1])
    assert sub.vertex_ids == ("a", "b")
    assert arc_ids(sub) == {("a", "b")}


def test_projections_equal_graphs_built_from_string_ids():
    for seed in range(40):
        _, graph = random_scenario(seed, max_leaves=30, max_colors=5)
        ids = graph.vertex_ids
        for s, t in itertools.combinations(graph.color_ids, 2):
            sub = induced_subgraph(graph, {s, t})
            keep = [i for i in range(len(graph)) if graph.color_name(i) in (s, t)]
            colors = {ids[i]: graph.color_name(i) for i in keep}
            arcs = [(ids[i], ids[j]) for i, j in graph.arcs() if i in keep and j in keep]
            assert sub == ColoredDigraph(colors, arcs)
            assert sub.in_adj == ColoredDigraph(colors, arcs).in_adj
            for comp in connected_components(sub):
                members = {sub.vertex_ids[i] for i in comp}
                piece = subgraph_on(sub, comp)
                assert piece == ColoredDigraph(
                    {v: c for v, c in colors.items() if v in members},
                    [(x, y) for x, y in arcs if x in members and y in members],
                )


def test_same_color_arc_is_the_smallest_planted_arc():
    for seed in range(300):
        rng = random.Random(seed)
        _, graph = random_scenario(seed, max_leaves=12, max_colors=4)
        colors = graph.colors_as_dict()
        arcs = arc_ids(graph)
        same = [(x, y) for x, y in itertools.permutations(graph.vertex_ids, 2) if colors[x] == colors[y]]
        planted = ColoredDigraph(colors, arcs | set(rng.sample(same, min(len(same), seed % 4))))
        expected = min(
            ((i, j) for i, j in planted.arcs() if planted.color_of[i] == planted.color_of[j]),
            default=None,
        )
        assert planted.same_color_arc() == expected
