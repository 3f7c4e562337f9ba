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
    triples,
)
from bmgraph.digraph import bits
from bmgraph.two_color import pair_topology
from cases import counter_triples_graph, counterex_sym_graph
from util import (
    aho_graph,
    arc_ids,
    caterpillar,
    connected_scenario,
    direct_lrt,
    family_tree,
    hierarchy_lrt,
    lca,
    lca_set,
    random_scenario,
    reference_build,
    restrict,
    restrict_triples,
    tree_family,
    tree_glue_build,
    triple_tuples,
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
        displayed = triple_tuples(tree)
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


def test_build_rejects_triples_without_three_distinct_leaves():
    # the dataclass constructor skips the check of RootedTriple.of, so build makes it
    rest = [RootedTriple("b", "c", "a"), RootedTriple("d", "e", "a")]
    assert build(rest, "abcde") == ("a", ("b", "c"), ("d", "e"))
    for bad in (RootedTriple("a", "a", "c"), RootedTriple("a", "b", "a"), RootedTriple("a", "b", "b")):
        with pytest.raises(GraphError, match="three distinct leaves"):
            build([bad, *rest], "abcde")


def test_build_reconstructs_random_trees():
    for seed in range(60):
        tree, _ = random_scenario(seed, max_leaves=12)
        topo = build(TripleSet.of(tree.leaf_labels, triple_tuples(tree)), tree.leaf_labels)
        assert topo is not None
        assert LeafColoredTree(topo, tree.colors) == tree


def test_build_is_monotone_under_restriction():
    for seed in range(20):
        tree, _ = random_scenario(seed, max_leaves=10)
        trips = TripleSet.of(tree.leaf_labels, triple_tuples(tree))
        labels = list(tree.leaf_labels)
        for cut in (2, max(2, len(labels) // 2)):
            sub = labels[:cut]
            assert build(restrict_triples(trips, sub), sub) is not None


def test_build_from_trees_equals_build_on_pooled_triples():
    for seed in range(30):
        tree_a, _ = random_scenario(seed, max_leaves=9)
        labels = list(tree_a.leaf_labels)
        tree_b = restrict(tree_a, labels[: max(2, len(labels) - 2)])
        own = [TripleSet.of(t.leaf_labels, triple_tuples(t)) for t in (tree_a, tree_b)]
        pooled = own[0].union(own[1])
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
                if lca(lrt, na, nb) == v and lca_set(lrt, (na, nb, nz)) == u:
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
            for x, y in itertools.combinations(bits(one), 2):
                for z in bits(other):
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
        topo = build(graph, (1 << len(ids)) - 1)
        assert topo == build(pooled, ids), arc_ids(graph)
        outcomes[topo is None] += 1
        part = ids[::2] + ids[1:2]
        kept = sum(1 << graph.index_of[x] for x in part)
        assert build(graph, kept) == build(pooled, part), (arc_ids(graph), part)
    assert min(outcomes.values()) > 100, outcomes


def test_graph_glue_equals_triple_glue_with_same_color_arcs():
    for seed in range(300):
        rng = random.Random(seed)
        _, graph = random_scenario(seed, max_leaves=9, max_colors=4)
        pairs = list(itertools.permutations(graph.vertex_ids, 2))
        noisy = ColoredDigraph(graph.colors_as_dict(), [a for a in pairs if rng.random() < 0.4])
        ids = noisy.vertex_ids
        assert build(noisy, (1 << len(ids)) - 1) == build(informative_triples(noisy), ids), arc_ids(noisy)


def test_build_equals_the_recursive_reference_on_graphs_cut_by_vertex_masks():
    # random coloured digraphs with same-colour arcs, each under random
    # vertex masks, many of which cut arcs; with or without counts the glue
    # sources are the same
    cut = 0
    for seed in range(200):
        rng = random.Random(seed)
        _, graph = random_scenario(seed, max_leaves=9, max_colors=4)
        pairs = list(itertools.permutations(graph.vertex_ids, 2))
        noisy = ColoredDigraph(graph.colors_as_dict(), [a for a in pairs if rng.random() < 0.4])
        ids, found = noisy.vertex_ids, list(informative_triples(noisy))
        for _ in range(4):
            mask = rng.getrandbits(len(ids)) or 1
            cut += any(noisy.out_masks[v] & ~mask for v in bits(mask))
            leaves = [ids[v] for v in bits(mask)]
            assert build(noisy, mask) == reference_build(found, leaves), (arc_ids(noisy), leaves)
            assert triples._graph_sources(noisy, mask, None) == triples._graph_sources(noisy, mask, {})
    assert cut > 400, cut


def test_build_equals_the_recursive_reference_on_random_triples():
    # triples drawn over ten labels, built on a random subset of them, so
    # that some leave it; both verdicts occur
    outcomes = {True: 0, False: 0}
    for seed in range(400):
        rng = random.Random(seed)
        drawn = [RootedTriple.of(*rng.sample("abcdefghij", 3)) for _ in range(rng.randint(0, 30))]
        leaves = sorted(rng.sample("abcdefghij", rng.randint(1, 10)))
        topo = build(drawn, leaves)
        assert topo == reference_build(drawn, leaves), (drawn, leaves)
        outcomes[topo is None] += 1
    assert min(outcomes.values()) > 80, outcomes


def test_a_settled_block_keeps_its_sources_from_the_one_inner_block():
    # the root of ((x, y), T), T on three or more leaves, splits into the
    # cherry, settled at once, and T's leaves, the one inner block; xy|w for
    # w in T glues the cherry at the root and still has its z inside T, so
    # only handing each source to the block that holds its chunk keeps the
    # cherry's leaves off T's level
    reached = 0
    for seed in range(60):
        inner, _ = random_scenario(seed, max_leaves=10)
        if len(inner.leaf_labels) < 3:
            continue
        x, y = ("a0", "a1") if seed % 2 else ("z0", "z1")
        tree = LeafColoredTree(((x, y), inner.topology()), {**inner.colors, x: "c0", y: "c1"})
        found = TripleSet.of(tree.leaf_labels, triple_tuples(tree))
        assert any(t.a == x and t.b == y for t in found)
        topo = build(found, tree.leaf_labels)
        assert topo == reference_build(list(found), sorted(tree.leaf_labels))
        assert LeafColoredTree(topo, tree.colors) == tree
        reached += 1
    assert reached > 40, reached


def test_graph_glue_rejects_foreign_leaves():
    # a leaf set over a graph is a bitset of its vertex indices
    graph = counter_triples_graph()
    for stray in (1 << len(graph), 1 | 1 << (len(graph) + 5), -1, ["a"]):
        with pytest.raises(GraphError):
            build(graph, stray)
        with pytest.raises(GraphError):
            subgraph_on(graph, stray)
    with pytest.raises(GraphError):
        build(graph, 0)


def test_a_forced_build_splits_a_stuck_level_by_one_colour_or_into_a_star():
    # a single-arc flip of a 7-leaf BMG: the level of all leaves but v3 does
    # not split; without the sources of c1 it has the two blocks {v1, v2}
    # and {v4, ..., v7}, without those of c2 three, and c3 keys no source
    colors = {"v1": "c2", "v2": "c3", "v3": "c2", "v4": "c1", "v5": "c1", "v6": "c2", "v7": "c1"}
    arcs = [
        ("v1", "v2"), ("v1", "v5"), ("v1", "v7"), ("v2", "v1"), ("v2", "v4"), ("v2", "v5"), ("v2", "v7"),
        ("v3", "v2"), ("v3", "v4"), ("v3", "v5"), ("v3", "v7"), ("v4", "v2"), ("v4", "v6"), ("v5", "v2"),
        ("v5", "v6"), ("v6", "v2"), ("v6", "v5"), ("v7", "v2"), ("v7", "v6"),
    ]  # fmt: skip
    graph = ColoredDigraph(colors, arcs)
    assert build(graph, 127) is None
    forced = []
    assert build(graph, 127, None, forced) == ((("v1", "v2"), ("v4", "v5", "v6", "v7")), "v3")
    assert forced == [0b1111011]
    # the symmetric 6-cycle's root level splits by no single colour: a star
    graph = counterex_sym_graph()
    forced = []
    assert build(graph, 63) is None
    assert build(graph, 63, None, forced) == graph.vertex_ids and forced == [63]
    # a level that splits is never forced, and a triple collection has no colours
    forced = []
    assert build(counter_triples_graph(), (1 << len(counter_triples_graph())) - 1, None, forced) is not None
    assert forced == []
    with pytest.raises(GraphError):
        build(TripleSet.of("xyz", [("x", "y", "z"), ("x", "z", "y")]), "xyz", None, [])


def test_direct_pair_verdicts_count_the_pair_triples():
    reached = 0
    for graph in _mixed_graphs(400):
        report = recognize_ncbmg(graph, route="informative-direct")
        assert graph._in_masks is None  # components and glue read out-bitsets only
        for (ci, (s, t)), verdict in report.pair_verdicts.items():
            comp = sum(1 << graph.index_of[x] for x in report.components[ci])
            sub = subgraph_on(graph, comp)
            found = informative_triples(induced_subgraph(sub, {s, t}))
            assert verdict == f"{len(found)} informative triples"
            reached += 1
    assert reached > 1000


def _caterpillar_family(n: int):
    """A 2-colour caterpillar, its graph's vertex ids and its pair family."""
    tree = caterpillar(n)
    graph = bmg_of_tree(tree)
    return tree, graph.vertex_ids, pair_topology(graph, (1 << len(graph)) - 1)


def test_build_from_one_family_is_its_own_tree():
    # every level has one family with two or more leaves in it
    for seed in range(80):
        _, graph = connected_scenario(seed, colors=2, max_leaves=16)
        family = pair_topology(graph, (1 << len(graph)) - 1)
        tree = family_tree(family, graph)
        ids = graph.vertex_ids
        assert build_from_trees([family], ids) == tree_glue_build([tree], ids) == tree.topology()
    tree, ids, family = _caterpillar_family(600)
    assert build_from_trees([family], ids) == tree_glue_build([tree], ids) == tree.topology()


def _shuffled(tree: LeafColoredTree, rng: random.Random) -> LeafColoredTree:
    """``tree`` with its leaf labels permuted, each label keeping its colour."""
    labels = list(tree.leaf_labels)
    swap = dict(zip(labels, rng.sample(labels, len(labels))))

    def go(topo):
        return swap[topo] if isinstance(topo, str) else tuple(go(t) for t in topo)

    return LeafColoredTree(go(tree.topology()), tree.colors)


def test_build_from_mixed_families_equals_the_reference_glue():
    # deep levels of a caterpillar: its own family spans them, and each
    # small family holds at most one of their leaves
    outcomes = {True: 0, False: 0}
    rng = random.Random(5)
    cater, ids, family = _caterpillar_family(120)
    for _ in range(40):
        trees = [cater]
        for _ in range(rng.randint(1, 4)):
            small = restrict(cater, rng.sample(ids, rng.randint(2, 4)))
            trees.append(_shuffled(small, rng) if rng.random() < 0.3 else small)
        families = [family] + [tree_family(t, ids) for t in trees[1:]]
        topo = build_from_trees(families, ids)
        assert topo == tree_glue_build(trees, ids)
        outcomes[topo is None] += 1
    # Yule trees in many colours: pair trees, some from a relabelled tree
    for seed in range(150):
        tree, _ = random_scenario(seed, max_leaves=30, max_colors=6)
        ids = tree.leaf_labels
        other = _shuffled(tree, rng)
        trees = []
        for s, t in itertools.combinations(tree.color_universe, 2):
            source = other if rng.random() < 0.1 else tree
            trees.append(restrict(source, (x for x in ids if tree.colors[x] in (s, t))))
        topo = build_from_trees([tree_family(t, ids) for t in trees], ids)
        assert topo == tree_glue_build(trees, ids), seed
        outcomes[topo is None] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_a_level_one_family_spans_runs_no_union_find(monkeypatch):
    def refuse(level, glued):
        raise AssertionError(f"union-find ran on {level:b}")

    tree, ids, family = _caterpillar_family(300)
    monkeypatch.setattr(triples, "_blocks", refuse)
    assert build_from_trees([family], ids) == tree.topology()


def test_a_level_two_families_span_runs_the_union_find(monkeypatch):
    seen = []
    real = triples._blocks

    def spy(level, glued):
        seen.append(level)
        return real(level, glued)

    tree, ids, family = _caterpillar_family(8)
    part = restrict(tree, ids[4:])
    monkeypatch.setattr(triples, "_blocks", spy)
    assert build_from_trees([family, tree_family(part, ids)], ids) == tree.topology()
    assert seen[0] == (1 << len(ids)) - 1
