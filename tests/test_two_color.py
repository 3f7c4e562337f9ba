"""Axioms N1-N3, reachable sets, hierarchy route, redundant edges."""

import itertools
import random

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    Hierarchy,
    LeafColoredTree,
    Rejection,
    bmg_of_tree,
    check_axioms,
    class_reachable_set,
    extended_reachable_set,
    lrt_via_hierarchy,
    neighborhood_tables,
    redundant_edges_n,
    thinness_partition,
)
from bmgraph.two_color import extended_reachable_masks, hasse_tree, laminarity_witness
from cases import rvsr_tree, smallest_counterexample, weird_tree
from util import (
    caterpillar,
    class_members,
    class_roots,
    connected_scenario,
    connected_sink_free_out_masks,
    hierarchy_lrt,
    random_binary_refinement,
)


def complete_bidirectional(n_left=2, n_right=3):
    colors = {f"a{i}": "r" for i in range(n_left)}
    colors.update({f"x{i}": "b" for i in range(n_right)})
    arcs = [
        (u, v)
        for u in colors
        for v in colors
        if colors[u] != colors[v]
    ]
    return ColoredDigraph(colors, arcs)


def test_axioms_pass_on_simulated_two_color_graphs():
    for seed in range(60):
        _, graph = connected_scenario(seed)
        assert check_axioms(graph)


def test_axioms_pass_on_complete_bipartite():
    g = complete_bidirectional()
    assert check_axioms(g)
    part = thinness_partition(g)
    tables = neighborhood_tables(part.out_classes, part.in_classes)
    for a in range(2):
        assert tables.n3[a] == tables.n1[a]


def test_axioms_fail_on_counterexample():
    verdict = check_axioms(smallest_counterexample())
    assert not verdict
    assert verdict.stage in {"N1", "N2", "N3"}
    assert verdict.witness


def _reference_axioms(graph):
    """N2, N3, N1 on frozensets of classes, pair by pair: first failure or None."""
    part = thinness_partition(graph)
    n1 = part.out_classes
    n2 = [frozenset().union(*(n1[c] for c in n1[a])) for a in range(len(part))]
    n3 = [frozenset().union(*(n1[c] for c in n2[a])) for a in range(len(part))]
    for a in range(len(part)):
        if not n3[a] <= n1[a]:
            return "N2", part.class_ids(a)
    pairs = list(itertools.combinations(range(len(part)), 2))
    for a, b in pairs:
        if a not in n2[b] and b not in n2[a] and n1[a] & n1[b]:
            nested = n1[a] <= n1[b] or n1[b] <= n1[a]
            if not (part.in_classes[a] == part.in_classes[b] and nested):
                return "N3", (part.class_ids(a), part.class_ids(b))
    for a, b in pairs:
        if a not in n1[b] and b not in n1[a] and (n1[a] & n2[b] or n1[b] & n2[a]):
            return "N1", (part.class_ids(a), part.class_ids(b))
    return None


def test_axiom_verdicts_and_witnesses_match_the_pairwise_reference():
    # every connected, sink-free graph on 2+3 and 3+2 vertices: the bitset
    # loops must report the same first violating class or class pair
    stages = {"N1": 0, "N2": 0, "N3": 0, None: 0}
    for reds, blues in ((2, 3), (3, 2)):
        n = reds + blues
        ids = [f"v{v}" for v in range(n)]
        colors = {ids[v]: "red" if v < reds else "blue" for v in range(n)}
        for outs in connected_sink_free_out_masks(reds, blues):
            graph = ColoredDigraph(
                colors,
                [(ids[v], ids[w]) for v in range(n) for w in range(n) if outs[v] >> w & 1],
            )
            verdict = check_axioms(graph)
            expected = _reference_axioms(graph)
            assert (None if verdict else (verdict.stage, verdict.witness)) == expected
            stages[expected and expected[0]] += 1
    assert min(stages.values()) > 0, stages


def test_structural_verdicts_are_distinct():
    three = ColoredDigraph(
        {"a": "r", "b": "b", "c": "g"}, [("a", "b"), ("b", "a"), ("c", "a"), ("a", "c")]
    )
    assert check_axioms(three).stage == "wrong-color-count"
    assert check_axioms(three).witness == ("a", "b", "c")
    same = ColoredDigraph({"a": "r", "b": "r", "c": "b"}, [("a", "b"), ("a", "c"), ("c", "a"), ("b", "c")])
    assert check_axioms(same).stage == "same-color-arc"
    sink = ColoredDigraph({"a": "r", "b": "b"}, [("a", "b")])
    assert check_axioms(sink).stage == "sink-vertex"
    assert check_axioms(sink).witness == "b"
    split = ColoredDigraph(
        {"a": "r", "b": "b", "c": "r", "d": "b"},
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")],
    )
    assert check_axioms(split).stage == "disconnected"
    assert check_axioms(split).witness == 2


def test_reachable_sets_of_weird_tree():
    graph = bmg_of_tree(weird_tree())
    part = thinness_partition(graph)
    idx = {part.class_ids(a): a for a in range(len(part))}
    r_alpha = {graph.vertex_ids[v] for v in class_reachable_set(part, idx[("10", "9")])}
    r_beta = {graph.vertex_ids[v] for v in class_reachable_set(part, idx[("7", "8")])}
    assert r_alpha == {"1", "2", "3", "4", "5", "6"}
    assert r_beta == {"5", "6"}


def test_two_vertex_reachability_closure():
    g = ColoredDigraph({"x": "r", "y": "b"}, [("x", "y"), ("y", "x")])
    part = thinness_partition(g)
    assert class_reachable_set(part, 0) == frozenset({0, 1})
    assert extended_reachable_set(part, 0) == frozenset({0, 1})


def test_bfs_equals_two_step_union_when_axioms_hold():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        tables = neighborhood_tables(part.out_classes, part.in_classes)
        for a in range(len(part)):
            two_step = class_members(part, tables.n1[a] | tables.n2[a])
            assert class_reachable_set(part, a) == two_step


def test_extended_reachable_set_properties():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        for a in range(len(part)):
            r_ext = extended_reachable_set(part, a)
            members = set(part.classes[a])
            assert members <= r_ext
            assert len(r_ext) > 1
            assert {graph.color_of[v] for v in r_ext} == {0, 1}
            # Q contains only classes of the same color
            q = r_ext - class_reachable_set(part, a)
            for v in q - members:
                assert graph.color_of[v] == graph.color_of[part.classes[a][0]]


def test_extended_reachable_masks_equal_the_reference():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        masks = extended_reachable_masks(neighborhood_tables(part.out_classes, part.in_classes))
        for a in range(len(part)):
            assert class_members(part, masks[a]) == extended_reachable_set(part, a)


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


def test_one_pass_laminarity_agrees_with_all_pairs_reference():
    # after N1-N3 pass, R' sets are always laminar, so only families built
    # here reach the `laminarity` rejection
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        ground = rng.randint(1, 7)
        family: set[frozenset[int]] = set()
        for _ in range(rng.randint(1, 8)):
            if family and rng.random() < 0.6:
                # nest inside, or split off from, a set already drawn
                base = sorted(rng.choice(sorted(family, key=sorted)))
                picked = frozenset(rng.sample(base, rng.randint(1, len(base))))
            else:
                picked = frozenset(v for v in range(ground) if rng.random() < 0.5)
            if picked:
                family.add(picked)
        if not family:
            continue
        ordered = tuple(sorted(family, key=lambda s: (-len(s), sorted(s))))
        laminar = laminarity_witness(ordered) is None
        outcome = hasse_tree(_mask(range(ground)), [_mask(s) for s in family])
        one_pass = not (isinstance(outcome, Rejection) and outcome.stage == "laminarity")
        assert one_pass == laminar, ordered
        if not laminar:
            s, t = outcome.witness
            assert s & t and s & ~t and t & ~s
        seen[laminar] += 1
    assert min(seen.values()) > 300, seen


def test_hasse_tree_parents_are_smallest_strict_supersets():
    family = [{0, 1, 2, 3, 4}, {0, 1}, {2, 3}, {0}, {4}, {2}]
    hierarchy = hasse_tree(_mask(range(5)), [_mask(s) for s in family])
    assert isinstance(hierarchy, Hierarchy)
    sets = hierarchy.sets
    for i, p in enumerate(hierarchy.parent):
        supersets = [t for t in sets if t != sets[i] and not sets[i] & ~t]
        if p == -1:
            assert not supersets and i == hierarchy.root
        else:
            assert sets[p] == min(supersets, key=int.bit_count)
    two_roots = hasse_tree(_mask(range(5)), [_mask({0, 1}), _mask({2, 3, 4})])
    assert two_roots.stage == "hasse-not-tree"


def test_w_classes_share_color_and_unique_maximal():
    found_plural = 0
    for seed in range(60):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        w = part.no_in_classes()
        colors = {graph.color_of[part.classes[a][0]] for a in w}
        assert len(colors) <= 1
        if len(w) > 1:
            found_plural += 1
            everything = frozenset(range(len(graph)))
            shed = frozenset(v for a in w for v in part.classes[a])
            full = [a for a in w if class_reachable_set(part, a) == everything - shed]
            assert len(full) == 1
    assert found_plural  # the sampler must hit the interesting case


def test_reachable_family_is_hierarchy_on_core():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        sets = [class_reachable_set(part, a) for a in range(len(part))]
        for s, t in itertools.combinations(set(sets), 2):
            assert s <= t or t <= s or not (s & t)
        shed = {v for a in part.no_in_classes() for v in part.classes[a]}
        assert max(sets, key=len) == frozenset(range(len(graph))) - frozenset(shed)


def test_extended_family_is_hierarchy_on_everything():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        sets = {extended_reachable_set(part, a) for a in range(len(part))}
        for s, t in itertools.combinations(sets, 2):
            assert s <= t or t <= s or not (s & t)
        assert frozenset(range(len(graph))) in sets


def test_four_root_cases_for_class_pairs():
    for seed in range(25):
        tree, graph = connected_scenario(seed)
        part = thinness_partition(graph)
        tables = neighborhood_tables(part.out_classes, part.in_classes)
        roots = class_roots(tree, graph, part)
        for a, b in itertools.combinations(range(len(part)), 2):
            if part.color_of_class[a] == part.color_of_class[b]:
                continue
            fwd = bool(tables.n1[a] >> b & 1)  # beta inside N(alpha)
            back = bool(tables.n1[b] >> a & 1)
            ra, rb = roots[a], roots[b]
            cases = [
                fwd and back,
                back and not fwd,
                fwd and not back,
                not fwd and not back,
            ]
            assert sum(cases) == 1
            if cases[0]:
                assert ra == rb
            elif cases[1]:
                assert tree.is_ancestor(rb, ra) and ra != rb
            elif cases[2]:
                assert tree.is_ancestor(ra, rb) and ra != rb
            else:
                assert not tree.is_ancestor(ra, rb) and not tree.is_ancestor(rb, ra)


def test_lrt_two_vertex_graph():
    g = ColoredDigraph({"x": "r", "y": "b"}, [("x", "y"), ("y", "x")])
    tree = hierarchy_lrt(g)
    assert isinstance(tree, LeafColoredTree)
    assert tree.newick() == "(x,y);"


def test_lrt_of_a_600_leaf_caterpillar_is_the_caterpillar():
    tree = caterpillar(600)
    assert hierarchy_lrt(bmg_of_tree(tree)) == tree


def test_lrt_rejects_counterexample():
    outcome = lrt_via_hierarchy(smallest_counterexample())
    assert isinstance(outcome, Rejection)
    assert outcome.stage == "axioms"


def test_lrt_round_trip_and_display():
    for seed in range(60):
        tree, graph = connected_scenario(seed)
        lrt = hierarchy_lrt(graph)
        assert isinstance(lrt, LeafColoredTree)
        assert bmg_of_tree(lrt) == graph
        assert tree.displays(lrt)


def test_lrt_has_no_redundant_edges():
    for seed in range(40):
        _, graph = connected_scenario(seed)
        lrt = hierarchy_lrt(graph)
        assert redundant_edges_n(lrt, graph) == frozenset()


def test_plain_reachable_sets_can_misplace_classes():
    tree = rvsr_tree()
    graph = bmg_of_tree(tree)
    part = thinness_partition(graph)
    # three blue classes share one in-neighborhood yet stay distinct
    ins = {}
    for a in range(len(part)):
        ins.setdefault(part.vertex_in(a), []).append(a)
    assert any(len(group) >= 2 for group in ins.values())
    lrt = hierarchy_lrt(graph)
    assert isinstance(lrt, LeafColoredTree)
    assert lrt == tree  # the source tree is already least resolved
    # attaching classes at their plain reachable set would merge them
    naive_sets = {a: class_reachable_set(part, a) for a in range(len(part))}
    merged = {}
    for a, s in naive_sets.items():
        merged.setdefault(s, []).append(a)
    assert any(
        len({part.vertex_out(a) for a in group}) > 1 for group in merged.values()
    )


def test_redundant_edges_on_forced_star():
    graph = bmg_of_tree(
        LeafColoredTree(("x", "y", "z"), {"x": "r", "y": "b", "z": "b"})
    )
    refined = LeafColoredTree((("y", "z"), "x"), {"x": "r", "y": "b", "z": "b"})
    assert bmg_of_tree(refined) == graph
    edges = redundant_edges_n(refined, graph)
    assert edges == frozenset(refined.inner_edges())
    assert bmg_of_tree(refined.contract_edges(edges)) == graph


def test_contracting_redundant_edges_of_any_explaining_tree_gives_lrt():
    # the simulated source tree explains the graph and refines the LRT
    for seed in range(40):
        tree, graph = connected_scenario(seed)
        lrt = hierarchy_lrt(graph)
        edges = redundant_edges_n(tree, graph)
        assert tree.contract_edges(edges) == lrt


def test_explaining_refinements_only_add_redundant_edges():
    rng = random.Random(5)
    hits = 0
    for seed in range(60):
        _, graph = connected_scenario(seed)
        lrt = hierarchy_lrt(graph)
        refined = random_binary_refinement(lrt, rng)
        if refined == lrt or bmg_of_tree(refined) != graph:
            continue  # not every refinement still explains the graph
        hits += 1
        extra = redundant_edges_n(refined, graph)
        assert lrt == refined.contract_edges(extra)
    assert hits


def test_redundant_edges_rejects_non_explaining_tree():
    _, graph = connected_scenario(3)
    other_tree, other_graph = connected_scenario(4)
    if bmg_of_tree(other_tree) != graph:
        with pytest.raises(GraphError):
            redundant_edges_n(other_tree, graph)


def test_hierarchy_topology_explains_every_small_axiom_graph():
    # the hierarchy route runs no gate of its own: on every connected,
    # sink-free graph of <= 3+3 vertices that passes N1-N3, its topology
    # must explain the graph
    passed = 0
    for reds, blues in itertools.product(range(1, 4), repeat=2):
        n = reds + blues
        ids = [f"v{v}" for v in range(n)]
        colors = {ids[v]: "red" if v < reds else "blue" for v in range(n)}
        for outs in connected_sink_free_out_masks(reds, blues):

            def hop(mask):
                out = 0
                for v in range(n):
                    if mask >> v & 1:
                        out |= outs[v]
                return out

            # vertex-level N2, N(N(N(x))) within N(x): check_axioms tests it
            # too, so this only skips graphs it rejects (the count pins it)
            if any(hop(hop(out)) & ~out for out in outs):
                continue
            graph = ColoredDigraph(
                colors,
                [(ids[v], ids[w]) for v in range(n) for w in range(n) if outs[v] >> w & 1],
            )
            if not check_axioms(graph):
                continue
            passed += 1
            topology = lrt_via_hierarchy(graph)
            assert not isinstance(topology, Rejection), graph
            assert bmg_of_tree(LeafColoredTree(topology, colors)) == graph
    assert passed == 1035
