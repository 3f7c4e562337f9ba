"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every criterion demands zero failures at exact equality unless stated.
"""

import itertools
import random
import statistics
import time
from functools import lru_cache

import pytest

from bmgraph import (
    LeafColoredTree,
    Rejection,
    SimulationConfig,
    TripleSet,
    bmg_of_tree,
    bmg_oracle,
    build,
    check_2crbmg_necessary,
    check_axioms,
    class_reachable_set,
    connected_components,
    induced_subgraph,
    informative_triples,
    recognize_ncbmg,
    redundant_edges_n,
    rbmg_of_tree,
    simulate,
    symmetric_part,
    thinness_partition,
)
from cases import (
    counter_triples_graph,
    counterex_sym_graph,
    p4_path,
    smallest_counterexample,
    weird_tree,
)
from util import (
    hierarchy_lrt,
    all_topologies,
    arc_ids,
    color_partitions,
    coloring_from_partition,
    connected_scenario,
    direct_lrt,
    random_scenario,
)


def _report(number: int, name: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)} failures)"
    print(f"\nACCEPTANCE {number} {name}: {status}")
    assert not failures, failures[:5]


@lru_cache(maxsize=None)
def simulated_pool(count: int, max_leaves: int, max_colors: int):
    return tuple(
        random_scenario(seed, max_leaves=max_leaves, max_colors=max_colors)
        for seed in range(count)
    )


@lru_cache(maxsize=None)
def connected_two_color_pool(count: int):
    return tuple(connected_scenario(seed) for seed in range(count))


def test_criterion_1_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    # exhaustive: every tree shape on <= 6 labeled leaves combined with every
    # surjective coloring on <= 3 colors, up to renaming leaves and colors
    for n in range(2, 7):
        leaves = tuple(f"l{i}" for i in range(n))
        shapes = all_topologies(leaves)
        for partition in color_partitions(n, 3):
            colors = coloring_from_partition(leaves, partition)
            for topo in shapes:
                tree = LeafColoredTree(topo, colors)
                if bmg_of_tree(tree) != bmg_oracle(tree):
                    failures.append((topo, partition))
    # randomized: at least 1000 trees with up to 40 leaves and 2-6 colors
    for seed in range(1000):
        tree, graph = random_scenario(seed, max_leaves=40, max_colors=6)
        if bmg_oracle(tree) != graph:
            failures.append(("random", seed))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("runtime-budget-exceeded", elapsed))
    _report(1, f"oracle equivalence ({elapsed:.1f}s)", failures)


def test_criterion_2_round_trip():
    failures = []
    for seed, (tree, graph) in enumerate(simulated_pool(1000, 25, 6)):
        report = recognize_ncbmg(graph)
        if not report.accepted:
            failures.append((seed, "rejected", report.stage))
            continue
        if bmg_of_tree(report.lrt) != graph:
            failures.append((seed, "lrt-does-not-explain"))
        if not tree.displays(report.lrt):
            failures.append((seed, "lrt-not-displayed"))
    _report(2, "round trip over 1000 simulated scenarios", failures)


def test_criterion_3_lrt_minimality_and_uniqueness():
    failures = []
    pool = simulated_pool(1000, 25, 6)[:200]
    for seed, (tree, graph) in enumerate(pool):
        report = recognize_ncbmg(graph)
        if not report.accepted:
            failures.append((seed, "rejected"))
            continue
        lrt = report.lrt
        if redundant_edges_n(lrt, graph) != frozenset():
            failures.append((seed, "redundant-edges-nonempty"))
        for edge in lrt.inner_edges():
            if bmg_of_tree(lrt.contract_edges([edge])) == graph:
                failures.append((seed, "contraction-preserves-graph", edge))
    _report(3, "minimality of 200 least resolved trees", failures)


def test_criterion_4_route_agreement():
    failures = []
    for seed, (_, graph) in enumerate(connected_two_color_pool(1000)[:500]):
        via_h = hierarchy_lrt(graph)
        via_t = direct_lrt(graph)
        if isinstance(via_h, Rejection) or isinstance(via_t, Rejection):
            failures.append((seed, "rejected"))
        elif via_h != via_t:
            failures.append((seed, "trees-differ"))
    for seed, (_, graph) in enumerate(simulated_pool(1000, 25, 6)[:200]):
        a = recognize_ncbmg(graph, route="pairwise-lrt")
        b = recognize_ncbmg(graph, route="informative-direct")
        if not (a.accepted and b.accepted):
            failures.append((seed, "route-rejected"))
        elif a.lrt != b.lrt:
            failures.append((seed, "routes-differ"))
    _report(4, "route agreement (500 two-color + 200 n-color)", failures)


def test_criterion_5_known_counterexamples():
    failures = []

    # smallest connected non-example; re-proved by full enumeration
    fig2 = smallest_counterexample()
    colors = fig2.colors_as_dict()
    achievable = set()
    for topo in all_topologies(tuple(sorted(colors))):
        achievable.add(frozenset(arc_ids(bmg_of_tree(LeafColoredTree(topo, colors)))))
    if frozenset(arc_ids(fig2)) in achievable:
        failures.append("fig2-explained-by-some-tree")
    if recognize_ncbmg(fig2).accepted:
        failures.append("fig2-accepted-pairwise")
    if recognize_ncbmg(fig2, route="informative-direct").accepted:
        failures.append("fig2-accepted-direct")

    # consistent informative triples, yet the Aho tree explains a different graph
    ct = counter_triples_graph()
    expected = TripleSet.of(
        ct.vertex_ids, [("a", "b", "b2"), ("a", "b", "a2"), ("a", "b2", "a2")]
    )
    if informative_triples(ct) != expected:
        failures.append("counter-triples-set-differs")
    aho = build(expected, ct.vertex_ids)
    if aho is None:
        failures.append("counter-triples-inconsistent")
    elif bmg_of_tree(LeafColoredTree(aho, ct.colors_as_dict())) == ct:
        failures.append("counter-triples-aho-tree-explains")
    if direct_lrt(ct) != Rejection("component-color-mismatch", (("a", "b", "b2"), ("a2",))):
        failures.append("counter-triples-accepted-direct")

    # symmetric three-color cycle: fine per color pair, rejected overall
    sym = counterex_sym_graph()
    for s, t in itertools.combinations(sym.color_ids, 2):
        sub = induced_subgraph(sym, {s, t})
        if not recognize_ncbmg(sub).accepted:
            failures.append(("counterex-sym-pair-rejected", (s, t)))
        if not check_2crbmg_necessary(symmetric_part(sub)):
            failures.append(("counterex-sym-pair-check", (s, t)))
    rep = recognize_ncbmg(sym)
    if rep.accepted or rep.stage not in {"triples-inconsistent", "graph-mismatch"}:
        failures.append("counterex-sym-not-rejected-at-ncolor-stage")

    # two in-neighborless classes and their reachable sets
    graph = bmg_of_tree(weird_tree())
    part = thinness_partition(graph)
    ids = {part.class_ids(a): a for a in range(len(part))}
    if ("10", "9") not in ids or ("7", "8") not in ids:
        failures.append("weird-classes-missing")
    else:
        r_a = {graph.vertex_ids[v] for v in class_reachable_set(part, ids[("10", "9")])}
        r_b = {graph.vertex_ids[v] for v in class_reachable_set(part, ids[("7", "8")])}
        if r_a != {"1", "2", "3", "4", "5", "6"}:
            failures.append(("weird-r-alpha", sorted(r_a)))
        if r_b != {"5", "6"}:
            failures.append(("weird-r-beta", sorted(r_b)))
    _report(5, "known counterexamples reproduced", failures)


def test_criterion_6_axiom_soundness():
    failures = []
    everything = connected_two_color_pool(1000)
    for seed, (_, graph) in enumerate(everything):
        verdict = check_axioms(graph)
        if not verdict:
            failures.append((seed, verdict.stage))
            continue
        part = thinness_partition(graph)
        w = part.no_in_classes()
        if len({part.color_of_class[a] for a in w}) > 1:
            failures.append((seed, "w-classes-multicolored"))
        if len(w) > 1:
            shed = frozenset(v for a in w for v in part.classes[a])
            full = frozenset(range(len(graph))) - shed
            maximal = [a for a in w if class_reachable_set(part, a) == full]
            if len(maximal) != 1:
                failures.append((seed, "w-maximal-not-unique"))
    _report(6, "axiom soundness on 1000 connected two-color graphs", failures)


def test_criterion_7_build_correctness():
    failures = []
    if build(TripleSet.of("xyz", [("x", "y", "z"), ("x", "z", "y")]), "xyz") is not None:
        failures.append("contradictory-pair-not-flagged")
    for seed in range(500):
        tree, _ = random_scenario(seed + 5000, max_leaves=12, max_colors=6)
        topo = build(tree.triples(), tree.leaf_labels)
        if topo is None or LeafColoredTree(topo, tree.colors) != tree:
            failures.append(seed)
    _report(7, "BUILD reconstructs 500 trees from their triples", failures)


def test_criterion_8_complexity_smoke():
    failures = []
    sizes = (50, 100, 200, 400)
    medians = []
    for n in sizes:
        times = []
        for run in range(20):
            _, graph = simulate(SimulationConfig(n, 4, 90_000 + 17 * run + n))
            t0 = time.perf_counter()
            report = recognize_ncbmg(graph)
            times.append(time.perf_counter() - t0)
            if not report.accepted:
                failures.append((n, run, "rejected"))
        medians.append(statistics.median(times))
    for prev, cur, n in zip(medians, medians[1:], sizes[1:]):
        if cur > 10.0 * prev:
            failures.append((n, "ratio", cur / prev))
    if medians[-1] >= 30.0:
        failures.append(("absolute-400", medians[-1]))
    detail = ", ".join(f"{n}:{m * 1000:.0f}ms" for n, m in zip(sizes, medians))
    _report(8, f"complexity smoke ({detail})", failures)


def test_criterion_9_rbmg_necessary_condition():
    failures = []
    for seed, (tree, graph) in enumerate(connected_two_color_pool(1000)):
        try:
            if not check_2crbmg_necessary(symmetric_part(graph)):
                failures.append((seed, "symmetric-part-fails"))
        except Exception as exc:  # the criterion demands zero exceptions
            failures.append((seed, repr(exc)))
    if check_2crbmg_necessary(p4_path()):
        failures.append("p4-passes")
    _report(9, "reciprocal-graph necessary condition", failures)
