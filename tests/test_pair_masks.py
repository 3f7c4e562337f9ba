"""The pair layer on component bitsets against the per-pair graph copies it
replaced: same thinness classes, same class tables, same pair outcomes."""

import itertools
import random

from bmgraph import (
    ColoredDigraph,
    Rejection,
    SimulationConfig,
    connected_components,
    induced_subgraph,
    simulate,
    subgraph_on,
    thinness_partition,
)
from bmgraph.n_color import _pair_lrt
from bmgraph.two_color import neighborhood_tables, pair_classes, vertex_masks
from util import random_scenario, reference_pair_lrt


def _components(graph: ColoredDigraph) -> list[ColoredDigraph]:
    comps = connected_components(graph)
    return [graph if len(comps) == 1 else subgraph_on(graph, comp) for comp in comps]


def _pair_masks(sub: ColoredDigraph) -> dict[tuple[str, str], int]:
    """Colour pair -> vertex mask of its two colours."""
    by_color = [0] * len(sub.color_ids)
    for v, c in enumerate(sub.color_of):
        by_color[c] |= 1 << v
    named = zip(sub.color_ids, by_color)
    return {(s, t): m | n for (s, m), (t, n) in itertools.combinations(named, 2)}


def test_mask_classes_and_tables_equal_those_of_the_pair_copies():
    seen = {"pieces": 0, "split pairs": 0, "split inputs": 0}
    for seed in range(120):
        _, graph = random_scenario(seed, max_leaves=30, max_colors=5)
        subs = _components(graph)
        seen["split inputs"] += len(subs) > 1
        for sub in subs:
            outs, ins = vertex_masks(sub)
            for (s, t), pair in _pair_masks(sub).items():
                pieces = pair_classes(sub, outs, ins, pair)
                assert not isinstance(pieces, Rejection)  # a best match graph has no sink
                mine = iter(pieces)
                gst = induced_subgraph(sub, {s, t})
                comps = connected_components(gst)
                seen["split pairs"] += len(comps) > 1
                for comp in comps:
                    piece = gst if len(comps) == 1 else subgraph_on(gst, comp)
                    part = thinness_partition(piece)
                    members, tables = next(mine)
                    ids = [tuple(sub.vertex_ids[v] for v in m) for m in members]
                    assert ids == [part.class_ids(a) for a in range(len(part))]
                    assert tables == neighborhood_tables(part.out_classes, part.in_classes)
                    seen["pieces"] += 1
                assert next(mine, None) is None
    assert min(seen.values()) > 0, seen


def _flips(graph: ColoredDigraph):
    """Every graph one arc away between vertices of different colours."""
    ids, colors = graph.vertex_ids, graph.colors_as_dict()
    arcs = {(ids[i], ids[j]) for i, j in graph.arcs()}
    for x, y in itertools.permutations(ids, 2):
        if colors[x] != colors[y]:
            yield ColoredDigraph(colors, arcs ^ {(x, y)})


def test_pair_outcomes_equal_the_copying_reference_on_every_flip():
    rng = random.Random(2)
    stages: dict[str, int] = {}
    trees = 0
    while trees < 150:
        n = rng.randint(3, 9)
        k = rng.randint(2, min(5, n))
        _, graph = simulate(SimulationConfig(n, k, rng.getrandbits(48)))
        trees += 1
        for flipped in itertools.chain([graph], _flips(graph)):
            for sub in _components(flipped):
                outs, ins = vertex_masks(sub)
                colors = sub.colors_as_dict()
                for (s, t), pair in _pair_masks(sub).items():
                    mine = _pair_lrt(sub, colors, outs, ins, pair)
                    expected = reference_pair_lrt(induced_subgraph(sub, {s, t}))
                    assert mine == expected, (flipped, s, t)
                    stage = mine.stage if isinstance(mine, Rejection) else "tree"
                    stages[stage] = stages.get(stage, 0) + 1
    assert {"tree", "sink-vertex", "axioms"} <= stages.keys(), stages
