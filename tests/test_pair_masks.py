"""The pair layer on component bitsets against the per-pair graph copies it
replaced: same thinness classes, same class tables, same pair outcomes, on
dense pairs and sparse ones alike, best match graphs or not; and BUILD
gluing from pair cluster families against BUILD gluing from pair trees."""

import dataclasses
import itertools
import random

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    Rejection,
    SimulationConfig,
    bmg_of_tree,
    build_from_trees,
    connected_components,
    induced_subgraph,
    recognize_ncbmg,
    simulate,
    subgraph_on,
    thinness_partition,
)
from bmgraph import n_color, two_color
from bmgraph.digraph import bits, scan_bits
from bmgraph.two_color import ClassNeighborhoodTables, hasse_tree, neighborhood_tables, pair_topology
from util import (
    axiom_check,
    caterpillar,
    class_ids,
    connected_sink_free_out_masks,
    extended_reachable_masks,
    family_tree,
    pair_classes,
    pair_layer_report,
    random_scenario,
    reference_pair_lrt,
    tree_family,
    tree_glue_build,
)


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


def _restricted(tables: ClassNeighborhoodTables, piece: int) -> ClassNeighborhoodTables:
    """The class tables of the classes in ``piece``, renumbered in order."""
    classes = list(bits(piece))

    def renumber(mask: int) -> int:
        return sum(1 << i for i, a in enumerate(classes) if mask >> a & 1)

    return ClassNeighborhoodTables(
        *(tuple(renumber(table[a]) for a in classes) for table in dataclasses.astuple(tables))
    )


def test_mask_classes_and_tables_equal_those_of_the_pair_copies():
    seen = {"pieces": 0, "split pairs": 0, "split inputs": 0}
    for seed in range(120):
        _, graph = random_scenario(seed, max_leaves=30, max_colors=5)
        subs = _components(graph)
        seen["split inputs"] += len(subs) > 1
        for sub in subs:
            for (s, t), pair in _pair_masks(sub).items():
                classes = pair_classes(sub, pair)
                assert not isinstance(classes, Rejection)  # a best match graph has no sink
                class_masks, tables, pieces = classes
                mine = iter(pieces)
                gst = induced_subgraph(sub, {s, t})
                comps = connected_components(gst)
                seen["split pairs"] += len(comps) > 1
                for comp in comps:
                    piece = gst if len(comps) == 1 else subgraph_on(gst, comp)
                    part = thinness_partition(piece)
                    in_piece = next(mine)
                    ids = [tuple(sub.vertex_ids[v] for v in bits(class_masks[a])) for a in bits(in_piece)]
                    assert ids == [class_ids(part, a) for a in range(len(part))]
                    expected = neighborhood_tables(part.out_classes, part.in_classes)
                    assert _restricted(tables, in_piece) == expected
                    seen["pieces"] += 1
                assert next(mine, None) is None
    assert min(seen.values()) > 0, seen


def _two_colour_graphs():
    """Two-colour graphs, so the pair is every vertex: caterpillars of 60 and
    300 leaves, whose classes are single vertices, and Yule graphs of 8-40
    leaves, whose keys are dense in the small ones and sparse in the large;
    each with whether it is a caterpillar."""
    for n in (60, 300):
        yield bmg_of_tree(caterpillar(n, 2)), True
    rng = random.Random(5)
    for _ in range(60):
        yield simulate(SimulationConfig(rng.randint(8, 40), 2, rng.getrandbits(48)))[1], False


def test_pair_classes_and_tables_equal_the_thinness_reference_on_dense_and_sparse_keys(monkeypatch):
    scanned: list[bool] = []  # per key, whether it was read in one C-level scan

    def recorded(mask: int):
        walk = scan_bits(mask)
        scanned.append(isinstance(walk, itertools.compress))
        return walk

    monkeypatch.setattr(two_color, "scan_bits", recorded)
    seen = {"a key scanned": 0, "a key scanned, a class of several vertices": 0, "a key walked": 0}
    for graph, is_caterpillar in _two_colour_graphs():
        del scanned[:]
        assert not isinstance(pair_topology(graph, (1 << len(graph)) - 1), Rejection)  # scans the keys
        classes = pair_classes(graph, (1 << len(graph)) - 1)
        assert not isinstance(classes, Rejection)
        class_masks, tables, pieces = classes
        comps = connected_components(graph)
        assert len(pieces) == len(comps)
        for comp, in_piece in zip(comps, pieces):
            part = thinness_partition(subgraph_on(graph, comp))
            ids = [tuple(graph.vertex_ids[v] for v in bits(class_masks[a])) for a in bits(in_piece)]
            assert ids == [class_ids(part, a) for a in range(len(part))]
            assert _restricted(tables, in_piece) == neighborhood_tables(part.out_classes, part.in_classes)
        assert any(scanned) or not is_caterpillar  # a caterpillar has dense keys
        seen["a key scanned"] += any(scanned)
        seen["a key scanned, a class of several vertices"] += any(scanned) and len(class_masks) < len(graph)
        seen["a key walked"] += not all(scanned)
    assert min(seen.values()) >= 10, seen


def _random_sink_free_graphs():
    """Seeded random two-colour digraphs on 4-40 vertices in which each
    vertex has an arc to the other colour, most of them no best match graph:
    each arc between the colours is drawn with probability 0.6 (dense) or
    0.03 (sparse, often in several pieces); a vertex that draws none keeps
    one."""
    rng = random.Random(11)
    for density in (0.6, 0.03):
        for _ in range(60):
            n = rng.randint(4, 40)
            reds = set(rng.sample(range(n), rng.randint(1, n - 1)))
            colors = {f"v{v:02d}": "red" if v in reds else "blue" for v in range(n)}
            arcs = set()
            for x, color in colors.items():
                others = [y for y in colors if colors[y] != color]
                drawn = [y for y in others if rng.random() < density]
                arcs |= {(x, y) for y in drawn or [rng.choice(others)]}
            yield ColoredDigraph(colors, arcs)


def test_pair_classes_and_tables_equal_the_thinness_reference_on_random_sink_free_graphs():
    # the tables are checked on graphs that break the axioms too, on the
    # whole vertex set and on the vertex mask of the largest weakly connected
    # component, whose other vertices stay in the graph
    seen = {"N2 fails": 0, "several pieces": 0}
    for graph in _random_sink_free_graphs():
        comps = connected_components(graph)
        largest = max(comps, key=int.bit_count)
        breaks_n2 = False
        for ground, in_ground in (((1 << len(graph)) - 1, comps), (largest, [largest])):
            classes = pair_classes(graph, ground)
            assert not isinstance(classes, Rejection)  # every vertex has an out-neighbour
            class_masks, tables, pieces = classes
            assert len(pieces) == len(in_ground)
            for comp, in_piece in zip(in_ground, pieces):
                part = thinness_partition(subgraph_on(graph, comp))
                ids = [tuple(graph.vertex_ids[v] for v in bits(class_masks[a])) for a in bits(in_piece)]
                assert ids == [class_ids(part, a) for a in range(len(part))]
                expected = neighborhood_tables(part.out_classes, part.in_classes)
                assert _restricted(tables, in_piece) == expected
                breaks_n2 |= any(n3 & ~n1 for n1, n3 in zip(expected.n1, expected.n3))
        seen["N2 fails"] += breaks_n2
        seen["several pieces"] += len(comps) > 1
    assert min(seen.values()) >= 10, seen


def _flips(graph: ColoredDigraph):
    """Every graph one arc away between vertices of different colours."""
    ids, colors = graph.vertex_ids, graph.colors_as_dict()
    arcs = {(ids[i], ids[j]) for i, j in graph.arcs()}
    for x, y in itertools.permutations(ids, 2):
        if colors[x] != colors[y]:
            yield ColoredDigraph(colors, arcs ^ {(x, y)})


def _flip_pool():
    """Components of 150 simulated graphs (3-9 leaves, 2-5 colours) and of
    every cross-colour single-arc flip of each."""
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(3, 9)
        k = rng.randint(2, min(5, n))
        _, graph = simulate(SimulationConfig(n, k, rng.getrandbits(48)))
        for flipped in itertools.chain([graph], _flips(graph)):
            yield from _components(flipped)


def test_pair_outcomes_equal_the_copying_reference_on_every_flip():
    stages: dict[str, int] = {}
    for sub in _flip_pool():
        for (s, t), pair in _pair_masks(sub).items():
            mine = family_tree(pair_topology(sub, pair), sub)
            expected = reference_pair_lrt(induced_subgraph(sub, {s, t}))
            assert mine == expected, (sub, s, t)
            stage = mine.stage if isinstance(mine, Rejection) else "tree"
            stages[stage] = stages.get(stage, 0) + 1
    assert {"tree", "sink-vertex", "axioms"} <= stages.keys(), stages


def test_family_glue_build_equals_tree_glue_build_on_every_flip():
    # BUILD runs on the families of the pairs that pass, so a flip whose
    # pair fails still feeds BUILD the rest.  A pair family holds inner nodes
    # only; the same trees as families with a leaf node per vertex name the
    # same trees and give BUILD the same topology
    outcomes = {"tree": 0, "inconsistent": 0}
    for sub in _flip_pool():
        found = (pair_topology(sub, pair) for pair in _pair_masks(sub).values())
        families = [f for f in found if not isinstance(f, Rejection)]
        trees = [family_tree(f, sub) for f in families]
        with_leaves = [tree_family(tree, sub.vertex_ids) for tree in trees]
        assert [family_tree(f, sub) for f in with_leaves] == trees, sub
        mine = build_from_trees(families, sub.vertex_ids)
        assert build_from_trees(with_leaves, sub.vertex_ids) == mine, sub
        expected = tree_glue_build(trees, sub.vertex_ids)
        assert mine == expected, sub
        outcomes["inconsistent" if mine is None else "tree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _piece_family(masks: list[int], r_ext: tuple[int, ...], hierarchy) -> tuple:
    """A piece's Hasse tree as a cluster family of inner nodes, built
    bottom-up: a node's kids are its Hasse children, and the vertices of the
    classes whose R' set it is are its own leaves."""
    node_of = {s: i for i, s in enumerate(hierarchy.sets)}
    attached = [0] * len(hierarchy.sets)
    for a in bits(hierarchy.ground):
        attached[node_of[r_ext[a]]] |= masks[a]
    built: list[tuple] = []
    for i, kids_at in enumerate(hierarchy.children):  # children before parents
        kids = [built[c] for c in kids_at]
        own = attached[i]
        built.append(kids[0] if not own and len(kids) == 1 else (sum(k[0] for k in kids) | own, tuple(kids)))
    return built[hierarchy.root]


def _piece_by_piece(graph: ColoredDigraph, ground: int):
    """``pair_topology`` as its pieces give it one at a time, in order, each
    through the axioms, the Hasse tree of its R' sets and that tree's cluster
    family; the first piece to fail names the rejection."""
    classes = pair_classes(graph, ground)
    if isinstance(classes, Rejection):
        return classes
    masks, tables, pieces = classes
    r_ext = extended_reachable_masks(tables)
    families = []
    for piece in pieces:
        verdict = axiom_check(graph, masks, tables, [piece])
        if not verdict:
            return Rejection("axioms", verdict)
        hierarchy = hasse_tree(piece, {r_ext[a] for a in bits(piece)})
        if isinstance(hierarchy, Rejection):
            ids = tuple(two_color._class_ids(graph, masks, m) for m in hierarchy.witness)
            return Rejection(hierarchy.stage, ids)
        families.append(_piece_family(masks, r_ext, hierarchy))
    return families[0] if len(families) == 1 else (sum(f[0] for f in families), tuple(families))


def _split_pairs():
    """Two-colour graphs of two pieces, each a connected sink-free graph on
    2 red and 3 blue vertices: for every two different outcomes among N1,
    N2, N3 and passing, a piece with each, both ways round, so that either
    piece holds the smallest vertex."""
    found: dict[str, tuple[int, ...]] = {}
    for outs in connected_sink_free_out_masks(2, 3):
        names = "abcde"
        colors = {x: "red" if v < 2 else "blue" for v, x in enumerate(names)}
        arcs = {(names[v], names[w]) for v, out in enumerate(outs) for w in bits(out)}
        verdict = two_color.check_axioms(ColoredDigraph(colors, arcs))
        found.setdefault(verdict.stage or "pass", outs)
    assert {"N1", "N2", "N3", "pass"} <= found.keys(), found
    for first, second in itertools.permutations(sorted(found), 2):
        colors, arcs = {}, set()
        for outs, names in ((found[first], "acegi"), (found[second], "bdfhj")):
            colors.update({x: "red" if v < 2 else "blue" for v, x in enumerate(names)})
            arcs |= {(names[v], names[w]) for v, out in enumerate(outs) for w in bits(out)}
        yield ColoredDigraph(colors, arcs)


def _nodes(family: tuple) -> list[tuple]:
    """Every node of a cluster family, the family itself included."""
    found, stack = [], [family]
    while stack:
        found.append(stack.pop())
        stack.extend(found[-1][1])
    return found


def test_one_pass_pair_outcome_equals_the_piece_by_piece_outcome():
    # the pair layer checks the axioms on all pieces at once and runs one
    # Hasse pass over all their R' sets; the outcome, witness included, must
    # be that of the pieces run one at a time; the pairs of a 60-leaf,
    # 8-colour graph pass with three or more pieces.  A family holds inner
    # nodes only: no node is a single vertex unless the pair is one
    seen: dict[str, int] = {}
    _, wide = simulate(SimulationConfig(60, 8, 3))
    subs = itertools.chain(_flip_pool(), _split_pairs(), _components(wide))
    for sub in subs:
        for pair in _pair_masks(sub).values():
            mine = pair_topology(sub, pair)
            assert mine == _piece_by_piece(sub, pair), (sub, pair)
            if isinstance(mine, Rejection):
                stage = mine.witness.stage if mine.stage == "axioms" else mine.stage
            else:
                stage = f"tree of {min(len(pair_classes(sub, pair)[2]), 3)}+ pieces"
                single = [node for node in _nodes(mine) if node[0].bit_count() == 1]
                assert not single or pair.bit_count() == 1, (sub, pair, single)
            seen[stage] = seen.get(stage, 0) + 1
    assert {"sink-vertex", "N1", "N2", "N3", "tree of 3+ pieces"} <= seen.keys(), seen


def _calls(monkeypatch, module, name: str, argument: int) -> list:
    """The ``argument``-th positional argument of every call of ``module.name``."""
    recorded: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        recorded.append(args[argument])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return recorded


def _results(monkeypatch, module, name: str) -> list:
    """The value of every call of ``module.name``."""
    recorded: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        recorded.append(original(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(module, name, counted)
    return recorded


def test_the_pair_layer_checks_the_axioms_and_runs_one_hasse_pass_per_colour_pair(monkeypatch):
    # ``pair_topology`` finds a sink-free pair's pieces with one ``_blocks``
    # call and checks the axioms on them next, so the pieces that call
    # returns are those of the pair's axiom check; an accepted graph of
    # three or more colours is decided by the direct candidate, so the full
    # pair-layer candidate runs through ``pair_layer_report``
    pairs = _calls(monkeypatch, n_color, "pair_topology", 1)
    checked = _results(monkeypatch, two_color, "_blocks")
    passes = _calls(monkeypatch, two_color, "hasse_forest", 0)
    _, graph = simulate(SimulationConfig(60, 8, 3))
    report = pair_layer_report(graph)
    assert report.accepted
    assert len(pairs) == 28 * len(report.components)
    pieces = [pair_classes(graph, ground)[2] for ground in pairs]
    assert max(map(len, pieces)) >= 3  # batching is exercised
    assert checked == passes == pieces  # once per pair, on all of its pieces

    # a flip that breaks one pair of several pieces, not the first pair:
    # that pair, too, is checked once, on all its pieces, and the check's
    # rejection ends recognition before any Hasse pass on it
    found = None
    for flipped in _flips(graph):
        del pairs[:], checked[:], passes[:]
        report = recognize_ncbmg(flipped)
        if report.stage == "2cbmg-failure" and report.witness.stage == "axioms" and len(pairs) > 1:
            failing = pair_classes(flipped, pairs[-1])[2]
            if len(failing) >= 2:
                found = flipped
                break
    assert found is not None
    first = [pair_classes(found, ground)[2] for ground in pairs]
    assert checked == first  # each pair once, the failing one on all its pieces
    assert passes == first[:-1]  # no Hasse pass follows the failing check


def test_pair_topology_rejects_an_empty_or_foreign_vertex_mask():
    # as ``build(graph, mask)`` does: a colour pair is a non-empty bitset of
    # the graph's vertex indices
    _, graph = simulate(SimulationConfig(12, 3, 1))
    for stray in (0, 1 << len(graph), -1):
        with pytest.raises(GraphError):
            pair_topology(graph, stray)


def test_a_vertex_mask_that_is_no_int_is_rejected():
    # True is vertex 0 by value: read as a mask, the two-vertex graph's pair
    # would be rejected at its sink 'a' instead of raising; a float or a
    # string is no mask either, here and in the other mask-taking functions
    graph = ColoredDigraph({"a": "r", "b": "s"}, [("b", "a")])
    for stray in (True, False, 3.0, "3"):
        with pytest.raises(GraphError):
            pair_topology(graph, stray)
        with pytest.raises(GraphError):
            subgraph_on(graph, stray)
    assert pair_topology(graph, 1) == Rejection("sink-vertex", "a")
