"""Colored digraph structure: components, induced subgraphs, thinness."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmgraph import (
    ColoredDigraph,
    GraphError,
    bmg_of_tree,
    connected_components,
    induced_subgraph,
    subgraph_on,
    symmetric_part,
    thinness_partition,
)
from bmgraph.digraph import SCAN_DENSITY, _blocks, bits, scan_bits
from bmgraph import cli
from bmgraph.graphio import format_graph, parse_graph, write_tree
from cases import countercog_tree, weird_tree
from util import (
    arc_ids,
    class_ids,
    class_quotient,
    edge_ids,
    no_in_classes,
    random_scenario,
    rbmg_of_tree,
)


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
    assert connected_components(g) == [0b11]


def test_edgeless_graph_has_singleton_components():
    g = ColoredDigraph({"a": "r", "b": "b", "c": "b"})
    assert connected_components(g) == [0b001, 0b010, 0b100]
    wide = ColoredDigraph({f"v{i:05d}": "r" for i in range(10_000)})
    assert connected_components(wide) == [1 << v for v in range(10_000)]


@settings(max_examples=150, deadline=None)
@given(random_digraphs())
def test_components_are_disjoint_closed_connected_masks_by_lowest_bit(g):
    comps = connected_components(g)
    assert g._in_masks is None  # each vertex is joined to its out-neighbours only
    arcs = arc_ids(g)
    union = 0
    for comp in comps:
        assert comp and not comp & union
        union |= comp
        for v in bits(comp):  # closed under arcs, both ways
            assert g.out_masks[v] | g.in_masks[v] | comp == comp
        reached = {g.vertex_ids[(comp & -comp).bit_length() - 1]}
        frontier = set(reached)
        while frontier:  # connected: a search over ids from the lowest vertex reaches all of it
            frontier = {y for x in frontier for y in g.vertex_ids if {(x, y), (y, x)} & arcs} - reached
            reached |= frontier
        assert reached == {g.vertex_ids[v] for v in bits(comp)}
    assert union == (1 << len(g)) - 1
    lowest = [comp & -comp for comp in comps]
    assert lowest == sorted(lowest)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 80), st.lists(st.lists(st.integers(0, 79), min_size=1, max_size=4), max_size=60))
def test_blocks_join_every_glued_set_by_scan_or_union_find(width, sets):
    # up to 16 blocks are found by a scan, more by the union-find
    level = (1 << width) - 1
    glued = [sum(1 << v for v in {x % width for x in chunk}) for chunk in sets]
    blocks = [1 << v for v in range(width)]
    for chunk in glued:
        met = [b for b in blocks if b & chunk]
        blocks = [b for b in blocks if not b & chunk] + [sum(met)]
    assert _blocks(level, glued) == sorted(blocks, key=lambda b: b & -b)


def test_components_of_many_pieces_in_shuffled_vertex_order():
    rng = random.Random(3)
    for pieces in (5, 40, 300):
        ids = [f"v{i:04d}" for i in range(3 * pieces)]
        rng.shuffle(ids)
        colors = {v: "rs"[k % 2] for k, v in enumerate(ids)}
        arcs = [(ids[3 * p + k], ids[3 * p + (k + 1) % 2]) for p in range(pieces) for k in range(2)]
        g = ColoredDigraph(colors, arcs)
        assert connected_components(g) == reference_components(g)


def reference_components(g):
    """Components grown over out- and in-bitsets, ordered by smallest vertex."""
    comps, left = [], (1 << len(g)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.out_masks[v] | g.in_masks[v]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        comps.append(comp)
    return comps


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
    assert arc_ids(sym) == {("x", "y"), ("y", "x")}


def test_countercog_symmetric_part_is_the_path():
    sym = rbmg_of_tree(countercog_tree())
    assert edge_ids(sym) == {("u", "v"), ("v", "x"), ("w", "x")}


def test_thinness_partition_bidirectional_bipartite():
    colors = {"a": "r", "b": "r", "x": "b", "y": "b"}
    arcs = [(u, v) for u in "ab" for v in "xy"] + [(v, u) for u in "ab" for v in "xy"]
    part = thinness_partition(ColoredDigraph(colors, arcs))
    assert [class_ids(part, a) for a in range(len(part))] == [("a", "b"), ("x", "y")]


def test_thinness_partition_weird_tree_classes():
    g = bmg_of_tree(weird_tree())
    part = thinness_partition(g)
    classes = {class_ids(part, a) for a in range(len(part))}
    assert ("10", "9") in classes
    assert ("7", "8") in classes
    w = {class_ids(part, a) for a in no_in_classes(part)}
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
            same = g.out_masks[i] == g.out_masks[j] and g.in_masks[i] == g.in_masks[j]
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
    right = induced_subgraph(symmetric_part(g), chosen)
    assert left == right


@settings(max_examples=100, deadline=None)
@given(random_digraphs())
def test_components_of_induced_subgraph_partition_it(g):
    chosen = set(g.color_ids[:1])
    sub = induced_subgraph(g, chosen)
    comps = connected_components(sub)
    flat = sorted(v for comp in comps for v in bits(comp))
    assert flat == list(range(len(sub)))


def test_subgraph_on_preserves_ids():
    g = ColoredDigraph({"a": "r", "b": "b", "c": "r"}, [("a", "b"), ("b", "c")])
    sub = subgraph_on(g, 0b011)
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
            assert sub.in_masks == ColoredDigraph(colors, arcs).in_masks
            for comp in connected_components(sub):
                members = {sub.vertex_ids[i] for i in bits(comp)}
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


def in_neighborhoods(graph):
    """In-bitsets straight from the definition."""
    vertices = range(len(graph))
    return tuple(sum(1 << i for i in vertices if graph.has_arc(i, j)) for j in vertices)


def color_table(graph):
    """Colour classes straight from the definition."""
    vertices = range(len(graph))
    return tuple(sum(1 << v for v in vertices if graph.color_of[v] == t) for t in range(len(graph.color_ids)))


def shuffled_parse(graph, rng):
    """The graph read back from its text with the ``V`` lines shuffled."""
    lines = format_graph(graph).splitlines()
    vertex_lines = [line for line in lines if line.startswith("V ")]
    rng.shuffle(vertex_lines)
    return parse_graph("\n".join(vertex_lines + lines[len(vertex_lines):]) + "\n")


@settings(max_examples=80, deadline=None)
@given(random_digraphs(), st.randoms(use_true_random=False))
def test_in_masks_reverse_out_masks_however_the_graph_is_made(graph, rng):
    subset = [v for v in range(len(graph)) if rng.random() < 0.6]
    made = [
        graph,
        ColoredDigraph.from_masks(graph.colors_as_dict(), graph.out_masks),
        subgraph_on(graph, sum(1 << v for v in subset) or 1),
        parse_graph(format_graph(graph)),
    ]
    for g in made:
        assert g.in_masks == in_neighborhoods(g)
        assert g.in_masks is g.in_masks  # built once, then kept


def test_in_masks_of_a_parsed_graph_are_the_transposition_whatever_the_vertex_order():
    # shuffled V lines take the parser's renumbering path
    for seed in range(30):
        _, graph = random_scenario(seed, max_leaves=30, max_colors=5)
        parsed = shuffled_parse(graph, random.Random(seed))
        assert parsed == graph
        assert parsed.in_masks == in_neighborhoods(graph)
        assert parsed.color_masks == color_table(graph)


def test_in_masks_of_forward_graphs_are_built_on_first_read():
    for seed in range(30):
        tree, _ = random_scenario(seed, max_leaves=30, max_colors=5)
        graph = bmg_of_tree(tree)
        format_graph(graph)
        assert graph == bmg_of_tree(tree)
        assert graph._in_masks is None  # writing and comparing read out_masks only
        assert graph.in_masks == in_neighborhoods(graph)


@settings(max_examples=80, deadline=None)
@given(random_digraphs(), st.randoms(use_true_random=False))
def test_color_table_is_its_definition_however_the_graph_is_made(graph, rng):
    made = [
        graph,
        ColoredDigraph.from_masks(graph.colors_as_dict(), graph.out_masks),
        parse_graph(format_graph(graph)),
        shuffled_parse(graph, rng),
    ]
    for g in made:
        assert g.color_masks == color_table(graph)
        assert g.color_masks is g.color_masks  # built once, then kept


def test_a_from_tree_run_builds_no_view_of_its_graph(tmp_path, monkeypatch):
    # the forward path writes the graph and reads only its out-bitsets
    written, original = [], cli.write_graph

    def write_graph(graph, path):
        written.append(graph)
        original(graph, path)

    monkeypatch.setattr(cli, "write_graph", write_graph)
    for seed in range(10):
        tree, _ = random_scenario(seed, max_leaves=30, max_colors=5)
        tp = tmp_path / "t.nwk"
        write_tree(tree, str(tp), str(tp) + ".colors")
        assert cli.main(["from-tree", "--tree", str(tp), "--out", str(tmp_path / "g.txt")]) == 0
        (graph,) = written
        written.clear()
        assert (graph._in_masks, graph._color_masks) == (None, None)
        assert graph.color_masks == color_table(graph)


def test_racing_first_reads_of_in_masks_agree():
    # a view computed after construction: threads that race on its first
    # read each build an equal tuple
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(10):
            _, graph = random_scenario(seed, max_leaves=60, max_colors=5)
            expected = in_neighborhoods(graph)
            fresh = ColoredDigraph.from_masks(graph.colors_as_dict(), graph.out_masks)
            start, seen = threading.Barrier(6), []

            def read():
                start.wait(timeout=10)
                seen.append(fresh.in_masks)

            workers = [threading.Thread(target=read) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
            assert seen == [expected] * 6
            assert fresh.in_masks == expected
    finally:
        sys.setswitchinterval(old)


def _mask_of(positions) -> int:
    return sum(1 << p for p in set(positions))


def test_scan_bits_lists_the_set_bits_of_fixed_masks():
    rng = random.Random(3)
    masks = [
        0,
        1,
        1 << 9_999,
        _mask_of(rng.sample(range(10_000), 8)),
        _mask_of(rng.sample(range(10_000), 5_000)),
        (1 << 10_000) - 1,
    ]
    for width in (8, 64, 1_000, 10_000):
        # just below, at and above the density at which scan_bits switches
        switch = width // SCAN_DENSITY
        for count in (switch - 1, switch, switch + 1):
            masks.append(_mask_of(rng.sample(range(width - 1), max(count - 1, 0))) | 1 << width - 1)
    for mask in masks:
        assert list(scan_bits(mask)) == list(bits(mask))


def test_scan_bits_scans_dense_masks_and_walks_sparse_ones():
    width = 1_000
    top = 1 << width - 1
    sparse = _mask_of(range(0, width - 1, SCAN_DENSITY + 1)) | top
    dense = _mask_of(range(0, width - 1, SCAN_DENSITY)) | top
    assert sparse.bit_count() * SCAN_DENSITY < width <= dense.bit_count() * SCAN_DENSITY
    assert isinstance(scan_bits(dense), itertools.compress)
    assert not isinstance(scan_bits(sparse), itertools.compress)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=0, max_value=1 << 2_000),  # about half the bits set
        st.sets(st.integers(min_value=0, max_value=2_000), max_size=40).map(_mask_of),
    )
)
def test_scan_bits_equals_bits(mask):
    expected = [p for p in range(mask.bit_length()) if mask >> p & 1]
    assert list(scan_bits(mask)) == list(bits(mask)) == expected
