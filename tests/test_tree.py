"""Tree structure: lca, restriction, contraction, display, triples."""

import functools
import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmgraph import LeafColoredTree, ParseError, SimulationConfig, TreeError, TripleSet, build, simulate
from bmgraph import tree as tree_module
from bmgraph.graphio import parse_graph, parse_newick
from util import (
    caterpillar,
    displays,
    inner_nodes,
    is_ancestor,
    lca,
    lca_set,
    leaves_under,
    random_scenario,
    reference_layout,
    restrict,
    triple_tuples,
)

CHERRY = LeafColoredTree((("x", "y"), "z"), {"x": "r", "y": "b", "z": "b"})


def leafset(tree):
    return set(tree.leaf_labels)


def naive_lca(tree, u, v):
    """Root-path intersection, independent of the preorder ranges."""
    anc = []
    while u != -1:
        anc.append(u)
        u = tree.parent[u]
    seen = set(anc)
    while v not in seen:
        v = tree.parent[v]
    return v


def test_lca_identity_and_cherry():
    x, y, z = (CHERRY.leaf_node(l) for l in "xyz")
    assert lca(CHERRY, x, x) == x
    inner = CHERRY.parent[x]
    assert lca(CHERRY, x, y) == inner
    assert inner != CHERRY.root
    assert lca(CHERRY, x, z) == CHERRY.root
    with pytest.raises(TreeError):
        lca(CHERRY, 0, 99)
    for stray in (-1, 99):
        with pytest.raises(TreeError):
            leaves_under(CHERRY, stray)
        with pytest.raises(TreeError):
            is_ancestor(CHERRY, stray, x)


def test_lca_matches_path_walking_oracle():
    for seed in range(25):
        tree, _ = random_scenario(seed, max_leaves=20)
        nodes = list(tree.nodes())
        rng = random.Random(seed)
        for _ in range(60):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert lca(tree, u, v) == naive_lca(tree, u, v)
    rng = random.Random(5)
    for seed in range(30):
        n = rng.randint(3, 60)
        tree, _ = simulate(SimulationConfig(n, 3, seed, shape="multifurcating"))
        nodes = list(tree.nodes())
        for u in nodes:
            for v in nodes:
                assert lca(tree, u, v) == naive_lca(tree, u, v)
        for _ in range(40):
            subset = rng.sample(nodes, rng.randint(1, min(6, len(nodes))))
            expected = functools.reduce(lambda a, b: naive_lca(tree, a, b), subset)
            assert lca_set(tree, subset) == expected


def naive_depth(tree, v):
    depth = 0
    while tree.parent[v] != -1:
        v = tree.parent[v]
        depth += 1
    return depth


def right_caterpillar(n):
    """Caterpillar ``(l0,(l1,(l2,...)))``: the deep end has the largest ids."""
    names = [f"l{i:04d}" for i in range(n)]
    topology = names[-1]
    for name in reversed(names[:-1]):
        topology = (name, topology)
    return LeafColoredTree(topology, {name: f"c{i % 2}" for i, name in enumerate(names)})


@pytest.mark.parametrize("lean", ["left", "right"])
def test_lca_on_deep_caterpillars(lean):
    tree = caterpillar(1500) if lean == "left" else right_caterpillar(1500)
    nodes = list(tree.nodes())
    deepest = max(nodes, key=lambda v: naive_depth(tree, v))
    assert naive_depth(tree, deepest) == 1499
    rng = random.Random(lean)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(1500)]
    pairs += [(deepest, v) for v in nodes[::7]] + [(v, deepest) for v in nodes[::11]]
    for u, v in pairs:
        assert lca(tree, u, v) == naive_lca(tree, u, v)
    with pytest.raises(TreeError):
        lca(tree, 0, len(nodes))
    with pytest.raises(TreeError):
        lca(tree, -1, 0)


def test_single_child_root_and_degree_two_suppression():
    t = LeafColoredTree(((("x", "y"),),), {"x": "r", "y": "b"})
    assert t.newick() == "(x,y);"
    assert t.root == 0 and len(t.children[t.root]) == 2


def wrap_randomly(topology, rng):
    """``topology`` with random subtrees, the whole included, wrapped in
    one-element tuples, each up to twice."""
    if not isinstance(topology, str):
        topology = tuple(wrap_randomly(sub, rng) for sub in topology)
    for _ in range(rng.choice((0, 0, 1, 2))):
        topology = (topology,)
    return topology


def test_one_element_tuples_are_suppressed_at_any_depth():
    colors = {"a": "r", "b": "s", "c": "r"}
    for wrapped, plain in (
        (((("a", "b"),), "c"), (("a", "b"), "c")),
        (("a", (("b", "c"),)), ("a", ("b", "c"))),
    ):
        assert LeafColoredTree(wrapped, colors) == LeafColoredTree(plain, colors)
    for seed in range(200):
        tree, _ = random_scenario(seed, max_leaves=25)
        again = LeafColoredTree(wrap_randomly(tree.topology(), random.Random(seed)), tree.colors)
        assert again == tree and again.newick() == tree.newick()


WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


@pytest.mark.parametrize("char", WHITESPACE, ids=[f"U+{ord(c):04X}" for c in WHITESPACE])
def test_labels_with_whitespace_raise_as_the_readers_do(char):
    label = f"a{char}b"
    with pytest.raises(TreeError):
        LeafColoredTree((label, "c"), {label: "r", "c": "s"})
    with pytest.raises(ParseError):
        parse_newick(f"({label},c);")
    with pytest.raises(ParseError):
        parse_graph(f"V {label} r\n")


def test_restrict_identity_and_forced_cherry():
    assert restrict(CHERRY, {"x", "y", "z"}) == CHERRY
    assert restrict(CHERRY, {"x", "z"}).newick() == "(x,z);"
    with pytest.raises(TreeError):
        restrict(CHERRY, set())
    with pytest.raises(TreeError):
        restrict(CHERRY, {"nope"})


def test_restrict_composes():
    for seed in range(15):
        tree, _ = random_scenario(seed, max_leaves=18)
        rng = random.Random(seed + 1)
        labels = list(tree.leaf_labels)
        big = set(rng.sample(labels, max(2, len(labels) * 2 // 3)))
        small = set(rng.sample(sorted(big), max(1, len(big) // 2)))
        assert restrict(restrict(tree, big), small) == restrict(tree, small)


def test_restrict_keeps_exactly_inner_triples():
    for seed in range(10):
        tree, _ = random_scenario(seed, max_leaves=12)
        rng = random.Random(seed + 2)
        labels = list(tree.leaf_labels)
        sub = set(rng.sample(labels, max(1, 2 * len(labels) // 3)))
        expected = {t for t in triple_tuples(tree) if {t[0], t[1], t[2]} <= sub}
        assert triple_tuples(restrict(tree, sub)) == expected


def test_contract_nothing_and_forced_star():
    assert CHERRY.contract_edges([]) == CHERRY
    star = CHERRY.contract_edges(CHERRY.inner_edges())
    assert star.newick() == "(x,y,z);"
    leaf_edge = (CHERRY.parent[CHERRY.leaf_node("z")], CHERRY.leaf_node("z"))
    with pytest.raises(TreeError):
        CHERRY.contract_edges([leaf_edge])
    with pytest.raises(TreeError):
        CHERRY.contract_edges([(0, 57)])


def test_contract_rejects_the_root_as_a_child():
    # the root's parent entry is -1, so (-1, root) looks like an edge to a
    # bare parent lookup; the root is no edge's child
    with pytest.raises(TreeError, match="is not an edge of this tree"):
        CHERRY.contract_edges([(-1, CHERRY.root)])


def test_contract_preserves_leaves_and_phylogenetic_shape():
    for seed in range(15):
        tree, _ = random_scenario(seed, max_leaves=18)
        rng = random.Random(seed)
        chosen = [e for e in tree.inner_edges() if rng.random() < 0.5]
        smaller = tree.contract_edges(chosen)
        assert smaller.leaf_labels == tree.leaf_labels
        for v in inner_nodes(smaller):
            assert v == smaller.root or len(smaller.children[v]) >= 2


def test_contract_in_steps_equals_contract_at_once():
    for seed in range(15):
        tree, _ = random_scenario(seed, max_leaves=18)
        inner = tree.inner_edges()
        rng = random.Random(seed + 3)
        chosen = [e for e in inner if rng.random() < 0.5]
        if not chosen:
            continue
        cut = rng.randrange(len(chosen))
        first, second = chosen[:cut], chosen[cut:]
        stepwise = tree.contract_edges(first)
        # identify surviving edges by the leaf set below their lower end
        remap = {
            frozenset(stepwise.label[w] for w in leaves_under(stepwise, v)): (u, v)
            for u, v in stepwise.inner_edges()
        }
        second_mapped = [
            remap[frozenset(tree.label[w] for w in leaves_under(tree, v))]
            for _, v in second
        ]
        assert stepwise.contract_edges(second_mapped) == tree.contract_edges(chosen)


def test_displays_reflexive_and_star_cases():
    assert displays(CHERRY, CHERRY)
    star = LeafColoredTree(("x", "y", "z"), CHERRY.colors)
    assert displays(CHERRY, star) is False or triple_tuples(star) == set()
    # a star displays no proper binary resolution on >= 3 leaves
    assert not displays(star, CHERRY)
    assert displays(CHERRY, star)


def test_displays_requires_color_agreement():
    other = LeafColoredTree(("x", "y"), {"x": "b", "y": "b"})
    with pytest.raises(TreeError):
        displays(CHERRY, other)


def test_triples_of_star_and_cherry_and_caterpillar():
    star = LeafColoredTree(("x", "y", "z"), {"x": "r", "y": "b", "z": "b"})
    assert triple_tuples(star) == set()
    assert triple_tuples(CHERRY) == {("x", "y", "z")}
    cat = LeafColoredTree(
        ((("a", "b"), "c"), "d"), {"a": "r", "b": "b", "c": "r", "d": "b"}
    )
    assert triple_tuples(cat) == {
        ("a", "b", "c"),
        ("a", "b", "d"),
        ("a", "c", "d"),
        ("b", "c", "d"),
    }


def brute_triples(tree):
    """xy|z with lca(x, y) strictly below lca(x, z), by root-path walking."""
    out = set()
    for x, y, z in itertools.permutations(tree.leaf_labels, 3):
        if x > y:
            continue
        nx, ny, nz = (tree.leaf_node(lab) for lab in (x, y, z))
        low, high = naive_lca(tree, nx, ny), naive_lca(tree, nx, nz)
        if low != high and naive_lca(tree, low, high) == high:
            out.add((x, y, z))
    return out


def test_triple_tuples_equal_the_definition():
    for seed in range(150):
        tree, _ = random_scenario(seed, max_leaves=9)
        assert triple_tuples(tree) == brute_triples(tree)


def test_triples_match_distinguished_edges():
    for seed in range(10):
        tree, _ = random_scenario(seed, max_leaves=10)
        trips = triple_tuples(tree)
        for u, v in tree.inner_edges():
            below = [tree.label[w] for w in leaves_under(tree, v)]
            above = [
                tree.label[w]
                for w in leaves_under(tree, u)
                if tree.label[w] not in set(below)
            ]
            for x in below:
                for y in below:
                    if x < y:
                        for z in above:
                            nx, ny, nz = (tree.leaf_node(l) for l in (x, y, z))
                            if lca(tree, nx, ny) == v and lca_set(tree, (nx, ny, nz)) == u:
                                assert (x, y, z) in trips


def test_build_reconstructs_trees_from_their_triples():
    for seed in range(40):
        tree, _ = random_scenario(seed, max_leaves=11)
        topo = build(TripleSet.of(tree.leaf_labels, triple_tuples(tree)), tree.leaf_labels)
        assert topo is not None
        assert LeafColoredTree(topo, tree.colors) == tree


def test_newick_round_trip():
    for seed in range(20):
        tree, _ = random_scenario(seed, max_leaves=15)
        again = LeafColoredTree(parse_newick(tree.newick()), tree.colors)
        assert again == tree


def test_deep_trees_compare_and_hash():
    from util import caterpillar

    deep = caterpillar(1500)
    same = LeafColoredTree(deep.topology(), dict(deep.colors))
    assert deep == same and hash(deep) == hash(same)
    recolored = LeafColoredTree(deep.topology(), {lab: "c0" for lab in deep.leaf_labels})
    assert deep != recolored
    reshaped = deep.contract_edges([deep.inner_edges()[-1]])
    assert deep != reshaped and len({deep, same, reshaped}) == 2


# leaves of drawn topologies: legal labels, repeats of them, labels no
# reader reads back, and elements that are no topology at all
faulty_leaves = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.sampled_from(["a b", "a#", "", "(", "x;", "\x85", "b\u3000"]),
    st.sampled_from([3, None, b"a", ["a"]]),
)
faulty_topologies = st.recursive(
    faulty_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4).map(tuple), kids.map(lambda k: (k,))),
    max_leaves=14,
)


def layout_or_error(layout, topology):
    try:
        return layout(topology)
    except TreeError as exc:
        return str(exc)


@settings(max_examples=600, deadline=None)
@given(faulty_topologies)
@example(("a b", "a b"))  # one leaf both illegal and a repeat: illegal wins
@example((("a", "a"), ()))  # a repeat allocated before an empty inner node
@example(((), ("a", "a")))  # an empty inner node allocated before a repeat
@example(("a", ("a b", 3), "a"))  # bad element, illegal label and repeat, all in one group
@example(("a", ("b", ("c",)), "d"))
def test_layout_equals_the_checking_walk(topology):
    # the walk allocates the last element of a tuple first, so the first
    # fault the reference meets may sit anywhere in the drawn text order
    assert layout_or_error(tree_module._layout, topology) == layout_or_error(reference_layout, topology)


@pytest.mark.parametrize("seed", range(6))
def test_layout_equals_the_checking_walk_on_simulated_trees(seed):
    tree, _ = simulate(SimulationConfig(300 + 200 * seed, 2 + seed, seed))
    topology = wrap_randomly(tree.topology(), random.Random(seed))
    assert tree_module._layout(topology) == reference_layout(topology)
