"""Parser fuzzing: only ``ParseError`` escapes, and formatting round-trips."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmgraph import LeafColoredTree, ParseError, TreeError
from bmgraph.graphio import (
    format_color_map,
    format_graph,
    parse_color_map,
    parse_graph,
    parse_newick,
)

# characters the three formats give meaning to, plus line breaks and blanks
# that ``str.splitlines`` / ``str.split`` treat specially
SPECIAL = "VA ab#\t\n\r();,:\x0b\x0c\x1c\x85\xa0\u2028\u3000"
texts = st.one_of(st.text(), st.text(alphabet=SPECIAL), st.text(alphabet="VAxyrb #\t\n"))

# whitespace-free tokens that carry no format syntax
tokens = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), blacklist_characters="();,#"
    ),
    min_size=1,
    max_size=4,
)

FUZZ = settings(max_examples=300, deadline=None)
ROUND_TRIP = settings(max_examples=120, deadline=None)


def one_color(topology):
    """Color map that gives every leaf of ``topology`` the same color."""
    colors, work = {}, [topology]
    while work:
        item = work.pop()
        if isinstance(item, str):
            colors[item] = "c"
        else:
            work.extend(item)
    return colors


def parse_or_none(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


@FUZZ
@given(texts)
@example("V a b\nA a a\n")
@example("A a b\n")
def test_parse_graph_raises_only_parse_error(text):
    graph = parse_or_none(parse_graph, text)
    if graph is not None:
        out = format_graph(graph)
        assert format_graph(parse_graph(out)) == out


@FUZZ
@given(texts)
@example("((a,b),c)")
@example("(a,(b));")
def test_parse_newick_raises_only_parse_error(text):
    topology = parse_or_none(parse_newick, text)
    if topology is None:
        return
    try:
        tree = LeafColoredTree(topology, one_color(topology))
    except TreeError:  # duplicate leaves are the tree's to reject
        return
    assert LeafColoredTree(parse_newick(tree.newick()), tree.colors) == tree


@FUZZ
@given(texts)
@example(" \tred\n")  # a blank leaf is no leaf: as "" it would not read back
@example("a\t \n")
def test_parse_color_map_raises_only_parse_error(text):
    colors = parse_or_none(parse_color_map, text)
    if colors is not None:
        assert parse_color_map(format_color_map(colors)) == colors


@st.composite
def graph_texts(draw):
    ids = draw(st.lists(tokens, min_size=1, max_size=8, unique=True))
    colors = {v: draw(tokens) for v in ids}
    arcs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    lines = [f"V {v} {c}" for v, c in colors.items()]
    lines += sorted({f"A {a} {b}" for a, b in arcs if a != b})
    return "\n".join(lines) + "\n"


@ROUND_TRIP
@given(graph_texts())
def test_graph_format_parse_format_is_identical(text):
    out = format_graph(parse_graph(text))
    assert format_graph(parse_graph(out)) == out


@st.composite
def trees(draw):
    leaves = draw(st.lists(tokens, min_size=1, max_size=10, unique=True))
    parts = list(leaves)
    while len(parts) > 1:
        k = draw(st.integers(min_value=2, max_value=len(parts)))
        start = draw(st.integers(min_value=0, max_value=len(parts) - k))
        parts[start : start + k] = [tuple(parts[start : start + k])]
    return LeafColoredTree(parts[0], {lab: draw(tokens) for lab in leaves})


@ROUND_TRIP
@given(trees())
def test_newick_format_parse_format_is_identical(tree):
    text = tree.newick()
    assert LeafColoredTree(parse_newick(text), tree.colors).newick() == text


@ROUND_TRIP
@given(st.dictionaries(tokens, tokens, max_size=10))
def test_color_map_format_parse_format_is_identical(colors):
    text = format_color_map(colors)
    assert parse_color_map(text) == colors
    assert format_color_map(parse_color_map(text)) == text

