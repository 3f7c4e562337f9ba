"""Parser fuzzing: only ``ParseError`` escapes, and formatting round-trips."""

import contextlib
import io
import itertools
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmgraph import (
    BmgraphError,
    ColoredDigraph,
    GraphError,
    LeafColoredTree,
    ParseError,
    SimulationConfig,
    TreeError,
    bmg_of_tree,
    bmg_oracle,
    simulate,
)
from bmgraph import cli, graphio
from bmgraph import tree as tree_module
from bmgraph.graphio import (
    format_color_map,
    format_graph,
    parse_color_map,
    parse_graph,
    parse_newick,
    read_tree,
    write_tree,
)
from util import caterpillar, reference_format_graph, reference_parse_newick

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
@example("a\tred one\n")  # "V a red one" in a graph file would not read back
def test_parse_color_map_raises_only_parse_error(text):
    colors = parse_or_none(parse_color_map, text)
    if colors is not None:
        assert all(tok.split() == [tok] for item in colors.items() for tok in item)
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



@st.composite
def interleaved_graph_texts(draw):
    """A valid graph file whose V and A lines interleave, each vertex
    declared before an arc uses it, with the colours and arcs it declares."""
    ids = draw(st.lists(tokens, min_size=1, max_size=8, unique=True))
    colors = {v: draw(tokens) for v in ids}
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    arcs = draw(st.lists(pairs, max_size=20, unique=True)) if len(ids) > 1 else []
    after: dict[int, list[str]] = {}
    for a, b in arcs:
        earliest = max(ids.index(a), ids.index(b))
        slot = draw(st.integers(min_value=earliest, max_value=len(ids) - 1))
        after.setdefault(slot, []).append(f"A {a} {b}")
    lines = []
    for k, v in enumerate(ids):
        lines.append(f"V {v} {colors[v]}" + draw(st.sampled_from(["", " # note", "  "])))
        lines.extend(after.get(k, []))
    return "\n".join(lines) + "\n", colors, arcs


@ROUND_TRIP
@given(interleaved_graph_texts())
def test_parse_graph_equals_the_declared_graph(drawn):
    text, colors, arcs = drawn
    assert parse_graph(text) == ColoredDigraph(colors, arcs)


# ids below " " and ids that are prefixes of one another, where sorting the
# sources by id alone would not give the order of the whole ``A`` lines
awkward_ids = st.one_of(
    st.sampled_from(["a", "a\x01", "a!", "ab", "b", "\x01", "!"]),
    st.text(alphabet="ab!\x01\x02-", min_size=1, max_size=3),
    tokens,
)


@st.composite
def awkward_graphs(draw):
    ids = draw(st.lists(awkward_ids, min_size=1, max_size=10, unique=True))
    colors = {v: draw(st.sampled_from("rst")) for v in ids}
    pairs = [(a, b) for a in ids for b in ids if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    return ColoredDigraph(colors, arcs)


@FUZZ
@given(awkward_graphs())
@example(
    ColoredDigraph(
        {v: "r" for v in ("a", "a\x01", "a!", "ab")},
        [("a", "ab"), ("a\x01", "a"), ("a!", "a"), ("ab", "a")],
    )
)
def test_format_graph_equals_one_sort_of_all_lines(graph):
    assert format_graph(graph) == reference_format_graph(graph)


@pytest.mark.parametrize("leaves, colors", [(1000, 20), (2500, 4)])
def test_format_graph_equals_one_sort_of_all_lines_on_simulated_graphs(leaves, colors):
    _, graph = simulate(SimulationConfig(leaves, colors, leaves + colors))
    assert format_graph(graph) == reference_format_graph(graph)


# blanks ``str.split`` splits on, so that an id holding one reads as two tokens
SPLITTING = "\x1c\x85\xa0 "
MUTATIONS = (
    "as written", "repeated line", "self-loop", "undeclared endpoint", "V line after the arcs",
    "unsorted V lines", "id holding (", "double space", "trailing space", "tab",
    "split id", "CRLF", "no final line end", "# note",
)


@st.composite
def layout_mutations(draw):
    """``format_graph`` text of a drawn graph, as written or with one
    mutation that takes it out of the writer's layout or makes it invalid."""
    graph = draw(awkward_graphs())
    ids = graph.vertex_ids
    lines = format_graph(graph)[:-1].split("\n")  # the V lines come first
    k = draw(st.integers(0, len(lines) - 1))
    v, w = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    fields = lines[k].split(" ")
    arc_at = draw(st.integers(len(ids), len(lines)))
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "repeated line":
        lines.insert(k, lines[k])
    elif mutation == "self-loop":
        lines.insert(arc_at, f"A {v} {v}")
    elif mutation == "undeclared endpoint":
        lines.insert(arc_at, f"A {v} {draw(awkward_ids.filter(lambda u: u not in ids))}")
    elif mutation == "V line after the arcs":
        lines.append(lines.pop(ids.index(v)))
    elif mutation == "unsorted V lines":
        i, j = ids.index(v), ids.index(w)
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "id holding (":
        lines[k] = " ".join([fields[0], fields[1] + "(", fields[2]])
    elif mutation == "double space":
        lines[k] = lines[k].replace(" ", "  ", 1)
    elif mutation == "trailing space":
        lines[k] += " "
    elif mutation == "tab":
        lines[k] = lines[k].replace(" ", "\t", 1)
    elif mutation == "split id":
        at = draw(st.integers(0, len(fields[1])))
        fields[1] = fields[1][:at] + draw(st.sampled_from(SPLITTING)) + fields[1][at:]
        lines[k] = " ".join(fields)
    elif mutation == "# note":
        lines[k] += draw(st.sampled_from([" # note", "#note"]))
    text = "\n".join(lines) + "\n"
    if mutation == "CRLF":
        return text.replace("\n", "\r\n")
    return text[:-1] if mutation == "no final line end" else text


def graph_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@FUZZ
@given(st.one_of(layout_mutations(), texts))
@example("V 0 0\n")  # no arc follows the V lines
@example("V x red\nV x blue\n")  # a repeated id, whose second colour would replace the first
@example("V a( r\n")  # an id no Newick label can be, with no arc to check it at
@example("A b a\nV a r\nV b a\n")  # an arc before the vertices, of three fields as they are
@example("A x y w\nA z\n")  # arcs of three and one field, which split into pairs again
@example("V x r\nV y s\nV w r\nV z s\nA x y w\nA z\n")
@example("V A r\nV b s\nA A b\nA b A\n")  # ids spelled like the record types, read in bulk
@example("V V r\nV b s\nA V b\nA b V\n")
@example("V a r\nV b s\nA a b\nA b a")  # the last arc line with no line end
@example("V a r\nV b s\nA a\tb\n")  # blanks other than one space inside an A line
@example("V a r\nV b s\nA a b\r\n")
@example("V a r\nV b s\nA a\x85b\n")
@example("V a r\nV b s\nA a\xa0b\n")
@example("V a r\nV b s\nA a\u3000b\n")
@example("V a r\nV b s\nA a b\nV c r\nA b a\n")  # a V line after the first A line
def test_parse_graph_equals_the_line_reader(text):
    assert graph_or_error(parse_graph, text) == graph_or_error(graphio._parse_lines, text)


def blocks(text):
    """The blocks of the bulk path: the ``V`` lines, then the ``A`` lines from
    the first ``\\nA `` on, each cut at the first line end after each
    ``graphio._BLOCK`` characters."""
    arcs = text.find("\nA ") + 1 or len(text)
    for start, stop in ((0, arcs), (arcs, len(text))):
        while start < stop:
            end = text.find("\n", start + graphio._BLOCK, stop) + 1 or stop
            yield text[start:end]
            start = end


def test_the_writer_layout_is_read_in_bulk(monkeypatch):
    caterpillar_graph = bmg_of_tree(caterpillar(300, 2))
    text = format_graph(caterpillar_graph)
    parts = list(blocks(text))
    assert len(parts) > 10
    # the V lines fit one block, so the first block of arcs is the second block
    assert parts[0].startswith("V ") and parts[1].startswith("A ") and "\nA " not in parts[0]
    last_lines = [part[:-1].rsplit("\n", 1)[-1] for part in parts]
    # the arcs of some source run on from one block into the next
    assert any(
        last.startswith("A ") and last.split(" ")[:2] == part.split(" ")[:2]
        for last, part in zip(last_lines, parts[1:])
    )
    # an arc repeated across a cut is a repeated arc, not a new run
    cut = len(parts[0]) + len(parts[1])
    repeated = text[:cut] + last_lines[1] + "\n" + text[cut:]
    assert graphio._parse_layout(repeated) is None
    with pytest.raises(ParseError, match="duplicate arc"):
        parse_graph(repeated)
    # a vertex declared after the arcs of an earlier block is valid, but read line by line
    late = text[:cut] + "V zz c0\n" + text[cut:]
    assert graphio._parse_layout(late) is None
    assert parse_graph(late).vertex_ids[-1] == "zz"

    def no_line_reader(text):
        raise AssertionError("the bulk path gave up on the writer's layout")

    monkeypatch.setattr(graphio, "_parse_lines", no_line_reader)
    graphs = [
        simulate(SimulationConfig(60, 4, 1))[1],
        ColoredDigraph({"b": "r", "a": "s", "c": "r"}),
        ColoredDigraph({"A": "r", "V": "s", "b": "r"}, [("A", "V"), ("V", "A"), ("b", "V")]),
        caterpillar_graph,
    ]
    for graph in graphs:
        assert parse_graph(format_graph(graph)) == graph


@pytest.mark.parametrize("leaves", [60, 400])
def test_format_graph_equals_one_sort_of_all_lines_on_dense_caterpillars(leaves):
    # a two-colour caterpillar's out-bitsets are dense, so the writer walks
    # them by their nonzero bytes: one set bit or more per 64 of the width
    graph = bmg_of_tree(caterpillar(leaves, 2))
    assert any(out.bit_count() * 64 >= out.bit_length() > 0 for out in graph.out_masks)
    assert format_graph(graph) == reference_format_graph(graph)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: LeafColoredTree(("a", "b"), {"a": "r#1", "b": "s"}), TreeError),
        (lambda: LeafColoredTree(("a", "b"), {"a": "red one", "b": "x"}), TreeError),
        (lambda: LeafColoredTree(("a", "b"), {"a": "", "b": "x"}), TreeError),
        (lambda: ColoredDigraph({"a b": "r", "c": "s"}), GraphError),
        (lambda: ColoredDigraph({"a": "r", "b": ""}), GraphError),
        (lambda: ColoredDigraph({"a": "r#1", "b": "s"}, [("a", "b")]), GraphError),
        (lambda: ColoredDigraph({"a": "red one", "b": "s"}), GraphError),
        (lambda: ColoredDigraph({"a(": "r", "b": "s"}), GraphError),
        (lambda: ColoredDigraph({"a": "r", "": "s"}), GraphError),
    ],
)
def test_constructors_reject_tokens_the_readers_cannot_read_back(make, error):
    with pytest.raises(error):
        make()


# ids and colours as a caller may hand them over: mostly readable tokens,
# some with blanks, ``#`` or Newick syntax, and the empty string
handed_tokens = st.one_of(
    st.sampled_from(["a", "b", "ab", "r", "s", "(", "r#1", "", "a b"]),
    tokens,
    st.text(alphabet="ab #\t\n();,\x85\u3000", max_size=3),
)


index_pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10)


@ROUND_TRIP
@given(st.dictionaries(handed_tokens, handed_tokens, min_size=1, max_size=6), index_pairs)
@example({"a": "r", "b": "s"}, [(0, 1), (1, 0)])
def test_graphs_the_constructor_accepts_read_back_equal(colors, pairs):
    ids = sorted(colors)
    arcs = {(ids[i % len(ids)], ids[j % len(ids)]) for i, j in pairs if i % len(ids) != j % len(ids)}
    try:
        graph = ColoredDigraph(colors, arcs)
    except GraphError:
        return
    assert parse_graph(format_graph(graph)) == graph


@ROUND_TRIP
@given(
    st.lists(handed_tokens, min_size=1, max_size=6, unique=True),
    st.lists(handed_tokens, min_size=6, max_size=6),
)
@example(["a", "b"], ["r", "s"] * 3)
def test_trees_the_constructor_accepts_read_back_equal(labels, palette):
    colors = dict(zip(labels, palette))
    topology = labels[0]
    for x in labels[1:]:  # a caterpillar
        topology = (topology, x)
    try:
        tree = LeafColoredTree(topology, colors)
    except TreeError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        tp, cp = os.path.join(tmp, "t.nwk"), os.path.join(tmp, "t.nwk.colors")
        write_tree(tree, tp, cp)
        assert read_tree(tp, cp) == tree


def result_or_error(parse, text):
    """What ``parse`` makes of ``text``: its result, or the text, line and
    column of its ``ParseError``."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


# blanks, including ones ``str.splitlines`` breaks lines at and ones only
# ``str.isspace`` knows
BLANKS = st.sampled_from([" ", "\t", "\n", "  ", "\x1c", "\x85", "\xa0", "\u3000"])
NEWICK_MUTATIONS = (
    "as written", "blank after (", "blank after ,", "blank after )", "blank inside a label",
    "# after )", "# inside a label", "content after ;", "no ;", "()",
)


@st.composite
def newick_mutations(draw):
    """``newick()`` text of a drawn tree, as written or with one mutation,
    most of which make it invalid."""
    return mutated_newick(draw, draw(trees()).newick())


def mutated_newick(draw, text):
    """``text`` as written or with one drawn mutation of ``NEWICK_MUTATIONS``."""
    mutation = draw(st.sampled_from(NEWICK_MUTATIONS))
    punct = {"blank after (": "(", "blank after ,": ",", "blank after )": ")", "# after )": ")"}
    if mutation in punct:
        spots = [k + 1 for k, ch in enumerate(text) if ch == punct[mutation]]
        insert = "#" if mutation == "# after )" else draw(BLANKS)
    elif mutation in ("blank inside a label", "# inside a label"):
        spots = [k for k in range(1, len(text)) if text[k - 1] not in "(),;" and text[k] not in "(),;"]
        insert = "#" if mutation == "# inside a label" else draw(BLANKS)
    elif mutation == "content after ;":
        spots, insert = [len(text)], draw(BLANKS) + draw(st.sampled_from(["a", "(", ";", "#"]))
    elif mutation == "no ;":
        return text[:-1]
    elif mutation == "()":
        spots = [k for k, ch in enumerate(text) if ch in "(,"]
        insert = draw(st.sampled_from(["()", "(),", ",()"]))
    else:
        return text
    if not spots:
        return text
    at = draw(st.sampled_from(spots))
    return text[:at] + insert + text[at:]


@FUZZ
@given(st.one_of(newick_mutations(), texts))
@example("(a,b) ;")
@example("(a,b)#c;")  # '#' right after ')': the '#' error, not a label after ')'
@example("(a,b)c#;")
@example("(a,b#c);")  # '#' inside a label, at its own column
@example("(a,b); (c")  # content after ';' wins over the rest
@example("(a b,c);")
@example("(a,b")
@example("();")
@example(";")
def test_parse_newick_equals_the_char_reader(text):
    assert result_or_error(parse_newick, text) == result_or_error(reference_parse_newick, text)


COLOR_MUTATIONS = (
    "as written", "CRLF", "second tab", "trailing blank", "# comment", "empty field",
    "repeated leaf", "blank line", "no final line end",
)


@st.composite
def color_map_mutations(draw):
    """``format_color_map`` text of a drawn map, as written or with one
    line mutated."""
    return mutated_color_map(draw, draw(st.dictionaries(tokens, tokens, min_size=1, max_size=8)))


def mutated_color_map(draw, colors):
    """``format_color_map(colors)`` with one line mutated as drawn from
    ``COLOR_MUTATIONS``."""
    lines = format_color_map(colors).splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    leaf, color = lines[k][:-1].split("\t")
    mutation = draw(st.sampled_from(COLOR_MUTATIONS))
    if mutation == "CRLF":
        lines[k] = lines[k][:-1] + "\r\n"
    elif mutation == "second tab":
        lines[k] = f"{leaf}\t{color}\textra\n" if draw(st.booleans()) else f"{leaf}\t\t{color}\n"
    elif mutation == "trailing blank":
        lines[k] = f"{leaf}\t{color}{draw(BLANKS)}\n"
    elif mutation == "# comment":
        lines[k] = draw(st.sampled_from([f"{leaf}\t{color} # note\n", f"{leaf}\t{color}#note\n", "# a comment\n"]))
    elif mutation == "empty field":
        lines[k] = draw(st.sampled_from([f"{leaf}\t\n", f"\t{color}\n"]))
    elif mutation == "repeated leaf":
        lines.insert(k, f"{leaf}\t{draw(tokens)}\n")
    elif mutation == "blank line":
        lines.insert(k, draw(st.sampled_from(["\n", " \n", "\t\n"])))
    elif mutation == "no final line end":
        lines[-1] = lines[-1][:-1]
    return "".join(lines)


@FUZZ
@given(st.one_of(color_map_mutations(), texts))
@example("")
@example("\n")
@example("a\tr\nb\tr")  # no final line end
@example("a\tr\na\ts\n")
@example("a\tr#note\n")  # a comment glued to the colour
def test_parse_color_map_equals_the_line_reader(text):
    colors = result_or_error(parse_color_map, text)
    expected = result_or_error(graphio._parse_color_lines, text)
    if isinstance(expected, dict):
        assert list(colors.items()) == list(expected.items())
    else:
        assert colors == expected


def boundary_masks(n):
    """Out-bitsets over ``n`` vertices, none with a loop: bits at the byte
    and word edges, and k bits spread up to bit n - 1 for k just below the
    switch to the byte walk (one set bit per 64 of the width), at it, and in
    the dense band."""
    masks = [sum(1 << p for p in {0, 7, 8, 63, 64, n - 1} if p < n)]
    for k in ((n - 1) // 64, (n + 63) // 64, n // 8, n // 2, n):
        if k:
            masks.append(sum(1 << (n - 1 - j * n // k) for j in range(k)))
    return [mask & ~(1 << v) for v, mask in zip(range(n), itertools.cycle(masks))]


@pytest.mark.parametrize("n", [*range(1, 131), 2500])
def test_format_graph_equals_one_sort_of_all_lines_at_byte_and_word_edges(n):
    ids = [f"v{k:04d}" for k in range(n)]
    masks = boundary_masks(n)
    if n > 64:  # masks on both sides of the switch
        assert any(0 < mask.bit_count() * 64 < mask.bit_length() for mask in masks)
        assert any(mask.bit_count() * 64 >= mask.bit_length() > 64 for mask in masks)
    graph = ColoredDigraph.from_masks({v: f"c{k % 3}" for k, v in enumerate(ids)}, masks)
    assert format_graph(graph) == reference_format_graph(graph)


def test_from_tree_takes_the_bulk_paths(tmp_path, monkeypatch):
    def no_slow_path(*args):
        raise AssertionError("a bulk path gave up on the writer's layout")

    monkeypatch.setattr(graphio, "_parse_color_lines", no_slow_path)
    monkeypatch.setattr(tree_module, "_raise_first_fault", no_slow_path)
    for leaves, colors, seed in [(60, 4, 1), (1000, 20, 2), (2500, 4, 3)]:
        tree, _ = simulate(SimulationConfig(leaves, colors, seed))
        nwk, out = tmp_path / f"{seed}.nwk", tmp_path / f"{seed}.graph"
        write_tree(tree, str(nwk), str(nwk) + ".colors")
        assert cli.main(["from-tree", "--tree", str(nwk), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == reference_format_graph(bmg_of_tree(tree))


FROM_TREE_MUTATIONS = ("newick", "colour map", "repeated leaf", "missing leaf", "extra leaf")


@st.composite
def from_tree_inputs(draw):
    """The Newick text and colour sidecar of a drawn tree, one of them
    mutated: a mutation of either text, a leaf label written twice in the
    Newick text, or a leaf dropped from or added to the sidecar."""
    tree = draw(trees())
    newick, colors = tree.newick(), dict(tree.colors)
    mutation = draw(st.sampled_from(FROM_TREE_MUTATIONS))
    if mutation == "newick":
        newick = mutated_newick(draw, newick)
    elif mutation == "repeated leaf" and len(colors) > 1:
        a, b = draw(st.permutations(sorted(colors)))[:2]
        parts = re.split(r"([(),;])", newick)
        parts[parts.index(b)] = a
        newick = "".join(parts)
    elif mutation == "missing leaf":
        del colors[draw(st.sampled_from(sorted(colors)))]
    elif mutation == "extra leaf":
        colors[draw(tokens.filter(lambda t: t not in colors))] = draw(tokens)
    return newick, mutated_color_map(draw, colors) if mutation == "colour map" else format_color_map(colors)


def reference_from_tree(newick, sidecar):
    """Exit code, stderr and output text of ``from-tree`` on these file
    texts, from the character reader of Newick, the line reader of sidecars,
    the definition-level graph and the one-sort writer."""
    try:
        topology = reference_parse_newick(newick)
        colors = graphio._parse_color_lines(sidecar)
        tree = LeafColoredTree(topology, colors)
        if len(tree.colors) != len(colors):
            raise ParseError(f"color map lists unknown leaves: {sorted(colors.keys() - tree.colors.keys())}", None)
    except BmgraphError as exc:
        return 2, f"error: {exc}\n", None
    return 0, "", reference_format_graph(bmg_oracle(tree))


@FUZZ
@given(st.one_of(from_tree_inputs(), st.tuples(texts, texts)))
@example(("(a,b,a,b);", "a\tr\nb\ts\n"))  # the tuple walk meets the leaves right to left: 'b' repeats first
@example(("((a,(b,c)),(c,a));", "a\tr\nb\ts\nc\tr\n"))
@example(("(((a,b)));", "a\tr\nb\ts\n"))
@example(("a;", "a\tr\n"))
@example(("(a);", "a\tr\n"))
@example(("((a,b),c);", "a\tr\nc\ts\n"))  # a leaf missing from the sidecar
@example(("((a,b),c);", "a\tr\nb\ts\nc\tr\nd\ts\n"))  # a leaf the tree does not have
@example(("(a,b;", "a\tr\na\ts\n"))  # the Newick error comes before the sidecar's
def test_from_tree_equals_the_reference_readers_and_writer(files):
    newick, sidecar = files
    with tempfile.TemporaryDirectory() as tmp:
        tp, cp, out = (os.path.join(tmp, name) for name in ("t.nwk", "t.colors", "g.txt"))
        for path, text in ((tp, newick), (cp, sidecar)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        with open(tp, encoding="utf-8") as fh, open(cp, encoding="utf-8") as fc:
            expected = reference_from_tree(fh.read(), fc.read())  # the texts as read, line ends translated
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["from-tree", "--tree", tp, "--color-map", cp, "--out", out])
        written = None
        if os.path.exists(out):
            with open(out, "rb") as fo:
                written = fo.read().decode("utf-8")
    assert (code, err.getvalue(), written) == expected
