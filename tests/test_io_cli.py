"""File formats and the command-line surface."""

import pytest

from bmgraph import ParseError, bmg_of_tree
from bmgraph.cli import main
from bmgraph.graphio import (
    format_dot,
    format_graph,
    parse_graph,
    parse_newick,
    read_graph,
    read_tree,
    write_graph,
    write_tree,
)
from cases import counter_triples_graph, gate_mismatch_graph, smallest_counterexample
from util import arc_ids, random_scenario

GRAPH_TEXT = """# two mutual best matches
V x red
V y blue
A x y
A y x
"""


def test_parse_and_format_round_trip():
    g = parse_graph(GRAPH_TEXT)
    assert arc_ids(g) == {("x", "y"), ("y", "x")}
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "V x red\nV x blue\n",
        "A x y\n",
        "V x red\nV y blue\nA x y\nA x y\n",
        "V x red\nA x x\n",
        "V x red extra\n",
        "Q x\n",
    ],
)
def test_bad_graph_files_raise(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_arc_before_declaration_rejected():
    with pytest.raises(ParseError):
        parse_graph("V x red\nA x y\nV y blue\n")


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("V x\n", "V line needs exactly: V <id> <color>", 1),
        ("V x red\nV x blue\n", "duplicate vertex 'x'", 2),
        ("V x red\nV y blue\nA x\n", "A line needs exactly: A <src> <dst>", 3),
        ("V x red\nV y blue\nA x z\n", "arc endpoint not declared yet: x -> z", 3),
        ("V x red\nA x y\nV y blue\n", "arc endpoint not declared yet: x -> y", 2),
        ("V x red\nA x x\n", "self-loop on 'x'", 2),
        ("V x red\nV y blue\nA x y\nA y x\nA x y\n", "duplicate arc x -> y", 5),
        ("V x red\nQ x\n", "unknown record type 'Q'", 2),
        ("# nothing\n\n", "graph file declares no vertices", None),
        ("", "graph file declares no vertices", None),
        # several errors: the first failing line wins, and within a line the
        # arity check comes before the endpoint, loop and duplicate checks
        ("V x red\nA x x\nQ\nV x blue\n", "self-loop on 'x'", 2),
        ("V x red\nV y b\nA x y\nA x y z\nA x y\n", "A line needs exactly: A <src> <dst>", 4),
        ("V x red\nA y y\n", "arc endpoint not declared yet: y -> y", 2),
        ("V x red extra\nV x blue\n", "V line needs exactly: V <id> <color>", 1),
    ],
)
def test_graph_parse_errors_name_message_and_line(text, message, line):
    with pytest.raises(ParseError) as caught:
        parse_graph(text)
    assert caught.value.line == line
    assert caught.value.column is None
    assert str(caught.value) == message + ("" if line is None else f" (line {line})")


def test_newick_parsing():
    assert parse_newick("((x,y),z);") == (("x", "y"), "z")
    assert parse_newick(" (a, (b , c)) ; ".replace(" ", "")) == ("a", ("b", "c"))
    for bad in ["", "(x,y)", "((x,y);", "(x,,y);", "(x,y));", "(x y);", "(x,y); junk"]:
        with pytest.raises(ParseError):
            parse_newick(bad)


def test_tree_files_round_trip(tmp_path):
    tree, _ = random_scenario(7, max_leaves=12)
    tp, cp = str(tmp_path / "t.nwk"), str(tmp_path / "t.nwk.colors")
    write_tree(tree, tp, cp)
    assert read_tree(tp, cp) == tree
    # sidecar must be total and exact
    (tmp_path / "t.nwk.colors").write_text("v01\tred\n")
    with pytest.raises(ParseError):
        read_tree(tp, cp)


def test_dot_output_merges_bidirectional_pairs():
    g = parse_graph(GRAPH_TEXT)
    dot = format_dot(g)
    assert dot.count("->") == 1
    assert "[dir=none]" in dot


def run(args):
    return main(args)


def test_cli_from_tree_fixed_outputs(tmp_path):
    tp, cp = str(tmp_path / "two.nwk"), str(tmp_path / "two.nwk.colors")
    (tmp_path / "two.nwk").write_text("(x,y);\n")
    (tmp_path / "two.nwk.colors").write_text("x\tred\ny\tblue\n")
    gp = str(tmp_path / "two.g")
    assert run(["from-tree", "--tree", tp, "--color-map", cp, "--out", gp]) == 0
    assert (tmp_path / "two.g").read_text() == "V x red\nV y blue\nA x y\nA y x\n"

    (tmp_path / "star.nwk").write_text("(x,y,z);\n")
    (tmp_path / "star.nwk.colors").write_text("x\tred\ny\tblue\nz\tblue\n")
    sp = str(tmp_path / "star.g")
    assert run(["from-tree", "--tree", str(tmp_path / "star.nwk"), "--out", sp]) == 0
    arcs = [l for l in (tmp_path / "star.g").read_text().splitlines() if l.startswith("A")]
    assert len(arcs) == 4


def test_cli_from_tree_and_recognize_round_trip(tmp_path, capsys):
    tree, graph = random_scenario(9, max_leaves=14)
    tp, cp = str(tmp_path / "t.nwk"), str(tmp_path / "t.nwk.colors")
    write_tree(tree, tp, cp)
    gp = str(tmp_path / "g.txt")
    assert run(["from-tree", "--tree", tp, "--out", gp]) == 0
    assert read_graph(gp) == graph
    lrt_path = str(tmp_path / "lrt.nwk")
    assert run(["recognize", "--graph", gp, "--emit-lrt", lrt_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ACCEPT") or "ACCEPT" in out
    lrt = read_tree(lrt_path, lrt_path + ".colors")
    assert bmg_of_tree(lrt) == graph


def test_cli_recognize_rejects_with_stage(tmp_path, capsys):
    gp = str(tmp_path / "bad.txt")
    write_graph(smallest_counterexample(), gp)
    assert run(["recognize", "--graph", gp]) == 1
    err = capsys.readouterr().err
    assert err.startswith("REJECT 2cbmg-failure")
    assert run(["lrt", "--graph", gp, "--out-tree", str(tmp_path / "no.nwk")]) == 1


def test_cli_recognize_direct_route(tmp_path, capsys):
    gp = str(tmp_path / "ct.txt")
    write_graph(counter_triples_graph(), gp)
    assert run(["recognize", "--graph", gp, "--route", "direct"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("REJECT")


def test_cli_exit_2_on_malformed_input(tmp_path, capsys):
    gp = tmp_path / "empty.txt"
    gp.write_text("# nothing\n")
    assert run(["recognize", "--graph", str(gp)]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["recognize", "--graph", str(tmp_path / "missing.txt")]) == 2


def test_cli_recognize_emits_dot(tmp_path, capsys):
    tree, graph = random_scenario(12, max_leaves=8)
    gp = str(tmp_path / "g.txt")
    write_graph(graph, gp)
    dp = str(tmp_path / "g.dot")
    assert run(["recognize", "--graph", gp, "--emit-dot", dp]) == 0
    text = (tmp_path / "g.dot").read_text()
    assert text.startswith("digraph") and text == format_dot(graph)


def test_cli_simulate_one_color_warns(tmp_path, capsys):
    gp = str(tmp_path / "one.g")
    assert run(["simulate", "--leaves", "5", "--colors", "1", "--seed", "2",
                "--out-graph", gp]) == 0
    assert "warning" in capsys.readouterr().err
    assert run(["recognize", "--graph", gp]) == 0
    out = capsys.readouterr().out
    assert "NOTE" in out and "single-color" in out


def test_cli_simulate_is_byte_deterministic(tmp_path):
    args = [
        "simulate", "--leaves", "12", "--colors", "3", "--seed", "5",
        "--out-tree", str(tmp_path / "a.nwk"), "--out-graph", str(tmp_path / "a.g"),
    ]
    assert run(args) == 0
    first = [(tmp_path / n).read_bytes() for n in ("a.nwk", "a.nwk.colors", "a.g")]
    args2 = [
        "simulate", "--leaves", "12", "--colors", "3", "--seed", "5",
        "--out-tree", str(tmp_path / "b.nwk"), "--out-graph", str(tmp_path / "b.g"),
    ]
    assert run(args2) == 0
    second = [(tmp_path / n).read_bytes() for n in ("b.nwk", "b.nwk.colors", "b.g")]
    assert first == second


def test_cli_simulate_output_is_recognized(tmp_path, capsys):
    gp = str(tmp_path / "sim.g")
    assert run(["simulate", "--leaves", "30", "--colors", "4", "--seed", "9",
                "--out-graph", gp]) == 0
    assert run(["recognize", "--graph", gp]) == 0
    assert run(["simulate", "--leaves", "2", "--colors", "5", "--seed", "1",
                "--out-graph", gp]) == 2


def test_cli_triples_output(tmp_path, capsys):
    gp = str(tmp_path / "ct.txt")
    write_graph(counter_triples_graph(), gp)
    assert run(["triples", "--graph", gp]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a b | a2", "a b | b2", "a b2 | a2"]


def test_cli_rbmg_check(tmp_path, capsys):
    gp = str(tmp_path / "g.txt")
    _, graph = random_scenario(4, max_leaves=10, max_colors=2)
    write_graph(graph, gp)
    assert run(["rbmg", "--graph", gp, "--check"]) == 0
    out = capsys.readouterr().out
    assert "CHECK pass" in out and "V " in out


def test_cli_check_axioms(tmp_path, capsys):
    gp = str(tmp_path / "g.txt")
    _, graph = random_scenario(4, max_leaves=10, max_colors=2)
    write_graph(graph, gp)
    assert run(["check-axioms", "--graph", gp]) == 0
    assert "PASS" in capsys.readouterr().out
    write_graph(smallest_counterexample(), gp)
    assert run(["check-axioms", "--graph", gp]) == 1
    assert "FAIL N" in capsys.readouterr().out


def test_cli_check_axioms_wrong_color_count_names_vertices(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    gp.write_text("V a r\nV b b\nV c r\nA a b\nA b a\n", encoding="utf-8")
    assert run(["check-axioms", "--graph", str(gp)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "component 0 PASS",
        "component 1 FAIL wrong-color-count c",
    ]


def test_cli_reject_lines_name_vertices_only(tmp_path, capsys):
    gp = str(tmp_path / "fig2.txt")
    write_graph(smallest_counterexample(), gp)
    assert run(["recognize", "--graph", gp]) == 1
    assert capsys.readouterr().err == "REJECT 2cbmg-failure w\n"
    assert run(["lrt", "--graph", gp, "--out-tree", str(tmp_path / "no.nwk")]) == 1
    assert capsys.readouterr().err == "REJECT 2cbmg-failure w\n"

    gp = str(tmp_path / "gate.txt")
    write_graph(gate_mismatch_graph(), gp)
    for route in ("pairwise", "direct"):
        assert run(["recognize", "--graph", gp, "--route", route]) == 1
        assert capsys.readouterr().err == "REJECT graph-mismatch v3 v2\n"


@pytest.mark.parametrize("command", ["recognize", "lrt", "from-tree"])
def test_cli_exit_2_on_bytes_that_are_not_utf8(tmp_path, capsys, command):
    bad = b"V a\xff r\n"
    if command == "from-tree":
        (tmp_path / "t.nwk").write_text("(a,b);\n")
        (tmp_path / "t.nwk.colors").write_bytes(b"a\tred\nb\t\xffblue\n")
        argv = ["from-tree", "--tree", str(tmp_path / "t.nwk"), "--out", str(tmp_path / "g")]
    else:
        (tmp_path / "g.txt").write_bytes(bad)
        argv = [command, "--graph", str(tmp_path / "g.txt")]
        if command == "lrt":
            argv += ["--out-tree", str(tmp_path / "o.nwk")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize("command", ["recognize", "lrt", "check-axioms", "triples"])
@pytest.mark.parametrize("arcs", ["A a(1 b\nA b a(1\n", "A a(1 b\n"])
def test_cli_exit_2_on_ids_that_cannot_be_newick_labels(tmp_path, capsys, command, arcs):
    # the id fails at its V line, whether the graph would be accepted (the
    # first arc set) or rejected, so the exit code cannot depend on a verdict
    (tmp_path / "g.txt").write_text("V a(1 r\nV b x\n" + arcs)
    argv = [command, "--graph", str(tmp_path / "g.txt")]
    if command == "lrt":
        argv += ["--out-tree", str(tmp_path / "o.nwk")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: vertex id 'a(1' cannot be a Newick leaf label (line 1)\n"
    )


@pytest.mark.parametrize("char", "(),;")
def test_graph_ids_with_newick_syntax_raise(char):
    with pytest.raises(ParseError) as caught:
        parse_graph(f"V x red\nV y{char} blue\n")
    assert caught.value.line == 2
