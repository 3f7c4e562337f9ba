"""File formats and the command-line surface."""

import pytest

from bmgraph import ParseError, TreeError, bmg_of_tree
from bmgraph.cli import main, make_parser
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
    with pytest.raises(TreeError):
        read_tree(tp, cp)


def test_read_tree_names_missing_leaves_then_unknown_ones(tmp_path):
    tp, cp = str(tmp_path / "t.nwk"), str(tmp_path / "t.nwk.colors")
    (tmp_path / "t.nwk").write_text("((a,b),c);\n")
    # a sidecar that both misses and adds leaves names the missing ones
    (tmp_path / "t.nwk.colors").write_text("a\tr\nzz\ts\n")
    with pytest.raises(TreeError) as missing:
        read_tree(tp, cp)
    assert str(missing.value) == "color map misses leaves: ['b', 'c']"
    (tmp_path / "t.nwk.colors").write_text("a\tr\nb\ts\nc\tr\nzz\ts\nyy\tr\n")
    with pytest.raises(ParseError) as unknown:
        read_tree(tp, cp)
    assert str(unknown.value) == "color map lists unknown leaves: ['yy', 'zz']"
    assert run(["from-tree", "--tree", tp, "--out", str(tmp_path / "g.txt")]) == 2


def test_dot_output_merges_bidirectional_pairs():
    g = parse_graph(GRAPH_TEXT)
    dot = format_dot(g)
    assert dot.count("->") == 1
    assert "[dir=none]" in dot


def _quoted(line: str) -> list[str] | None:
    """The quoted strings of a DOT line, unescaped, or None when a quote is
    left open."""
    found, current, escaped = [], None, False
    for ch in line:
        if current is None:
            if ch == '"':
                current = ""
        elif escaped:
            current, escaped = current + ch, False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            found.append(current)
            current = None
        else:
            current += ch
    return found if current is None else None


def test_dot_output_escapes_quotes_and_backslashes_in_ids(tmp_path):
    ids = ['a"b', "c\\", 'd\\"e', "f"]
    text = "".join(f"V {v} {c}\n" for v, c in zip(ids, "rsrs"))
    text += 'A a"b c\\\nA c\\ a"b\nA f d\\"e\n'
    graph = parse_graph(text)
    dot = format_dot(graph)
    named = [_quoted(line) for line in dot.splitlines()]
    assert None not in named, dot
    assert {v for strings in named for v in strings if not v.startswith("#")} == set(ids)
    gp, dp = str(tmp_path / "g.txt"), str(tmp_path / "g.dot")
    with open(gp, "w", encoding="utf-8") as fh:
        fh.write(text)
    run(["recognize", "--graph", gp, "--emit-dot", dp])
    with open(dp, encoding="utf-8") as fh:
        assert fh.read() == dot


def test_dot_output_of_ordinary_ids_is_unchanged():
    graph = parse_graph(GRAPH_TEXT + "V z red\nA z y\n")
    assert format_dot(graph) == (
        "digraph bmg {\n"
        "  node [style=filled];\n"
        '  "x" [fillcolor="#377eb8"];\n'
        '  "y" [fillcolor="#e41a1c"];\n'
        '  "z" [fillcolor="#377eb8"];\n'
        '  "x" -> "y" [dir=none];\n'
        '  "z" -> "y";\n'
        "}\n"
    )


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


def test_cli_from_tree_exit_2_on_sidecar_tokens_with_whitespace(tmp_path, capsys):
    # "V a red one" would be written, which no graph reader accepts
    (tmp_path / "t.nwk").write_text("(a,b);\n")
    (tmp_path / "t.nwk.colors").write_text("b\tblue\na\tred one\n")
    gp = tmp_path / "g.txt"
    assert run(["from-tree", "--tree", str(tmp_path / "t.nwk"), "--out", str(gp)]) == 2
    assert capsys.readouterr().err == (
        "error: color line needs exactly: <leaf><TAB><color>, two whitespace-free tokens"
        " (line 2)\n"
    )
    assert not gp.exists()


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


@pytest.mark.parametrize("route", ["pairwise", "direct"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_cli_single_color_graphs_get_the_star(tmp_path, capsys, n, route):
    ids = [f"v{i}" for i in range(n)]
    gp = tmp_path / "one.g"
    gp.write_text("".join(f"V {v} r\n" for v in ids))
    assert run(["recognize", "--graph", str(gp), "--route", route]) == 0
    assert capsys.readouterr().out == (
        f"NOTE single-color: edge-less graph, star tree\nACCEPT {n} vertices 1 colors\n"
    )
    tp = tmp_path / "lrt.nwk"
    assert run(["lrt", "--graph", str(gp), "--route", route, "--out-tree", str(tp)]) == 0
    assert capsys.readouterr() == ("", "")
    assert tp.read_text() == (ids[0] if n == 1 else f"({','.join(ids)})") + ";\n"
    assert (tmp_path / "lrt.nwk.colors").read_text() == "".join(f"{v}\tr\n" for v in ids)


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


@pytest.mark.parametrize("out", [False, True])
@pytest.mark.parametrize(
    "text, message",
    [
        ("V a r\nV b b\nV c g\nA a b\nA b a\n", "check expects a two-colored undirected graph"),
        ("V a r\nV b r\nV c b\nA a b\nA b a\nA a c\nA c a\n", "same-color edge 'a'-'b'"),
    ],
    ids=["three-colors", "same-color-edge"],
)
def test_cli_rbmg_check_exit_2_writes_nothing(tmp_path, capsys, text, message, out):
    (tmp_path / "g.txt").write_text(text)
    argv = ["rbmg", "--graph", str(tmp_path / "g.txt"), "--check"]
    op = tmp_path / "sym.txt"
    assert run(argv + (["--out", str(op)] if out else [])) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not op.exists()


@pytest.mark.parametrize(
    "leaves, colors, graph_dir", [("1", "1", ""), ("6", "2", "missing/")], ids=["one-leaf", "unopenable-graph"]
)
def test_cli_simulate_exit_2_writes_nothing(tmp_path, capsys, leaves, colors, graph_dir):
    # a graph path that cannot be opened leaves no tree file behind either
    tp, gp = tmp_path / "t.nwk", tmp_path / f"{graph_dir}g.txt"
    argv = ["simulate", "--leaves", leaves, "--colors", colors, "--seed", "1"]
    assert run(argv + ["--out-tree", str(tp), "--out-graph", str(gp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if leaves == "1":
        assert err == "error: simulation needs at least 2 leaves\n"
    else:
        assert err.startswith("error: [Errno 2] No such file or directory:") and str(gp) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("old_dot", [None, "old\n"], ids=["new-dot", "existing-dot"])
def test_cli_recognize_exit_2_on_an_unopenable_tree_path_writes_nothing(tmp_path, capsys, old_dot):
    # the graph is accepted, but no ACCEPT line is printed, and the DOT file,
    # opened first, is removed again or left as it was
    gp, dp, lp = tmp_path / "g.txt", tmp_path / "d.dot", tmp_path / "missing" / "l.nwk"
    write_graph(random_scenario(4, max_leaves=10, max_colors=2)[1], str(gp))
    if old_dot is not None:
        dp.write_text(old_dot)
    argv = ["recognize", "--graph", str(gp), "--emit-dot", str(dp)]
    assert run(argv + ["--emit-lrt", str(lp)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file or directory:") and str(lp) in err
    if old_dot is None:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]
    else:
        assert dp.read_text() == old_dot
        assert run(argv) == 0  # a file that was there is cut only once every path opens
        assert dp.read_text() == format_dot(read_graph(str(gp)))


def test_cli_usage_error_then_a_command_in_one_process(tmp_path, capsys):
    # ``main`` builds its parser once per process: a usage error must leave
    # it as a fresh parser would, for every later call
    gp = tmp_path / "g.txt"
    write_graph(smallest_counterexample(), str(gp))
    usage = ["recognize", "--route", "nope", "--graph", str(gp)]
    with pytest.raises(SystemExit):
        make_parser().parse_args(usage)
    fresh = capsys.readouterr()
    assert fresh.out == "" and "invalid choice: 'nope'" in fresh.err
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            run(usage)
        assert stop.value.code == 2
        assert capsys.readouterr() == fresh
        assert run(["recognize", "--graph", str(gp)]) == 1
        assert capsys.readouterr() == ("", "REJECT 2cbmg-failure w\n")


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
