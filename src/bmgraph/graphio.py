"""File formats: line-based graph files, Newick trees with color sidecars, DOT.

Graph files are plain text: ``V <id> <color>`` declares a vertex, ``A <src>
<dst>`` an arc between previously declared vertices, ``#`` starts a comment.
Vertex ids are leaf labels, so they hold no character Newick gives meaning to.
Trees are rooted Newick without branch lengths or inner labels; leaf colors
live in a tab-separated sidecar, which is the single source of color truth.
All writers emit sorted, byte-deterministic output.
"""

from __future__ import annotations

from .digraph import ColoredDigraph, ColoredGraph
from .errors import ParseError, BmgraphError
from .tree import _FORBIDDEN_LABEL_CHARS, LeafColoredTree, Topology

def parse_graph(text: str) -> ColoredDigraph:
    """Graph of a graph file.  Each vertex gets a slot at its ``V`` line and
    arcs are kept as slot sets, so they are checked as they are read; the
    slots are renumbered into sorted id order once, at the end."""
    colors: dict[str, str] = {}
    slot: dict[str, int] = {}
    out_sets: list[set[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "A":
            if len(fields) != 3:
                raise ParseError("A line needs exactly: A <src> <dst>", lineno)
            _, src, dst = fields
            i, j = slot.get(src), slot.get(dst)
            if i is None or j is None:
                raise ParseError(f"arc endpoint not declared yet: {src} -> {dst}", lineno)
            if i == j:
                raise ParseError(f"self-loop on {src!r}", lineno)
            targets = out_sets[i]
            if j in targets:
                raise ParseError(f"duplicate arc {src} -> {dst}", lineno)
            targets.add(j)
        elif kind == "V":
            if len(fields) != 3:
                raise ParseError("V line needs exactly: V <id> <color>", lineno)
            _, vid, color = fields
            if vid in colors:
                raise ParseError(f"duplicate vertex {vid!r}", lineno)
            if not _FORBIDDEN_LABEL_CHARS.isdisjoint(vid):
                raise ParseError(f"vertex id {vid!r} cannot be a Newick leaf label", lineno)
            colors[vid] = color
            slot[vid] = len(out_sets)
            out_sets.append(set())
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)
    if not colors:
        raise ParseError("graph file declares no vertices", None)
    by_rank = [slot[vid] for vid in sorted(colors)]  # the vertex order ColoredDigraph interns
    rank = [0] * len(by_rank)
    for r, s in enumerate(by_rank):
        rank[s] = r
    return ColoredDigraph.from_index_sets(colors, [[rank[j] for j in out_sets[s]] for s in by_rank])


def format_graph(graph: ColoredDigraph) -> str:
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(graph.vertex_ids)]
    lines += sorted(
        f"A {graph.vertex_ids[i]} {graph.vertex_ids[j]}" for i, j in graph.arcs()
    )
    return "\n".join(lines) + "\n"


def format_undirected(graph: ColoredGraph) -> str:
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(graph.vertex_ids)]
    lines += sorted(
        f"E {graph.vertex_ids[i]} {graph.vertex_ids[j]}" for i, j in graph.edges()
    )
    return "\n".join(lines) + "\n"


def parse_newick(text: str) -> Topology:
    """Parse a rooted Newick string into a nested-tuple topology."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty tree file", 1, 1)
    stack: list[list[Topology]] = []
    current: list[Topology] = []
    token = ""
    closed = False  # an element (label or group) just finished
    done_at: int | None = None

    def flush() -> None:
        nonlocal token, closed
        if token:
            current.append(token)
            token = ""
            closed = True

    for col, ch in enumerate(stripped, start=1):
        if done_at is not None and not ch.isspace():
            raise ParseError("content after ';'", 1, col)
        if ch == "(":
            if token or closed:
                raise ParseError("'(' directly after an element", 1, col)
            stack.append(current)
            current = []
        elif ch == ",":
            flush()
            if not stack:
                raise ParseError("',' outside parentheses", 1, col)
            if not closed:
                raise ParseError("empty element before ','", 1, col)
            closed = False
        elif ch == ")":
            flush()
            if not stack:
                raise ParseError("unbalanced ')'", 1, col)
            if not closed:
                raise ParseError("empty element before ')'", 1, col)
            group = tuple(current)
            current = stack.pop()
            current.append(group if len(group) > 1 else group[0])
            closed = True
        elif ch == ";":
            flush()
            if stack:
                raise ParseError("unbalanced '(' before ';'", 1, col)
            done_at = col
        elif ch.isspace():
            if token:
                raise ParseError("whitespace inside label", 1, col)
        elif ch == "#":
            raise ParseError("'#' not allowed in newick", 1, col)
        else:
            if closed:
                raise ParseError("label directly after ')'", 1, col)
            token += ch
    if done_at is None:
        raise ParseError("missing ';' terminator", 1, len(stripped))
    if len(current) != 1:
        raise ParseError("newick must describe exactly one tree", 1, done_at)
    return current[0]


def parse_color_map(text: str) -> dict[str, str]:
    colors: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError("color line needs exactly: <leaf><TAB><color>", lineno)
        leaf, color = parts
        if leaf in colors:
            raise ParseError(f"duplicate color entry for {leaf!r}", lineno)
        colors[leaf] = color
    return colors


def format_color_map(colors: dict[str, str]) -> str:
    return "".join(f"{leaf}\t{color}\n" for leaf, color in sorted(colors.items()))


def _read_text(path: str) -> str:
    """Contents of a UTF-8 text file; undecodable bytes are malformed input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})", None
            ) from None


def read_tree(tree_path: str, colors_path: str) -> LeafColoredTree:
    topology = parse_newick(_read_text(tree_path))
    colors = parse_color_map(_read_text(colors_path))
    leaves = set(_topology_leaves(topology))
    extra = set(colors) - leaves
    if extra:
        raise ParseError(f"color map lists unknown leaves: {sorted(extra)}", None)
    missing = leaves - set(colors)
    if missing:
        raise ParseError(f"color map misses leaves: {sorted(missing)}", None)
    return LeafColoredTree(topology, colors)


def write_tree(tree: LeafColoredTree, tree_path: str, colors_path: str) -> None:
    with open(tree_path, "w", encoding="utf-8") as fh:
        fh.write(tree.newick() + "\n")
    with open(colors_path, "w", encoding="utf-8") as fh:
        fh.write(format_color_map(tree.colors))


def _topology_leaves(topology: Topology) -> list[str]:
    out: list[str] = []
    work = [topology]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            work.extend(item)
    return out


_PALETTE = (
    "#e41a1c",
    "#377eb8",
    "#4daf4a",
    "#984ea3",
    "#ff7f00",
    "#a65628",
    "#f781bf",
    "#999999",
)


def format_dot(graph: ColoredDigraph) -> str:
    """Graphviz rendering; bidirectional pairs drawn once without arrowheads."""
    fill = {
        c: _PALETTE[k % len(_PALETTE)] for k, c in enumerate(graph.color_ids)
    }
    lines = ["digraph bmg {", "  node [style=filled];"]
    for i, v in enumerate(graph.vertex_ids):
        lines.append(f'  "{v}" [fillcolor="{fill[graph.color_name(i)]}"];')
    for i, j in graph.arcs():
        if i in graph.out_adj[j]:
            if i < j:
                lines.append(
                    f'  "{graph.vertex_ids[i]}" -> "{graph.vertex_ids[j]}" [dir=none];'
                )
        else:
            lines.append(f'  "{graph.vertex_ids[i]}" -> "{graph.vertex_ids[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_graph(path: str) -> ColoredDigraph:
    return parse_graph(_read_text(path))


def write_graph(graph: ColoredDigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(graph))


__all__ = [
    "parse_graph",
    "format_graph",
    "format_undirected",
    "parse_newick",
    "parse_color_map",
    "format_color_map",
    "read_tree",
    "write_tree",
    "read_graph",
    "write_graph",
    "format_dot",
    "BmgraphError",
]
