"""File formats: line-based graph files, Newick trees with color sidecars, DOT.

Graph files are plain text: ``V <id> <color>`` declares a vertex, ``A <src>
<dst>`` an arc between previously declared vertices, ``#`` starts a comment.
Vertex ids are leaf labels, so they hold no character Newick gives meaning to.
Trees are rooted Newick without branch lengths or inner labels; leaf colors
live in a tab-separated sidecar, which is the single source of color truth.
Vertex ids, leaf labels and colours are whitespace-free and hold no ``#``,
and the constructors check that, so what a writer emits reads back.  All
writers emit sorted, byte-deterministic output; the graph writer sorts the
sources once and emits each one's arcs by walking its out-bitset.
"""

from __future__ import annotations

import os
import stat
import sys
from typing import TextIO

from .digraph import ColoredDigraph, bits
from .errors import ParseError, BmgraphError
from .tree import _FORBIDDEN_LABEL_CHARS, LeafColoredTree, Topology

def parse_graph(text: str) -> ColoredDigraph:
    """Graph of a graph file.  Each vertex gets a slot at its ``V`` line and
    arcs are kept as bitsets over slots, so they are checked as they are
    read; the slots are renumbered into sorted id order once, at the end,
    which leaves the bitsets as they are when the ids came sorted."""
    colors: dict[str, str] = {}
    slot: dict[str, int] = {}
    out_masks: list[int] = []
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
            targets, bit = out_masks[i], 1 << j
            if targets & bit:
                raise ParseError(f"duplicate arc {src} -> {dst}", lineno)
            out_masks[i] = targets | bit
        elif kind == "V":
            if len(fields) != 3:
                raise ParseError("V line needs exactly: V <id> <color>", lineno)
            _, vid, color = fields
            if vid in colors:
                raise ParseError(f"duplicate vertex {vid!r}", lineno)
            if not _FORBIDDEN_LABEL_CHARS.isdisjoint(vid):
                raise ParseError(f"vertex id {vid!r} cannot be a Newick leaf label", lineno)
            colors[vid] = color
            slot[vid] = len(out_masks)
            out_masks.append(0)
        else:
            raise ParseError(f"unknown record type {kind!r}", lineno)
    if not colors:
        raise ParseError("graph file declares no vertices", None)
    by_rank = [slot[vid] for vid in sorted(colors)]  # the vertex order ColoredDigraph interns
    if by_rank != list(range(len(by_rank))):
        rank_bit = [0] * len(by_rank)
        for r, s in enumerate(by_rank):
            rank_bit[s] = 1 << r
        out_masks = [sum(map(rank_bit.__getitem__, bits(out_masks[s]))) for s in by_rank]
    return ColoredDigraph.from_masks(colors, out_masks)


def format_graph(graph: ColoredDigraph) -> str:
    """Graph file text: ``V`` lines in id order, then ``A x y`` lines in
    string order.  No id holds a space, so that order is by ``x + " "``, then
    by ``y``; ids are interned sorted, so ``y`` order is bit order and the
    lines of one source walk its out-bitset."""
    ids, names, outs = graph.vertex_ids, graph.color_ids, graph.out_masks
    lines = [f"V {v} {names[c]}" for v, c in zip(ids, graph.color_of)]
    for i in sorted(range(len(ids)), key=lambda i: ids[i] + " "):
        if outs[i]:
            head = f"A {ids[i]} "
            lines.append(head + ("\n" + head).join(map(ids.__getitem__, bits(outs[i]))))
    return "\n".join(lines) + "\n"


def format_undirected(graph: ColoredDigraph) -> str:
    """Text of a symmetric digraph: ``V`` lines, then one ``E x y`` line per
    arc with x < y, in string order."""
    ids = graph.vertex_ids
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(ids)]
    lines += sorted(f"E {ids[i]} {ids[j]}" for i, j in graph.arcs() if i < j)
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
        # both parts are whitespace-free tokens iff they are the line's tokens
        if len(parts) != 2 or line.split() != parts:
            raise ParseError(
                "color line needs exactly: <leaf><TAB><color>, two whitespace-free tokens", lineno
            )
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
    """Tree of a Newick file and its colour sidecar, which must name exactly
    the tree's leaves: the tree raises on a missing leaf, then any extra
    entry is a ``ParseError``."""
    topology = parse_newick(_read_text(tree_path))
    colors = parse_color_map(_read_text(colors_path))
    tree = LeafColoredTree(topology, colors)
    if len(tree.colors) != len(colors):
        extra = sorted(colors.keys() - tree.colors.keys())
        raise ParseError(f"color map lists unknown leaves: {extra}", None)
    return tree


# A text and where it goes: a file path, or None for stdout.
Output = tuple[str, str | None]


def write_text(*outputs: Output) -> None:
    """The one writer of every text output, which takes all of a command's
    outputs at once.  Every file is opened before any is truncated or
    written; if an open fails, the files it created are removed and nothing
    is written.  Stdout comes last."""
    opened: list[tuple[TextIO, str, bool]] = []  # handle, text, whether the file was there
    try:
        for text, path in outputs:
            if path is not None:
                try:
                    opened.append((open(path, "x", encoding="utf-8"), text, False))
                except FileExistsError:
                    opened.append((open(path, "a", encoding="utf-8"), text, True))
    except OSError:
        for fh, _, existed in opened:
            fh.close()
            if not existed:
                os.remove(fh.name)
        raise
    for fh, text, existed in opened:
        with fh:
            if existed and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)  # opened to append, so only now is the old text cut
            fh.write(text)
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)


def write_tree(tree: LeafColoredTree, tree_path: str, colors_path: str, *others: Output) -> None:
    """The tree's Newick file and colour sidecar, written with the command's
    ``others`` outputs."""
    write_text((tree.newick() + "\n", tree_path), (format_color_map(tree.colors), colors_path), *others)


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
    """Graphviz rendering; bidirectional pairs drawn once without arrowheads.
    Ids may hold ``"`` and ``\\``, so both are escaped inside the quotes."""
    fill = {
        c: _PALETTE[k % len(_PALETTE)] for k, c in enumerate(graph.color_ids)
    }
    ids = [v.replace("\\", "\\\\").replace('"', '\\"') for v in graph.vertex_ids]
    lines = ["digraph bmg {", "  node [style=filled];"]
    for i, v in enumerate(ids):
        lines.append(f'  "{v}" [fillcolor="{fill[graph.color_name(i)]}"];')
    for i, j in graph.arcs():
        if graph.has_arc(j, i):
            if i < j:
                lines.append(f'  "{ids[i]}" -> "{ids[j]}" [dir=none];')
        else:
            lines.append(f'  "{ids[i]}" -> "{ids[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_graph(path: str) -> ColoredDigraph:
    return parse_graph(_read_text(path))


def write_graph(graph: ColoredDigraph, path: str) -> None:
    write_text((format_graph(graph), path))


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
    "write_text",
    "format_dot",
    "BmgraphError",
]
