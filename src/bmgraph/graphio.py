"""File formats: line-based graph files, Newick trees with color sidecars, DOT.

Graph files are plain text: ``V <id> <color>`` declares a vertex, ``A <src>
<dst>`` an arc between previously declared vertices, ``#`` starts a comment.
A file in the layout the graph writer emits is read in bulk, its arc lines
with no Python step per arc; any other layout, and any invalid file, is read
line by line, which gives the same graph and every ``ParseError``.  Trees are
rooted Newick without branch lengths or inner labels, read token by token
into raw arrays for the tree's canonicalizer; leaf colours live in a
tab-separated sidecar, the one source of colour truth, read in bulk or line
by line as graph files are.  Ids, leaf labels and colours are
whitespace-free and hold no ``#``, ids none of ``(),;`` either, and the
constructors check that, so what a writer emits reads back.  Writers emit
sorted, byte-deterministic output; the graph writer names each source's
targets from the nonzero bytes of its out-bitset, or bit by bit if sparse,
and ``format_bmg`` writes a tree's graph in that layout from its lists.
"""

from __future__ import annotations

import os
import re
import stat
import sys
from itertools import compress, groupby
from typing import Iterator, TextIO

from .bmg import bmg_targets
from .digraph import ColoredDigraph, bits
from .errors import ParseError, BmgraphError
from .tree import _FORBIDDEN_LABEL_CHARS, LeafColoredTree, Topology, _canonical

# characters per block of the bulk path, which cuts each at the next line end
_BLOCK = 1 << 14
# the tokens of a Newick text: one character of ``(),;#``, a run of blanks
# (``\s`` is ``str.isspace``), or a run of label characters
_NEWICK_TOKEN = re.compile(r"[(),;#]|\s+|[^\s(),;#]+")
# the positions of the set bits of each byte value, lowest first
_BYTE_BITS = [tuple(q for q in range(8) if b >> q & 1) for b in range(256)]


def parse_graph(text: str) -> ColoredDigraph:
    """Graph of a graph file: in bulk in the writer's layout, else line by
    line, which gives the same graph and raises every ``ParseError``."""
    return _parse_layout(text) or _parse_lines(text)  # a graph has a vertex, so it is never false


def _parse_layout(text: str) -> ColoredDigraph | None:
    """Graph of a text in the layout ``format_graph`` writes (``V`` lines, then
    ``A`` lines from the first ``\nA `` on, one space between fields, each line
    ended by ``\n``, no ``#``), else ``None``.  A ``V`` block must be its own
    rendering from its tokens.  ``(block + "A").split(" ")`` turns an ``A``
    block into sources and ``target + "\nA"`` in turn; no id holds a blank, so
    the block is in the layout exactly when each token looks up a declared id.
    A source's run of arcs is ORed in at once, as bits of the targets' ranks in
    sorted id order; a repeated arc shows as a carry or as a bit already set."""
    if "#" in text:
        return None
    arcs = text.find("\nA ") + 1 or len(text)
    colors: dict[str, str] = {}
    declared = 0  # V lines read
    for block in _blocks(text, 0, arcs):
        fields = block.split()
        if block != "".join(map("V {} {}\n".format, fields[1::3], fields[2::3])):
            return None
        colors.update(zip(fields[1::3], fields[2::3]))
        declared += len(fields) // 3
    if not colors or len(colors) != declared or not _FORBIDDEN_LABEL_CHARS.isdisjoint("".join(colors)):
        return None
    rank = {v: r for r, v in enumerate(sorted(colors))}
    bit = {v + "\nA": 1 << r for v, r in rank.items()}  # keyed as target tokens read
    out = [0] * len(rank)
    try:
        for block in _blocks(text, arcs, len(text)):
            tokens = (block + "A").split(" ")
            if tokens[0] != "A" or not len(tokens) & 1:
                return None
            targets, i = tokens[2::2], 0
            for src, run in groupby(tokens[1::2]):
                j, r = i + len(list(run)), rank[src]
                mask = sum(map(bit.__getitem__, targets[i:j]))
                if mask.bit_count() != j - i or mask & (out[r] | 1 << r):
                    return None
                out[r] |= mask
                i = j
    except KeyError:  # a token that is no declared id
        return None
    return ColoredDigraph.from_masks(colors, out)


def _blocks(text: str, start: int, stop: int) -> Iterator[str]:
    """``text[start:stop]`` in blocks cut at the first line end past each ``_BLOCK`` characters."""
    while start < stop:
        end = text.find("\n", start + _BLOCK, stop) + 1 or stop
        yield text[start:end]
        start = end


def _parse_lines(text: str) -> ColoredDigraph:
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
    lines of one source walk its out-bitset.  A bitset with at least one bit
    set per 64 of its width is walked by its nonzero bytes, each naming its
    targets from an 8-id slice through ``_BYTE_BITS``; a sparser one, bit by
    bit."""
    ids, names, outs = graph.vertex_ids, graph.color_ids, graph.out_masks
    lines = [f"V {v} {names[c]}" for v, c in zip(ids, graph.color_of)]
    octets = [ids[p : p + 8] for p in range(0, len(ids), 8)]
    for i in sorted(range(len(ids)), key=[v + " " for v in ids].__getitem__):
        out = outs[i]
        if out:
            width = out.bit_length()
            if out.bit_count() * 64 < width:
                targets = map(ids.__getitem__, bits(out))
            else:
                nb = (width + 7) // 8
                raw = out.to_bytes(nb, "little")
                targets = [octets[p][q] for p in compress(range(nb), raw) for q in _BYTE_BITS[raw[p]]]
            head = f"A {ids[i]} "
            lines.append(head + ("\n" + head).join(targets))
    return "\n".join(lines) + "\n"


def format_bmg(tree: LeafColoredTree) -> str:
    """``format_graph(bmg_of_tree(tree))``, each source's ``A`` lines one
    join of its list of ``bmg_targets``."""
    labs, colors, node_of = tree.leaf_labels, tree.colors, tree._leaf_node
    found = bmg_targets(tree)
    lines = [f"V {v} {colors[v]}" for v in labs]
    for v in sorted(labs, key="{} ".format):
        got = found[node_of[v]]
        if got:
            head = f"A {v} "
            lines.append(head + ("\n" + head).join(got))
    lines.append("")
    return "\n".join(lines)


def format_undirected(graph: ColoredDigraph) -> str:
    """Text of a symmetric digraph: ``V`` lines, then one ``E x y`` line per
    arc with x < y, in string order."""
    ids = graph.vertex_ids
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(ids)]
    lines += sorted(f"E {ids[i]} {ids[j]}" for i, j in graph.arcs() if i < j)
    return "\n".join(lines) + "\n"


def parse_newick(text: str) -> Topology:
    """Nested-tuple topology of a rooted Newick string: a fold of
    ``_newick_arrays``, whose kids come before their parent."""
    kids, rep = _newick_arrays(text)
    for v, below in enumerate(kids):
        if below is not None:
            rep[v] = tuple(map(rep.__getitem__, below))
    return rep[-1]


def _newick_arrays(text: str) -> tuple[list[list[int] | None], list[str | None]]:
    """Raw child lists (text order, ``None`` for a leaf) and labels of a
    rooted Newick string, read token by token (see ``_NEWICK_TOKEN``).  A
    vertex is allocated where it ends, at its label or its ``)``, so kids
    come before their parent and the root last; a one-element group is its
    element."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty tree file", 1, 1)
    kids: list[list[int] | None] = []
    label: list[str | None] = []
    stack: list[list[int]] = []
    current: list[int] = []  # the elements of the innermost open group
    last = ""  # the element that just finished: "label", ")", or "" for none
    done_at: int | None = None
    col = 1
    for tok in _NEWICK_TOKEN.findall(stripped):
        if done_at is not None and not tok.isspace():
            raise ParseError("content after ';'", 1, col)
        if tok == ",":
            if not stack:
                raise ParseError("',' outside parentheses", 1, col)
            if not last:
                raise ParseError("empty element before ','", 1, col)
            last = ""
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", 1, col)
            if not last:
                raise ParseError("empty element before ')'", 1, col)
            group = current
            current = stack.pop()
            if len(group) > 1:
                current.append(len(kids))
                kids.append(group)
                label.append(None)
            else:
                current += group
            last = ")"
        elif tok == "(":
            if last:
                raise ParseError("'(' directly after an element", 1, col)
            stack.append(current)
            current = []
        elif tok == ";":
            if stack:
                raise ParseError("unbalanced '(' before ';'", 1, col)
            done_at, last = col, ""
        elif tok.isspace():
            if last == "label":
                raise ParseError("whitespace inside label", 1, col)
        elif tok == "#":
            raise ParseError("'#' not allowed in newick", 1, col)
        else:
            if last:
                raise ParseError("label directly after ')'", 1, col)
            current.append(len(kids))
            kids.append(None)
            label.append(tok)
            last = "label"
        col += len(tok)
    if done_at is None:
        raise ParseError("missing ';' terminator", 1, len(stripped))
    if len(current) != 1:
        raise ParseError("newick must describe exactly one tree", 1, done_at)
    return kids, label


def parse_color_map(text: str) -> dict[str, str]:
    """Leaf colours of a colour sidecar: in bulk in the writer's layout, else
    line by line, which gives the same map and raises every ``ParseError``."""
    return _parse_color_layout(text) or _parse_color_lines(text)


def _parse_color_layout(text: str) -> dict[str, str] | None:
    """Colour map of a text in the layout ``format_color_map`` writes (no
    ``#``, no leaf twice, and equal to its rendering from its tokens), or
    ``None`` for any other layout and any invalid sidecar."""
    if "#" in text:
        return None
    fields = text.split()
    leaves, palette = fields[::2], fields[1::2]
    if text != "\n".join(map("\t".join, zip(leaves, palette))) + "\n":
        return None
    colors = dict(zip(leaves, palette))
    return colors if len(colors) == len(leaves) else None


def _parse_color_lines(text: str) -> dict[str, str]:
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
    kids, label = _newick_arrays(_read_text(tree_path))
    colors = parse_color_map(_read_text(colors_path))
    tree = LeafColoredTree._of_layout(_canonical(kids, label, range(len(kids))), colors)
    if len(tree.colors) != len(colors):
        extra = sorted(colors.keys() - tree.colors.keys())
        raise ParseError(f"color map lists unknown leaves: {extra}", None)
    return tree


# A text and where it goes: a file path, or None for stdout.
Output = tuple[str, str | None]


def write_text(*outputs: Output) -> None:
    """The one writer of every text output, which takes all of a command's
    outputs at once.  Two paths that resolve to one file raise
    ``BmgraphError`` before anything is opened.  Every file is opened before
    any is truncated or written; if an open fails, the files it created are
    removed and nothing is written.  Stdout comes last."""
    named: dict[str, str] = {}  # resolved path -> the path as given
    for _, path in outputs:
        if path is not None:
            where = os.path.realpath(path)
            if where in named:
                raise BmgraphError(f"outputs {named[where]!r} and {path!r} name one file")
            named[where] = path
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
    ids = [v.replace("\\", "\\\\").replace('"', '\\"') for v in graph.vertex_ids]
    lines = ["digraph bmg {", "  node [style=filled];"]
    for i, v in enumerate(ids):
        lines.append(f'  "{v}" [fillcolor="{_PALETTE[graph.color_of[i] % len(_PALETTE)]}"];')
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
    "format_bmg",
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
