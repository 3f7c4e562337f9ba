"""File formats: line-based graph files, Newick trees with color sidecars, DOT.

Graph files are plain text: ``V <id> <color>`` declares a vertex, ``A <src>
<dst>`` an arc between previously declared vertices, ``#`` starts a comment.
A file in the layout the graph writer emits is read in bulk, block by block;
any other layout, and any invalid file, is read line by line, which gives the
same graph and is the one source of ``ParseError``.
Vertex ids are leaf labels, so they hold no character Newick gives meaning to.
Trees are rooted Newick without branch lengths or inner labels, read token
by token; leaf colors live in a tab-separated sidecar, which is the single
source of color truth and, like graph files, is read in bulk in the layout
its writer emits and line by line otherwise.
Vertex ids, leaf labels and colours are whitespace-free and hold no ``#``,
and the constructors check that, so what a writer emits reads back.  All
writers emit sorted, byte-deterministic output; the graph writer sorts the
sources once and names each one's targets from the nonzero bytes of its
out-bitset, or bit by bit where the bitset is sparse.
"""

from __future__ import annotations

import os
import re
import stat
import sys
from itertools import compress, groupby
from typing import TextIO

from .digraph import ColoredDigraph, bits
from .errors import ParseError, BmgraphError
from .tree import _FORBIDDEN_LABEL_CHARS, LeafColoredTree, Topology

# characters per block of the bulk path, which cuts each at the next line end
_BLOCK = 1 << 14
# the tokens of a Newick text: one character of ``(),;#``, a run of blanks
# (``\s`` is ``str.isspace``), or a run of label characters
_NEWICK_TOKEN = re.compile(r"[(),;#]|\s+|[^\s(),;#]+")
# the positions of the set bits of each byte value, lowest first
_BYTE_BITS = [tuple(q for q in range(8) if b >> q & 1) for b in range(256)]


def parse_graph(text: str) -> ColoredDigraph:
    """Graph of a graph file: in bulk when the text is in the writer's layout,
    else line by line, which gives the same graph and raises every
    ``ParseError``."""
    graph = _parse_layout(text)
    return graph if graph is not None else _parse_lines(text)


def _parse_layout(text: str) -> ColoredDigraph | None:
    """Graph of a text in the layout ``format_graph`` writes, or ``None`` for
    any other layout and any invalid file: ``V`` lines, then ``A`` lines, one
    space between fields, every line ending in ``\n``, no ``#``.  Each block
    is split once and must be its own rendering from its tokens, so it holds
    only lines of three fields, each ended by ``\n``.  The targets of a run
    of arcs with one source are ORed in at once as bits of their ranks in
    sorted id order, the order ``ColoredDigraph`` interns; a repeated arc
    shows as a carry (popcount below the run's length) or as a bit already
    set."""
    if "#" in text:
        return None
    colors: dict[str, str] = {}
    declared = 0  # V lines read
    bit: dict[str, int] = {}  # id -> 1 << its rank, set at the first arc
    out: dict[str, int] = {}  # id -> out-bitset, in rank order
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        block, start = text[start:end], end
        fields = block.split()
        kinds, firsts, seconds = fields[::3], fields[1::3], fields[2::3]
        if block != "\n".join(map(" ".join, zip(kinds, firsts, seconds))) + "\n":
            return None
        nv = kinds.count("V")
        if kinds != ["V"] * nv + ["A"] * (len(kinds) - nv) or (nv and bit):
            return None
        colors.update(zip(firsts[:nv], seconds[:nv]))
        declared += nv
        if nv < len(kinds) and not bit:
            bit = {v: 1 << r for r, v in enumerate(sorted(colors))}
            out = dict.fromkeys(bit, 0)
        i = nv
        try:
            for src, run in groupby(firsts[nv:]):
                j = i + len(list(run))
                mask = sum(map(bit.__getitem__, seconds[i:j]))
                if mask.bit_count() != j - i or mask & (out[src] | bit[src]):
                    return None
                out[src] |= mask
                i = j
        except KeyError:  # an undeclared endpoint
            return None
    if not colors or len(colors) != declared or not _FORBIDDEN_LABEL_CHARS.isdisjoint("".join(colors)):
        return None
    return ColoredDigraph.from_masks(colors, list(out.values()) if out else [0] * len(colors))


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


def format_undirected(graph: ColoredDigraph) -> str:
    """Text of a symmetric digraph: ``V`` lines, then one ``E x y`` line per
    arc with x < y, in string order."""
    ids = graph.vertex_ids
    lines = [f"V {v} {graph.color_name(i)}" for i, v in enumerate(ids)]
    lines += sorted(f"E {ids[i]} {ids[j]}" for i, j in graph.arcs() if i < j)
    return "\n".join(lines) + "\n"


def parse_newick(text: str) -> Topology:
    """Parse a rooted Newick string into a nested-tuple topology, token by
    token (see ``_NEWICK_TOKEN``)."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty tree file", 1, 1)
    stack: list[list[Topology]] = []
    current: list[Topology] = []
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
            group = tuple(current)
            current = stack.pop()
            current.append(group if len(group) > 1 else group[0])
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
            current.append(tok)
            last = "label"
        col += len(tok)
    if done_at is None:
        raise ParseError("missing ';' terminator", 1, len(stripped))
    if len(current) != 1:
        raise ParseError("newick must describe exactly one tree", 1, done_at)
    return current[0]


def parse_color_map(text: str) -> dict[str, str]:
    """Leaf colours of a colour sidecar: in bulk when the text is in the
    layout ``format_color_map`` writes, else line by line, which gives the
    same map and raises every ``ParseError``."""
    colors = _parse_color_layout(text)
    return colors if colors is not None else _parse_color_lines(text)


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
