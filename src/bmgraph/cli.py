"""Command-line interface.

Exit codes: 0 success/accept, 1 mathematical rejection, 2 malformed input,
usage error or internal error.  Rejections print one stable line to stderr:
``REJECT <stage> <witness-ids>``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .bmg import SHAPES, SimulationConfig, bmg_of_tree, simulate  # bmg_of_tree: bound here by perfbench/layers.py
from .digraph import connected_components, subgraph_on, symmetric_part
from .errors import BmgraphError
from .graphio import (
    format_bmg,
    format_dot,
    format_graph,
    format_undirected,
    read_graph,
    read_tree,
    write_graph,  # bound here by perfbench/layers.py
    write_text,
    write_tree,
)
from .n_color import recognize_ncbmg
from .rbmg import check_2crbmg_necessary
from .triples import informative_triples
from .two_color import check_axioms
from .verdicts import CheckResult, Rejection

_ROUTE_BY_FLAG = {"pairwise": "pairwise-lrt", "direct": "informative-direct"}
_ROUTE_HELP = (
    "pairwise (default): axioms N1-N3 per colour pair, then BUILD on the pair trees; on three or "
    "more colours it accepts through the direct candidate, the same unique tree, and decides the "
    "rejection stage and witness itself; direct: BUILD on the informative triples"
)


def _witness_ids(obj: object) -> list[str]:
    """Vertex ids of a witness structure, each once, in the order they appear.

    Tuples and lists keep their order, so an arc ``(x, y)`` prints as
    ``x y``; a nested verdict is read through its ``witness``.  Anything
    else, such as an index, names no vertex and is skipped.
    """
    found: dict[str, None] = {}
    work = [obj]
    while work:
        item = work.pop()
        if isinstance(item, str):
            found.setdefault(item)
        elif isinstance(item, (tuple, list)):
            work.extend(reversed(item))
        elif getattr(item, "witness", None) is not None:
            work.append(item.witness)
    return list(found)


def _verdict_text(verdict: Rejection | CheckResult) -> str:
    """``<stage> <witness-ids>`` of a failed verdict: every REJECT and FAIL line."""
    return " ".join((verdict.stage, *_witness_ids(verdict.witness)))


def _reject(verdict: Rejection | CheckResult) -> int:
    print(f"REJECT {_verdict_text(verdict)}", file=sys.stderr)
    return 1


def _colors_path(tree_path: str, explicit: str | None) -> str:
    return explicit if explicit is not None else tree_path + ".colors"


def cmd_from_tree(args: argparse.Namespace) -> int:
    tree = read_tree(args.tree, _colors_path(args.tree, args.color_map))
    write_text((format_bmg(tree), args.out))
    return 0


def cmd_recognize(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    report = recognize_ncbmg(graph, route=_ROUTE_BY_FLAG[args.route])
    outputs = [(format_dot(graph), args.emit_dot)] if args.emit_dot else []
    if report.lrt is None:  # set exactly when the graph is accepted
        write_text(*outputs)
        return _reject(report.rejection)
    note = f"NOTE {report.note}\n" if report.note else ""
    outputs.append((f"{note}ACCEPT {len(graph)} vertices {len(graph.color_ids)} colors\n", None))
    if args.emit_lrt:
        write_tree(report.lrt, args.emit_lrt, _colors_path(args.emit_lrt, None), *outputs)
    else:
        write_text(*outputs)
    return 0


def cmd_lrt(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    report = recognize_ncbmg(graph, route=_ROUTE_BY_FLAG[args.route])
    if report.lrt is None:  # set exactly when the graph is accepted
        return _reject(report.rejection)
    write_tree(report.lrt, args.out_tree, _colors_path(args.out_tree, None))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimulationConfig(
        leaf_count=args.leaves, color_count=args.colors, seed=args.seed, shape=args.shape
    )
    if args.colors == 1:
        print("warning: one color produces an edge-less graph", file=sys.stderr)
    tree, graph = simulate(cfg)
    outputs = [(format_graph(graph), args.out_graph)] if args.out_graph else []
    if args.out_tree:
        write_tree(tree, args.out_tree, _colors_path(args.out_tree, None), *outputs)
    else:
        write_text(*outputs)
    return 0


def cmd_triples(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    lines = informative_triples(graph).to_lines()
    write_text(("".join(line + "\n" for line in lines), args.out or None))
    return 0


def cmd_rbmg(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    sym = symmetric_part(graph)
    # the check raises on malformed input, which must leave nothing written
    verdict = check_2crbmg_necessary(sym) if args.check else None
    write_text((format_undirected(sym), args.out or None))
    if args.check:
        if not verdict:
            return _reject(verdict)
        print("CHECK pass")
    return 0


def cmd_check_axioms(args: argparse.Namespace) -> int:
    graph = read_graph(args.graph)
    if len(graph.color_ids) != 2:
        raise BmgraphError(
            f"check-axioms expects a two-colored graph, got {len(graph.color_ids)} colors"
        )
    failures = 0
    for k, comp in enumerate(connected_components(graph)):
        verdict = check_axioms(subgraph_on(graph, comp))
        failures += not verdict
        print(f"component {k} {'PASS' if verdict else 'FAIL ' + _verdict_text(verdict)}")
    return 1 if failures else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmgraph",
        description="Colored best match graphs: construct, recognize, explain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("from-tree", help="write the best match graph of a tree")
    p.add_argument("--tree", required=True, help="newick file")
    p.add_argument("--color-map", help="leaf color sidecar (default: <tree>.colors)")
    p.add_argument("--out", required=True, help="output graph file")
    p.set_defaults(func=cmd_from_tree)

    p = sub.add_parser("recognize", help="decide whether a colored digraph is a best match graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--route", choices=sorted(_ROUTE_BY_FLAG), default="pairwise", help=_ROUTE_HELP)
    p.add_argument("--emit-lrt", help="write the least resolved tree here on accept")
    p.add_argument("--emit-dot", help="write a DOT rendering of the input graph")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("lrt", help="recognize and write the least resolved tree, or fail")
    p.add_argument("--graph", required=True)
    p.add_argument("--route", choices=sorted(_ROUTE_BY_FLAG), default="pairwise", help=_ROUTE_HELP)
    p.add_argument("--out-tree", required=True)
    p.set_defaults(func=cmd_lrt)

    p = sub.add_parser("simulate", help="generate a random leaf-colored tree and its graph")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", choices=SHAPES, default="multifurcating")
    p.add_argument("--out-tree")
    p.add_argument("--out-graph")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("triples", help="emit the informative triples of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("rbmg", help="emit the symmetric part of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.add_argument("--check", action="store_true", help="run the necessary condition")
    p.set_defaults(func=cmd_rbmg)

    p = sub.add_parser("check-axioms", help="two-colored axiom verdicts per component")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_check_axioms)

    return parser


# ``main`` builds its parser on the first call and reuses it after
_parser = functools.cache(make_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BmgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # an exception that ``main`` does not handle is no rejection: exit 2, not 1
    try:
        code = main()
    except Exception as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
