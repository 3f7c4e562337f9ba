"""Recognition of n-colored best match graphs and their least resolved trees.

Pipeline: reject same-color arcs, split into weakly connected components and
require equal color sets; these are the only structure checks.  Then per
component either (a) recognize the two-colored graph of every color pair,
take its unique least resolved tree, and feed all pair trees to a supertree
BUILD, or (b) run BUILD on the union of the pairwise informative triples.
Both read bitsets computed once per component.  In (a) a pair is the vertex
mask of its two colours, and ``two_color.pair_topology`` reads its sinks,
pieces and thinness classes off the vertices' neighbourhood masks, with no
subgraph copy.  In (b) ``build`` reads the glue of the informative triples
off the out-neighbourhoods split by colour (``triples.color_masks``), and
the pair notes count each pair's triples from the same masks.

There is exactly one acceptance gate: the candidate tree of the whole graph
must reproduce the input arc for arc under the subtree-range engine
``bmg_of_tree``, and a ``graph-mismatch`` rejection names the smallest arc
``(x, y)`` on which the two differ.  No gate runs per colour pair or per
component.  Per pair none is needed, since a pair that passes axioms N1-N3
is a best match graph explained by its hierarchy topology; and the BMG of a
tree restricted to two colours is the tree's BMG restricted to their leaves,
so the global comparison also catches any pair the candidate fails.  A
``2cbmg-failure`` witness is the pair's own ``Rejection``; the colour pair
is recorded in ``pair_verdicts``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .bmg import bmg_of_tree
# induced_subgraph, informative_triples and lrt_via_hierarchy stay bound here:
# perfbench/layers.py traces them by these names
from .digraph import (  # noqa: F401
    ColoredDigraph,
    connected_components,
    first_arc_difference,
    induced_subgraph,
    subgraph_on,
    thinness_partition,
)
from .errors import GraphError
from .tree import LeafColoredTree, Topology
from .triples import (  # noqa: F401
    build,
    build_from_trees,
    color_masks,
    informative_triple_counts,
    informative_triples,
)
from .two_color import lrt_via_hierarchy, pair_topology, vertex_masks  # noqa: F401
from .verdicts import Rejection

ROUTES = ("pairwise-lrt", "informative-direct")


@dataclass
class RecognitionReport:
    """Everything the recognizer decided, with per-stage wall times."""

    accepted: bool
    route: str
    stage: str | None = None
    witness: object = None
    lrt: LeafColoredTree | None = None
    components: tuple[tuple[str, ...], ...] = ()
    pair_verdicts: dict[tuple[int, tuple[str, str]], str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    note: str | None = None

    @property
    def rejection(self) -> Rejection | None:
        return None if self.accepted else Rejection(self.stage or "unknown", self.witness)


def recognize_ncbmg(graph: ColoredDigraph, route: str = "pairwise-lrt") -> RecognitionReport:
    if route not in ROUTES:
        raise GraphError(f"unknown route {route!r}; pick one of {ROUTES}")
    report = RecognitionReport(accepted=False, route=route)
    clock = time.perf_counter

    t0 = clock()
    bad = graph.same_color_arc()
    if bad is not None:
        i, j = bad
        report.stage = "same-color-arc"
        report.witness = (graph.vertex_ids[i], graph.vertex_ids[j])
        return report
    comps = connected_components(graph)
    report.components = tuple(tuple(graph.vertex_ids[v] for v in comp) for comp in comps)
    color_sets = [
        frozenset(graph.color_name(v) for v in comp) for comp in comps
    ]
    for k in range(1, len(color_sets)):
        if color_sets[k] != color_sets[0]:
            report.stage = "component-color-mismatch"
            report.witness = (report.components[0], report.components[k])
            return report
    report.timings["structure"] = clock() - t0

    if len(graph.color_ids) == 1:
        # no arcs can exist; any tree explains the graph, star is least resolved
        topo: Topology = (
            graph.vertex_ids[0] if len(graph) == 1 else tuple(graph.vertex_ids)
        )
        report.lrt = LeafColoredTree(topo, graph.colors_as_dict())
        report.accepted = True
        report.note = "single-color: edge-less graph, star tree"
        return report

    t0 = clock()
    comp_topologies: list[Topology] = []
    for ci, comp in enumerate(comps):
        sub = graph if len(comps) == 1 else subgraph_on(graph, comp)
        outcome = _recognize_component(sub, ci, route, report)
        if isinstance(outcome, Rejection):
            report.stage = outcome.stage
            report.witness = outcome.witness
            return report
        comp_topologies.append(outcome)
    report.timings["components"] = clock() - t0

    t0 = clock()
    topology = comp_topologies[0] if len(comp_topologies) == 1 else tuple(comp_topologies)
    candidate = LeafColoredTree(topology, graph.colors_as_dict())
    mismatch = first_arc_difference(graph, bmg_of_tree(candidate))
    if mismatch is not None:
        report.stage = "graph-mismatch"
        report.witness = mismatch
        return report
    report.timings["gate"] = clock() - t0
    report.accepted = True
    report.lrt = candidate
    return report


def _recognize_component(
    sub: ColoredDigraph, ci: int, route: str, report: RecognitionReport
) -> Topology | Rejection:
    """Candidate topology of one component; no tree is built and no gate
    runs here, the caller's global comparison is the only one."""
    if route == "informative-direct":
        masks = color_masks(sub)
        counts = informative_triple_counts(masks)
        names = sub.color_ids
        for s, t in itertools.combinations(range(len(names)), 2):
            report.pair_verdicts[(ci, (names[s], names[t]))] = (
                f"{counts.get((s, t), 0)} informative triples"
            )
        topo = build(masks, sub.vertex_ids)
    else:
        outs, ins = vertex_masks(sub)
        by_color = [0] * len(sub.color_ids)
        for v, c in enumerate(sub.color_of):
            by_color[c] |= 1 << v
        colors = sub.colors_as_dict()
        pair_trees: list[LeafColoredTree] = []
        for (s, first), (t, second) in itertools.combinations(zip(sub.color_ids, by_color), 2):
            tree = _pair_lrt(sub, colors, outs, ins, first | second)
            if isinstance(tree, Rejection):
                report.pair_verdicts[(ci, (s, t))] = f"failed: {tree.stage}"
                return Rejection("2cbmg-failure", tree)
            report.pair_verdicts[(ci, (s, t))] = "2-cBMG"
            pair_trees.append(tree)
        topo = build_from_trees(pair_trees, sub.vertex_ids)
    if topo is None:
        return Rejection("triples-inconsistent", tuple(sub.vertex_ids))
    return topo


def _pair_lrt(
    sub: ColoredDigraph, colors: dict[str, str], outs: list[int], ins: list[int], pair: int
) -> LeafColoredTree | Rejection:
    """Least resolved tree of the colour pair whose vertex mask is ``pair``,
    read off the component's masks; the one tree BUILD takes for the pair."""
    topology = pair_topology(sub, outs, ins, pair)
    return topology if isinstance(topology, Rejection) else LeafColoredTree(topology, colors)


def class_roots_per_color(
    tree: LeafColoredTree, graph: ColoredDigraph
) -> dict[int, set[str]]:
    """Map tree node -> colors s such that some class has its color-s root there.

    Verifies along the way that each color-s neighborhood is exactly the
    color-s leaf set of the subtree below that root (a property of every
    explaining tree).
    """
    part = thinness_partition(graph)
    roots_at: dict[int, set[str]] = {}
    for a in range(len(part)):
        class_nodes = [tree.leaf_node(graph.vertex_ids[v]) for v in part.classes[a]]
        out = part.vertex_out(a)
        for s in graph.color_ids:
            targets = [v for v in out if graph.color_name(v) == s]
            if not targets:
                continue
            target_nodes = [tree.leaf_node(graph.vertex_ids[v]) for v in targets]
            rho = tree.lca_set(class_nodes + target_nodes)
            below = {
                tree.label[w]
                for w in tree.leaves_under(rho)
                if graph.color_name(graph.index_of[tree.label[w]]) == s
            }
            if below != {graph.vertex_ids[v] for v in targets}:
                raise GraphError(
                    f"color-{s} neighborhood of {part.class_ids(a)} is not a subtree"
                    " slice; the tree cannot explain the graph"
                )
            roots_at.setdefault(rho, set()).add(s)
    return roots_at


def redundant_edges_n(tree: LeafColoredTree, graph: ColoredDigraph) -> frozenset[tuple[int, int]]:
    """Inner edges contractible without changing the explained graph: the
    lower end is no color-s class root for any color s seen outside the
    lower subtree but inside the upper one."""
    if bmg_of_tree(tree) != graph:
        raise GraphError("tree does not explain the given graph")
    roots_at = class_roots_per_color(tree, graph)
    cindex = {c: k for k, c in enumerate(tree.color_universe)}
    redundant = []
    for u, v in tree.inner_edges():
        sibling_mask = 0
        for c in tree.children[u]:
            if c != v:
                sibling_mask |= tree.color_mask(c)
        marked = roots_at.get(v, ())
        if not any(sibling_mask >> cindex[s] & 1 for s in marked):
            redundant.append((u, v))
    return frozenset(redundant)
