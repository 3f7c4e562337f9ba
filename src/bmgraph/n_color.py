"""Recognition of n-colored best match graphs and their least resolved trees.

Pipeline: reject same-color arcs, split into weakly connected components and
require equal color sets; these are the only structure checks.  Then per
component either (a) recognize the two-colored graph of every color pair,
take its unique least resolved tree, and feed all pair trees to a supertree
BUILD, or (b) run BUILD on the union of the pairwise informative triples.
Both read bitsets computed once per component.  In (a) a pair is the vertex
mask of its two colours, and ``two_color.pair_topology`` reads its sinks,
pieces and thinness classes off the vertices' neighbourhood masks, with no
subgraph copy, and returns its tree as a cluster family over the same vertex
bitsets; ``build_from_trees`` glues from those families, so no pair tree is
ever built.  In (b) ``build`` reads the glue of the informative triples
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
        families = []
        for (s, first), (t, second) in itertools.combinations(zip(sub.color_ids, by_color), 2):
            family = pair_topology(sub, outs, ins, first | second)
            if isinstance(family, Rejection):
                report.pair_verdicts[(ci, (s, t))] = f"failed: {family.stage}"
                return Rejection("2cbmg-failure", family)
            report.pair_verdicts[(ci, (s, t))] = "2-cBMG"
            families.append(family)
        topo = build_from_trees(families, sub.vertex_ids)
    if topo is None:
        return Rejection("triples-inconsistent", tuple(sub.vertex_ids))
    return topo


def redundant_edges_n(tree: LeafColoredTree, graph: ColoredDigraph) -> frozenset[tuple[int, int]]:
    """Inner edges contractible without changing the explained graph: (u, v)
    is redundant exactly when v is no leaf's colour-s root for a colour s
    below a sibling of v.  A leaf's colour-s root is its lowest ancestor with
    colour s below, as on the walk of ``bmg_of_tree``."""
    if bmg_of_tree(tree) != graph:
        raise GraphError("tree does not explain the given graph")
    parent, cmask = tree.parent, tree._colormask
    full = cmask[tree.root]
    rooted = [0] * len(parent)  # per node, the colours it is some leaf's root for
    for lab in tree.leaf_labels:
        v = tree.leaf_node(lab)
        seen = cmask[v]
        while seen != full:
            v = parent[v]
            rooted[v] |= cmask[v] & ~seen
            seen |= cmask[v]
    return frozenset(
        (u, v)
        for u, v in tree.inner_edges()
        if not any(rooted[v] & cmask[c] for c in tree.children[u] if c != v)
    )
