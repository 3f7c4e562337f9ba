"""Recognition of n-colored best match graphs and their least resolved trees.

Pipeline: reject same-color arcs, split into weakly connected components
and require equal color sets; these are the only structure checks.  Then per
component either (a) recognize the two-colored graph of every color pair,
take its unique least resolved tree, and feed all pair trees to a supertree
BUILD, or (b) run BUILD on the union of the pairwise informative triples.
A component is a vertex mask ``ground`` of the input graph, and both read
the input graph's own bitset adjacency: no component or pair is copied, and
every vertex keeps its one index.  The colour bitsets are taken once per
graph.  In (a) a pair is the vertex mask ``(first | second) & ground`` of
its two colours, and ``two_color.pair_topology`` reads its sinks, pieces
and thinness classes off the vertices' out- and in-bitsets and returns its
tree as a cluster family over the same vertex bitsets;
``build_from_trees`` glues from those families on the leaf set ``ground``,
so no pair tree is ever built.  In (b) ``build`` reads the glue of the
informative triples off the out-neighbourhoods split by colour
(``triples.color_masks``, taken once per graph), and the pair notes count
each pair's triples inside ``ground`` from the same masks.

There is exactly one acceptance gate: the candidate tree of the whole graph
must reproduce the input arc for arc under the forward engine
``bmg_of_tree``, one bitset comparison per vertex, and a ``graph-mismatch``
rejection names the smallest arc ``(x, y)`` on which the two differ.  No
gate runs per colour pair or per component.  Per pair none is needed, since
a pair that passes axioms N1-N3 is a best match graph explained by its
hierarchy topology; and the BMG of a tree restricted to two colours is the
tree's BMG restricted to their leaves, so the global comparison also
catches any pair the candidate fails.  A ``2cbmg-failure`` witness is the
pair's own ``Rejection``; the colour pair is recorded in ``pair_verdicts``.

Recognition has one exit: each stage before the gate returns the candidate
topology or a ``Rejection``, and ``recognize_ncbmg`` writes the verdict once.
A single-colour graph takes the same path: without same-colour arcs it has
no arc, each vertex is a component of its own, and the gate accepts their star.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .bmg import bmg_of_tree
# induced_subgraph, subgraph_on, informative_triples and lrt_via_hierarchy
# stay bound here: perfbench/layers.py traces them by these names
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
    ColorMasks,
    build,
    build_from_trees,
    color_masks,
    informative_triple_counts,
    informative_triples,
)
from .two_color import lrt_via_hierarchy, pair_topology  # noqa: F401
from .verdicts import Rejection

ROUTES = ("pairwise-lrt", "informative-direct")

# The colour pairs ``(s, t, mask)`` of a graph, ``mask`` holding the vertices
# of both colours.
ColorPairs = list[tuple[str, str, int]]


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
        return None if self.accepted else Rejection(self.stage, self.witness)


def recognize_ncbmg(graph: ColoredDigraph, route: str = "pairwise-lrt") -> RecognitionReport:
    if route not in ROUTES:
        raise GraphError(f"unknown route {route!r}; pick one of {ROUTES}")
    report = RecognitionReport(accepted=False, route=route)
    outcome = _candidate(graph, route, report)
    if not isinstance(outcome, Rejection):
        t0 = time.perf_counter()
        candidate = LeafColoredTree(outcome, graph.colors_as_dict())
        mismatch = first_arc_difference(graph, bmg_of_tree(candidate))
        if mismatch is None:
            report.timings["gate"] = time.perf_counter() - t0
        outcome = candidate if mismatch is None else Rejection("graph-mismatch", mismatch)
    if isinstance(outcome, Rejection):
        report.stage, report.witness = outcome.stage, outcome.witness
    else:
        report.accepted, report.lrt = True, outcome
        if len(graph.color_ids) == 1:
            report.note = "single-color: edge-less graph, star tree"
    return report


def _candidate(graph: ColoredDigraph, route: str, report: RecognitionReport) -> Topology | Rejection:
    """The structure checks, then the candidate topologies of the components
    joined under one root, or the first rejection."""
    t0 = time.perf_counter()
    bad = graph.same_color_arc()
    if bad is not None:
        return Rejection("same-color-arc", tuple(graph.vertex_ids[v] for v in bad))
    comps = connected_components(graph)
    report.components = tuple(tuple(graph.vertex_ids[v] for v in comp) for comp in comps)
    color_sets = [
        frozenset(graph.color_name(v) for v in comp) for comp in comps
    ]
    for k in range(1, len(color_sets)):
        if color_sets[k] != color_sets[0]:
            return Rejection("component-color-mismatch", (report.components[0], report.components[k]))
    report.timings["structure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    shared: ColorMasks | ColorPairs
    if route == "informative-direct":
        shared = color_masks(graph)
    else:
        named = zip(graph.color_ids, graph.color_bitsets())
        shared = [(s, t, first | second) for (s, first), (t, second) in itertools.combinations(named, 2)]
    topologies: list[Topology] = []
    for ci, comp in enumerate(comps):
        outcome = _recognize_component(graph, sum(1 << v for v in comp), ci, shared, report)
        if isinstance(outcome, Rejection):
            return outcome
        topologies.append(outcome)
    report.timings["components"] = time.perf_counter() - t0
    return tuple(topologies)  # a lone component's root is unwrapped by the tree


def _recognize_component(
    graph: ColoredDigraph,
    ground: int,
    ci: int,
    shared: ColorMasks | ColorPairs,
    report: RecognitionReport,
) -> Topology | Rejection:
    """Candidate topology of the component with vertex mask ``ground``, from
    what the route shares across components: the graph's ``ColorMasks`` on
    the direct route, its colour pairs as vertex masks on the pairwise one.
    No tree is built and no gate runs here, the caller's global comparison
    is the only one."""
    if isinstance(shared, ColorMasks):
        counts = informative_triple_counts(shared, ground)
        names = graph.color_ids
        for s, t in itertools.combinations(range(len(names)), 2):
            report.pair_verdicts[(ci, (names[s], names[t]))] = (
                f"{counts.get((s, t), 0)} informative triples"
            )
        topo = build(shared, report.components[ci])
    else:
        families = []
        for s, t, pair in shared:
            family = pair_topology(graph, pair & ground)
            if isinstance(family, Rejection):
                report.pair_verdicts[(ci, (s, t))] = f"failed: {family.stage}"
                return Rejection("2cbmg-failure", family)
            report.pair_verdicts[(ci, (s, t))] = "2-cBMG"
            families.append(family)
        topo = build_from_trees(families, graph.vertex_ids, ground)
    if topo is None:
        return Rejection("triples-inconsistent", report.components[ci])
    return topo


def redundant_edges_n(tree: LeafColoredTree, graph: ColoredDigraph) -> frozenset[tuple[int, int]]:
    """Inner edges contractible without changing the explained graph: (u, v)
    is redundant exactly when v is no leaf's colour-s root for a colour s
    below a sibling of v.  A leaf's colour-s root is its lowest ancestor with
    colour s below, so, as in ``bmg_of_tree``, a node p is the colour-s root
    of the leaves below a child v exactly for s in ``cmask[p] & ~cmask[v]``."""
    if bmg_of_tree(tree) != graph:
        raise GraphError("tree does not explain the given graph")
    parent, cmask = tree.parent, tree._colormask
    rooted = [0] * len(parent)  # per node, the colours it is some leaf's root for
    for v in range(1, len(parent)):
        rooted[parent[v]] |= cmask[parent[v]] & ~cmask[v]
    return frozenset(
        (u, v)
        for u, v in tree.inner_edges()
        if not any(rooted[v] & cmask[c] for c in tree.children[u] if c != v)
    )
