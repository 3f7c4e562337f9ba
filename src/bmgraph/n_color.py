"""Recognition of n-colored best match graphs and their least resolved trees.

Pipeline: reject same-color arcs, split into weakly connected components
and require equal color sets; these are the only structure checks.  Then per
component either (a) recognize the two-colored graph of every color pair,
take its unique least resolved tree, and feed all pair trees to a supertree
BUILD, or (b) run BUILD on the union of the pairwise informative triples.
Every vertex set handed on is a bitset of vertex indices; only report
fields and witnesses name ids.  ``connected_components`` gives each
component as a mask, passed on unchanged as ``ground``, and both routes
read the input graph's own bitset adjacency and its colour classes, so
nothing is copied.  The colour classes ``graph.color_masks`` give each
component's colour set and the colour pairs, which are built once per
graph.  In (a) a pair is the mask ``(first | second) & ground``,
and ``two_color.pair_topology`` reads its sinks, pieces and thinness
classes off the out- and in-bitsets and returns its tree as a cluster
family over vertex bitsets, which holds the tree's inner nodes only;
``build_from_trees`` glues from those families on ``ground``, so no pair
tree is ever built.  In (b) ``build(graph, ground, counts)`` walks the
component's vertices once, taking each N_t(a) = ``out & L_t`` on the fly:
it glues once per (t, N_t) group, keeping no table, and on the direct route
alone counts each colour pair's informative triples for the pair notes.

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

On three or more colours route (a) first gates the candidate of (b), built
without pair notes.  A best match graph has exactly one least resolved
tree, and both candidates are that tree, so on acceptance (a) returns the
tree it would have built and notes every colour pair as a 2-cBMG, which
each colour pair of a best match graph is; no pair body runs.  Only when
the gate rejects does (a) run, from the same components, so its stage,
witness and pair notes are its own.  This direct attempt's BUILD does not
stop at a level that does not split: it forces the level (``build``'s
``forced``), so a tree always reaches the gate, and a forced tree is never
accepted.  The gate's forward graph names, per component, the colour pairs
on which it differs from the input.  On every other pair the input is the
best match graph of that tree induced on two colours, which is the best
match graph of the tree restricted to them, so the pair is a 2-cBMG: (a)
notes it without running its body and runs the others in order up to the
first failure.  When no pair of a component fails, its BUILD decides, and
two cases need none:
- A component the tree explains in full is a best match graph: each of
  its vertices has all its best matches in it, so it is the best match
  graph of the tree restricted to its leaves.  It never rejects, so its
  skipped bodies and BUILD run last, only when no other component rejects.
- A component on which the direct attempt forced a level has informative
  triples that no tree displays.  Each pair tree explains its pair, so it
  displays that pair's informative triples, and no tree displays all pair
  trees: the pair BUILD would fail, and (a) rejects the component as
  ``triples-inconsistent`` without the skipped bodies.
Otherwise the skipped bodies run for the BUILD.  With one colour pair the
pair body already gives the whole candidate, so on two colours (a) runs
alone.

Recognition has one exit: each stage before the gate returns the candidate
topology or a ``Rejection``, and ``recognize_ncbmg`` writes the verdict once;
each stage reached writes its wall time, also when it rejects; a rejected
direct attempt's ``components`` and ``gate`` times go to ``direct-attempt``.
A single-colour graph takes the same path: without same-colour arcs it has
no arc, each vertex is a component of its own, and the gate accepts their star.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .bmg import bmg_of_tree
# induced_subgraph, subgraph_on, informative_triples and lrt_via_hierarchy
# stay bound here: perfbench/layers.py traces them by these names
from .digraph import (  # noqa: F401
    ColoredDigraph,
    bits,
    connected_components,
    first_arc_difference,
    induced_subgraph,
    subgraph_on,
)
from .errors import GraphError
from .tree import LeafColoredTree, Topology
from .triples import build, build_from_trees, informative_triples  # noqa: F401
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
    outcome = comps = _structure(graph, report)
    if isinstance(comps, Rejection):
        attempts = []
    elif route == "pairwise-lrt" and len(graph.color_ids) > 2:
        attempts = [None, route]  # the direct candidate first, the pair layer only after its rejection
    else:
        attempts = [route]
    unexplained: list[set[tuple[str, str]]] | None = None  # per component, from a rejected direct tree
    stuck: list[bool] | None = None  # per component, whether that tree's BUILD forced a level there
    for attempt in attempts:
        forced: list[int] | None = [] if attempt is None else None
        outcome = _candidate(graph, comps, attempt, report, forced, unexplained, stuck)
        if not isinstance(outcome, Rejection):
            with _timed(report, "gate"):
                candidate = LeafColoredTree(outcome, graph.colors_as_dict())
                forward = bmg_of_tree(candidate)
                mismatch = first_arc_difference(graph, forward)
                if attempt is None and (mismatch is not None or forced):
                    unexplained = _unexplained_pairs(graph, forward, comps)
                    stuck = [any(level & comp for level in forced) for comp in comps]
            accepted = mismatch is None and not forced  # a forced tree is never accepted
            outcome = candidate if accepted else Rejection("graph-mismatch", mismatch)
        if not isinstance(outcome, Rejection):
            break
        if attempt is None:  # so that components and gate time the pair layer alone
            timings = report.timings
            timings["direct-attempt"] = timings.pop("components") + timings.pop("gate", 0.0)
    if isinstance(outcome, Rejection):
        report.stage, report.witness = outcome.stage, outcome.witness
    else:
        report.accepted, report.lrt = True, outcome
        if len(graph.color_ids) == 1:
            report.note = "single-color: edge-less graph, star tree"
        if attempt is None:  # every colour pair of a best match graph is a 2-cBMG
            pairs = list(itertools.combinations(graph.color_ids, 2))
            report.pair_verdicts = {(ci, pair): "2-cBMG" for ci in range(len(comps)) for pair in pairs}
    return report


@contextmanager
def _timed(report: RecognitionReport, stage: str) -> Iterator[None]:
    """Write the block's wall time to ``report.timings[stage]``, early
    returns included."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.timings[stage] = time.perf_counter() - t0


def _structure(graph: ColoredDigraph, report: RecognitionReport) -> list[int] | Rejection:
    """The structure checks: the components' vertex masks, or the first rejection."""
    with _timed(report, "structure"):
        bad = graph.same_color_arc()
        if bad is not None:
            return Rejection("same-color-arc", tuple(graph.vertex_ids[v] for v in bad))
        comps = connected_components(graph)
        ids, by_color = graph.vertex_ids, graph.color_masks
        report.components = tuple(tuple(ids[v] for v in bits(comp)) for comp in comps)
        met = [bool(mask & comps[0]) for mask in by_color]
        for k in range(1, len(comps)):
            if [bool(mask & comps[k]) for mask in by_color] != met:
                return Rejection("component-color-mismatch", (report.components[0], report.components[k]))
        return comps


def _candidate(
    graph: ColoredDigraph,
    comps: list[int],
    route: str | None,
    report: RecognitionReport,
    forced: list[int] | None,
    unexplained: list[set[tuple[str, str]]] | None,
    stuck: list[bool] | None,
) -> Topology | Rejection:
    """The candidate topologies of the components joined under one root, or
    the first rejection.  ``route`` None is the pairwise route's direct
    attempt: the direct route's BUILD, which counts no triples and forces
    each level that does not split into the list ``forced``.  Per component,
    ``unexplained`` names the colour pairs a rejected direct tree differs on
    and ``stuck`` whether its BUILD forced a level there.  A component that
    tree explains in full never rejects (see above), so its pair bodies and
    BUILD wait until every other component has passed."""
    with _timed(report, "components"):
        pairs: ColorPairs | None = None
        if route == "pairwise-lrt":
            named = zip(graph.color_ids, graph.color_masks)
            pairs = [(s, t, first | second) for (s, first), (t, second) in itertools.combinations(named, 2)]
        topologies: list[Topology | None] = []
        for ci, comp in enumerate(comps):
            vouch = None if unexplained is None else unexplained[ci]
            outcome = _recognize_component(graph, comp, ci, pairs, report, forced, vouch, bool(stuck and stuck[ci]))
            if isinstance(outcome, Rejection):
                return outcome
            topologies.append(outcome)
        for ci, topo in enumerate(topologies):
            if topo is None:  # a best match graph: it passes, its notes written again unchanged and in place
                topologies[ci] = _recognize_component(graph, comps[ci], ci, pairs, report, None, None, False)
        return tuple(topologies)  # a lone component's root is unwrapped by the tree


def _recognize_component(
    graph: ColoredDigraph,
    ground: int,
    ci: int,
    pairs: ColorPairs | None,
    report: RecognitionReport,
    forced: list[int] | None,
    unexplained: set[tuple[str, str]] | None,
    stuck: bool,
) -> Topology | Rejection | None:
    """Candidate topology of the component with vertex mask ``ground``.  The
    pairwise route hands in the graph's colour pairs as vertex masks; the
    direct route hands in None, and without ``forced`` its one BUILD call
    also counts each colour pair's informative triples for the pair notes;
    the pairwise route's direct attempt hands in the list ``forced`` instead.
    A pair outside ``unexplained``, when given, is a 2-cBMG (see above) and
    runs its body only for the BUILD of a component with no failing pair.
    When no pair fails, a ``stuck`` component is ``triples-inconsistent``
    without its BUILD, and an empty ``unexplained`` gives None: the
    component is a best match graph, and the caller runs it again without
    ``unexplained`` once its topology is needed.  No tree is built and no
    gate runs here, the caller's global comparison is the only one."""
    if pairs is None:
        counts: dict[tuple[int, int], int] | None = {} if forced is None else None
        topo = build(graph, ground, counts, forced)
        if counts is not None:
            for (s, first), (t, second) in itertools.combinations(enumerate(graph.color_ids), 2):
                report.pair_verdicts[(ci, (first, second))] = f"{counts.get((s, t), 0)} informative triples"
    else:
        families, skipped = [], []
        for s, t, pair in pairs:
            if unexplained is not None and (s, t) not in unexplained:
                skipped.append(len(families))
                family = pair & ground
            else:
                family = pair_topology(graph, pair & ground)
                if isinstance(family, Rejection):
                    report.pair_verdicts[(ci, (s, t))] = f"failed: {family.stage}"
                    return Rejection("2cbmg-failure", family)
            report.pair_verdicts[(ci, (s, t))] = "2-cBMG"
            families.append(family)
        if stuck:
            return Rejection("triples-inconsistent", report.components[ci])
        if unexplained is not None and not unexplained:
            return None
        for k in skipped:
            families[k] = pair_topology(graph, families[k])
        topo = build_from_trees(families, graph.vertex_ids, ground)
    if topo is None:
        return Rejection("triples-inconsistent", report.components[ci])
    return topo


def _unexplained_pairs(graph: ColoredDigraph, forward: ColoredDigraph, comps: list[int]) -> list[set[tuple[str, str]]]:
    """Per component, the colour pairs ``(s, t)``, in colour order, on which
    ``forward``, on the vertices of ``graph``, and ``graph`` differ: one XOR
    per vertex, and one step per colour a difference meets."""
    color_of, by_color, names = graph.color_of, graph.color_masks, graph.color_ids
    found = []
    for comp in comps:
        here = set()
        for v in bits(comp):
            diff, s = graph.out_masks[v] ^ forward.out_masks[v], color_of[v]
            while diff:
                t = color_of[(diff & -diff).bit_length() - 1]
                diff &= ~by_color[t]
                here.add((names[s], names[t]) if s < t else (names[t], names[s]))
        found.append(here)
    return found


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
