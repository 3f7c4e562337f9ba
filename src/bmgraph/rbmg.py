"""Reciprocal best match graphs: the two-color structural necessary condition.

Every two-colored reciprocal best match graph is a disjoint union of complete
bipartite graphs.  The converse fails, so a pass here proves nothing; a fail
is a definite rejection.  An undirected graph is a symmetric digraph, which
holds both arcs of each edge.
"""

from __future__ import annotations

from .digraph import ColoredDigraph, bits, connected_components
from .errors import GraphError
from .verdicts import CheckResult


def check_2crbmg_necessary(graph: ColoredDigraph) -> CheckResult:
    """Check that every component with an edge of a symmetric two-colored
    digraph is complete bipartite across its two color sides; an edge-less
    component is a single vertex, with one side empty, and passes."""
    if len(graph.color_ids) != 2 or graph.out_masks != graph.in_masks:
        raise GraphError("check expects a two-colored undirected graph")
    bad = graph.same_color_arc()  # the smaller end first, as the graph is symmetric
    if bad is not None:
        i, j = bad
        raise GraphError(f"same-color edge {graph.vertex_ids[i]!r}-{graph.vertex_ids[j]!r}")
    first_color = graph.color_masks[0]
    for comp in connected_components(graph):
        arc_count = sum(graph.out_masks[v].bit_count() for v in bits(comp))
        side = (comp & first_color).bit_count()
        if arc_count != 2 * side * (comp.bit_count() - side):
            return CheckResult(False, "not-complete-bipartite", tuple(graph.vertex_ids[v] for v in bits(comp)))
    return CheckResult(True)
