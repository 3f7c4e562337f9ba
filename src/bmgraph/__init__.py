"""Colored best match graphs: construction, recognition, least resolved trees."""

from .digraph import (
    ColoredDigraph,
    ColoredGraph,
    ThinnessPartition,
    connected_components,
    induced_subgraph,
    subgraph_on,
    symmetric_part,
    thinness_partition,
)
from .errors import BmgraphError, GraphError, ParseError, TreeError
from .tree import LeafColoredTree, Topology
from .bmg import SimulationConfig, bmg_of_tree, bmg_oracle, rbmg_of_tree, simulate
from .two_color import (
    ClassNeighborhoodTables,
    Hierarchy,
    check_axioms,
    class_reachable_set,
    extended_reachable_set,
    lrt_via_hierarchy,
    neighborhood_tables,
    reachable_set,
)
from .triples import (
    RootedTriple,
    TripleSet,
    build,
    build_from_trees,
    informative_triples,
)
from .n_color import RecognitionReport, recognize_ncbmg, redundant_edges_n
from .rbmg import check_2crbmg_necessary
from .verdicts import CheckResult, Rejection

__version__ = "0.1.0"

__all__ = [
    "BmgraphError",
    "CheckResult",
    "ClassNeighborhoodTables",
    "ColoredDigraph",
    "ColoredGraph",
    "GraphError",
    "Hierarchy",
    "LeafColoredTree",
    "ParseError",
    "RecognitionReport",
    "Rejection",
    "RootedTriple",
    "SimulationConfig",
    "ThinnessPartition",
    "Topology",
    "TreeError",
    "TripleSet",
    "bmg_of_tree",
    "bmg_oracle",
    "build",
    "build_from_trees",
    "check_2crbmg_necessary",
    "check_axioms",
    "class_reachable_set",
    "connected_components",
    "extended_reachable_set",
    "induced_subgraph",
    "informative_triples",
    "lrt_via_hierarchy",
    "neighborhood_tables",
    "reachable_set",
    "recognize_ncbmg",
    "redundant_edges_n",
    "rbmg_of_tree",
    "simulate",
    "subgraph_on",
    "symmetric_part",
    "thinness_partition",
]
