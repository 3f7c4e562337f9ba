"""Necessary condition for two-colored reciprocal best match graphs."""

import itertools

import pytest

from bmgraph import (
    ColoredDigraph,
    GraphError,
    check_2crbmg_necessary,
    induced_subgraph,
    recognize_ncbmg,
    symmetric_part,
)
from cases import counterex_sym_graph, countercog_tree, p4_path
from util import connected_scenario, edge_ids, rbmg_of_tree, undirected_graph


def test_single_edge_passes():
    h = undirected_graph({"x": "r", "y": "b"}, [("x", "y")])
    assert check_2crbmg_necessary(h)


def test_path_of_length_three_fails():
    verdict = check_2crbmg_necessary(p4_path())
    assert not verdict
    assert verdict.stage == "not-complete-bipartite"
    assert verdict.witness == ("u", "v", "w", "x")


def test_isolated_vertices_pass_vacuously():
    h = undirected_graph({"x": "r", "y": "b", "z": "b"}, [("x", "y")])
    assert check_2crbmg_necessary(h)


def test_same_color_edge_is_an_input_error():
    h = undirected_graph({"x": "r", "y": "r", "z": "b"}, [("x", "y"), ("x", "z")])
    with pytest.raises(GraphError):
        check_2crbmg_necessary(h)
    with pytest.raises(GraphError):
        check_2crbmg_necessary(undirected_graph({"x": "r"}, []))


def test_non_symmetric_digraph_is_an_input_error():
    one_way = ColoredDigraph({"x": "r", "y": "b", "z": "b"}, [("x", "y"), ("y", "x"), ("x", "z")])
    with pytest.raises(GraphError, match="check expects a two-colored undirected graph"):
        check_2crbmg_necessary(one_way)
    assert check_2crbmg_necessary(symmetric_part(one_way))


def test_simulated_two_color_symmetric_parts_pass():
    for seed in range(60):
        tree, _ = connected_scenario(seed)
        assert check_2crbmg_necessary(rbmg_of_tree(tree))


def test_countercog_scenario_fails_as_two_colored_path():
    sym = rbmg_of_tree(countercog_tree())
    assert edge_ids(sym) == {("u", "v"), ("v", "x"), ("w", "x")}
    # same shape with two alternating colors: fails the necessary condition
    assert not check_2crbmg_necessary(p4_path())


def test_counterex_sym_pair_of_assertions():
    graph = counterex_sym_graph()
    for s, t in itertools.combinations(graph.color_ids, 2):
        sub = symmetric_part(induced_subgraph(graph, {s, t}))
        assert check_2crbmg_necessary(sub)
    assert not recognize_ncbmg(graph).accepted
