"""Property-based tests (hypothesis) for the routing substrate.

Graphs are drawn as a Hamiltonian cycle plus random chords (always
biconnected) with quantized costs so that ties are frequent -- ties are
where tie-breaking bugs live.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.asgraph import ASGraph
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.avoiding import avoiding_tree
from repro.routing.dijkstra import route_tree
from repro.routing.engines import get_engine


@st.composite
def biconnected_graphs(draw, min_nodes=4, max_nodes=10):
    n = draw(st.integers(min_nodes, max_nodes))
    # quantized costs in {0, 0.5, ..., 5} -> many exact ties
    costs = draw(
        st.lists(
            st.integers(0, 10).map(lambda v: v / 2.0),
            min_size=n, max_size=n,
        )
    )
    chord_pool = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if not (i == 0 and j == n - 1)]
    chords = draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=8)) if chord_pool else []
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


@settings(max_examples=40, deadline=None)
@given(biconnected_graphs())
def test_tree_paths_are_real_and_cost_consistent(graph):
    for destination in graph.nodes:
        tree = route_tree(graph, destination)
        for source in tree.sources():
            path = tree.path(source)
            # a real simple path in the graph...
            assert graph.path_cost(path) == pytest.approx(tree.cost(source))
            # ...ending at the destination
            assert path[0] == source and path[-1] == destination


@settings(max_examples=40, deadline=None)
@given(biconnected_graphs())
def test_suffix_consistency_makes_a_tree(graph):
    for destination in graph.nodes:
        tree = route_tree(graph, destination)
        for source in tree.sources():
            path = tree.path(source)
            for index in range(1, len(path) - 1):
                assert tree.path(path[index]) == path[index:]


@settings(max_examples=40, deadline=None)
@given(biconnected_graphs())
def test_lcp_cost_is_minimal_over_tree_alternatives(graph):
    # any neighbor-based alternative route is no better
    routes = all_pairs_lcp(graph)
    for destination in graph.nodes:
        tree = routes.tree(destination)
        for source in tree.sources():
            best = tree.cost(source)
            for neighbor in graph.neighbors(source):
                if neighbor == destination:
                    assert best <= 0.0 + 1e-12
                    continue
                via = tree.cost(neighbor) + graph.cost(neighbor)
                assert best <= via + 1e-9


@settings(max_examples=30, deadline=None)
@given(biconnected_graphs())
def test_avoiding_cost_dominates_lcp_cost(graph):
    routes = all_pairs_lcp(graph)
    for destination in graph.nodes:
        tree = routes.tree(destination)
        for source in tree.sources():
            for k in tree.path(source)[1:-1]:
                detour = avoiding_tree(graph, destination, k)
                if detour.has_route(source):
                    assert detour.cost(source) >= tree.cost(source) - 1e-9
                    assert k not in detour.path(source)


@settings(max_examples=30, deadline=None)
@given(biconnected_graphs())
def test_flat_engine_matches_reference(graph):
    routes = all_pairs_lcp(graph)
    costs = get_engine("flat").cost_matrix(graph)
    for (source, destination), _path in routes.paths.items():
        assert costs.cost(source, destination) == pytest.approx(
            routes.cost(source, destination)
        )


@settings(max_examples=30, deadline=None)
@given(biconnected_graphs())
def test_cost_symmetry(graph):
    routes = all_pairs_lcp(graph)
    for source in graph.nodes:
        for destination in graph.nodes:
            if source < destination:
                assert routes.cost(source, destination) == pytest.approx(
                    routes.cost(destination, source)
                )
