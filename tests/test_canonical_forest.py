"""Canonical parent forests must reproduce ``route_tree`` bit for bit.

:mod:`repro.routing.forests` derives every destination's selected-LCP
tree from batched scipy solves instead of the pure-Python generalized
Dijkstra.  The contract is exact equality with the reference, not
agreement up to ties: the same parent for every source, the same cost
float (bits, not ``costs_close``), the same hop count, and -- through
:func:`forest_routes` -- ``RouteTree`` objects equal to
``route_tree``'s, dict order included.  Tie-heavy integer costs 0-3,
all-zero costs and uniform costs are where a tie-break slip would
show, so those dominate the fixtures.  The flat engine's forest-fed
tables must also equal its route_tree-fed tables, and a disconnected
graph must raise the reference's exact error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    barabasi_albert_graph,
    fig1_graph,
    grid_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    uniform_costs,
)
from repro.routing import forests as forests_module
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.dijkstra import route_tree
from repro.routing.engines import get_engine
from repro.routing.flatgraph import build_flat_graph
from repro.routing.flatsweep import (
    demand_from_forests,
    demand_from_routes,
    flat_price_arrays,
)
from repro.routing.forests import canonical_forests, forest_routes


def relabelled(graph: ASGraph, stride: int = 7, offset: int = 3) -> ASGraph:
    """*graph* with sparse, non-dense node ids (dense order preserved)."""
    rename = {node: offset + stride * node for node in graph.nodes}
    return ASGraph(
        nodes=[(rename[node], graph.cost(node)) for node in graph.nodes],
        edges=[(rename[u], rename[v]) for u, v in graph.edges],
    )


GRAPHS = {
    "isp-int03-a": lambda: isp_like_graph(120, seed=1, cost_sampler=integer_costs(0, 3)),
    "isp-int03-b": lambda: isp_like_graph(160, seed=2, cost_sampler=integer_costs(0, 3)),
    "ba-int03": lambda: barabasi_albert_graph(120, 2, seed=3, cost_sampler=integer_costs(0, 3)),
    "ba-uniform": lambda: barabasi_albert_graph(100, 3, seed=4, cost_sampler=uniform_costs(1.0, 6.0)),
    "isp-uniform": lambda: isp_like_graph(150, seed=5, cost_sampler=uniform_costs(1.0, 6.0)),
    "grid-zero": lambda: grid_graph(7, 9, cost_sampler=integer_costs(0, 0)),
    "grid-uniform-cost": lambda: grid_graph(8, 8, cost_sampler=integer_costs(2, 2)),
    "grid-int03": lambda: grid_graph(6, 10, seed=6, cost_sampler=integer_costs(0, 3)),
    "fig1": fig1_graph,
    "sparse-ids": lambda: relabelled(
        isp_like_graph(60, seed=7, cost_sampler=integer_costs(0, 3))
    ),
}


def assert_forests_match_route_tree(graph: ASGraph) -> None:
    """Every forest row equals ``route_tree``: parents, cost bits, hops,
    and the materialized ``RouteTree`` (dict order included)."""
    flat = build_flat_graph(graph)
    forests = list(canonical_forests(graph, flat))
    covered = np.concatenate([forest.destinations for forest in forests])
    assert covered.tolist() == list(range(graph.num_nodes))
    routes = forest_routes(graph, forests)
    ids = flat.node_ids.tolist()
    for forest in forests:
        for row, dense in enumerate(forest.destinations.tolist()):
            destination = ids[dense]
            reference = route_tree(graph, destination)
            parent = forest.parent[row].tolist()
            cost = forest.cost[row].tolist()
            assert parent[dense] == -1
            assert cost[dense].hex() == (0.0).hex()
            for source in reference.sources():
                i = flat.index[source]
                assert ids[parent[i]] == reference.parent(source), (destination, source)
                assert cost[i].hex() == reference.cost(source).hex(), (destination, source)
            tree = routes.tree(destination)
            assert tree == reference
            assert list(tree.parents.items()) == list(reference.parents.items())
            assert [c.hex() for c in tree._costs.values()] == [
                c.hex() for c in reference._costs.values()
            ]
            for source in reference.sources():
                assert tree.hops(source) == reference.hops(source)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forests_bit_identical_to_route_tree(name):
    assert_forests_match_route_tree(GRAPHS[name]())


@pytest.mark.parametrize("budget", [1, 300, 4000])
def test_block_boundaries_are_invisible(monkeypatch, budget):
    # A tiny element budget forces many destination blocks (down to one
    # destination per block); the forests must not change.
    monkeypatch.setattr(forests_module, "_FOREST_BUDGET", budget)
    graph = isp_like_graph(90, seed=8, cost_sampler=integer_costs(0, 3))
    blocks = list(canonical_forests(graph))
    assert len(blocks) > 1
    assert_forests_match_route_tree(graph)


@settings(deadline=None)
@given(
    n=st.integers(4, 40),
    probability=st.sampled_from([0.1, 0.2, 0.35]),
    seed=st.integers(0, 10_000),
)
def test_property_random_biconnected(n, probability, seed):
    graph = random_biconnected_graph(
        n, probability, seed=seed, cost_sampler=integer_costs(0, 3)
    )
    assert_forests_match_route_tree(graph)


class TestForestRoutes:
    def test_trees_iterate_in_node_order_and_build_lazily(self):
        graph = relabelled(isp_like_graph(40, seed=9, cost_sampler=integer_costs(0, 3)))
        routes = forest_routes(graph, list(canonical_forests(graph)))
        assert list(routes.trees) == list(graph.nodes)
        assert len(routes.trees) == graph.num_nodes
        assert routes.trees._built == {}  # nothing materialized yet
        first = graph.nodes[0]
        assert routes.tree(first) is routes.tree(first)
        assert list(routes.trees._built) == [first]
        with pytest.raises(KeyError):
            routes.tree(-1)

    def test_all_pairs_surface_matches_reference(self):
        graph = isp_like_graph(70, seed=10, cost_sampler=integer_costs(0, 3))
        forest = forest_routes(graph, list(canonical_forests(graph)))
        reference = all_pairs_lcp(graph)
        assert forest.paths == reference.paths
        assert forest.max_hops() == reference.max_hops()
        assert forest == reference
        for destination in graph.nodes[:5]:
            assert forest.transit_nodes(destination) == reference.transit_nodes(
                destination
            )


class TestForestDemand:
    @pytest.mark.parametrize("name", ["isp-int03-a", "ba-int03", "grid-zero", "sparse-ids"])
    def test_demand_equals_route_tree_demand(self, name):
        graph = GRAPHS[name]()
        flat = build_flat_graph(graph)
        expected = demand_from_routes(graph, all_pairs_lcp(graph), flat)
        actual = demand_from_forests(flat, canonical_forests(graph, flat))
        for column in (
            "pair_src",
            "pair_dst",
            "pair_offset",
            "entry_k",
            "order",
            "src_by_k",
            "dst_by_k",
            "group_k",
            "group_ptr",
        ):
            assert np.array_equal(getattr(actual, column), getattr(expected, column)), column
        assert actual.pair_lcp.tobytes() == expected.pair_lcp.tobytes()
        assert actual.lcp_by_k.tobytes() == expected.lcp_by_k.tobytes()

    def test_price_arrays_without_routes_equal_routed(self):
        graph = isp_like_graph(60, seed=11, cost_sampler=integer_costs(0, 3))
        routed = flat_price_arrays(graph, all_pairs_lcp(graph))
        forest = flat_price_arrays(graph)
        assert forest.prices.tobytes() == routed.prices.tobytes()
        assert np.array_equal(forest.entry_k, routed.entry_k)
        assert np.array_equal(forest.pair_offset, routed.pair_offset)


#: Smaller instances for the table tests: under the sanitizer every
#: price is re-derived from scratch.
TABLE_GRAPHS = {
    "isp-int03": lambda: isp_like_graph(45, seed=14, cost_sampler=integer_costs(0, 3)),
    "ba-uniform": lambda: barabasi_albert_graph(40, 2, seed=15, cost_sampler=uniform_costs(1.0, 6.0)),
    "grid-int03": lambda: grid_graph(5, 6, seed=16, cost_sampler=integer_costs(0, 3)),
    "sparse-ids": lambda: relabelled(
        isp_like_graph(35, seed=17, cost_sampler=integer_costs(0, 3))
    ),
}


class TestFlatTable:
    # "flat-parallel" is the flat engine with two pool workers.
    @pytest.mark.parametrize("engine", ["flat", "flat-parallel"])
    @pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
    def test_forest_table_equals_route_tree_table(self, engine, name):
        graph = TABLE_GRAPHS[name]()
        reference = all_pairs_lcp(graph)
        flat = get_engine("flat", workers=2 if engine == "flat-parallel" else 1)
        forest_table = flat.price_table(graph)
        routed_table = flat.price_table(graph, routes=reference)
        assert forest_table.routes.paths == reference.paths
        for destination in graph.nodes:
            tree = forest_table.routes.tree(destination)
            for source in tree.sources():
                assert tree.cost(source).hex() == reference.cost(source, destination).hex()
        # rows: same pairs, same insertion order, same float bits
        assert list(forest_table.rows) == list(routed_table.rows)
        for pair, row in routed_table.rows.items():
            assert [(k, p.hex()) for k, p in forest_table.rows[pair].items()] == [
                (k, p.hex()) for k, p in row.items()
            ]

    def test_observed_run_spans_forests_and_counts_trees(self):
        graph = isp_like_graph(40, seed=12, cost_sampler=integer_costs(0, 3))
        observer = obs.Obs(sinks=[obs.MemorySink()])
        get_engine("flat").price_table(graph, obs=observer)
        count, _elapsed = observer.span_stats(obs.names.SPAN_FORESTS)
        assert count == 1
        assert (
            observer.counter_total(obs.names.ROUTE_TREES, engine="flat")
            == graph.num_nodes
        )

    def test_given_routes_skip_the_forests(self):
        graph = isp_like_graph(40, seed=13, cost_sampler=integer_costs(0, 3))
        routes = all_pairs_lcp(graph)
        observer = obs.Obs(sinks=[obs.MemorySink()])
        table = get_engine("flat").price_table(graph, routes=routes, obs=observer)
        assert table.routes is routes
        assert observer.span_stats(obs.names.SPAN_FORESTS)[0] == 0


class TestDisconnected:
    GRAPHS = [
        ASGraph(
            nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            edges=[(0, 1), (2, 3)],
        ),
        ASGraph(
            nodes=[(5, 1.0), (9, 2.0), (12, 0.0), (20, 1.0), (31, 3.0)],
            edges=[(9, 12), (12, 20), (20, 9)],
        ),
        ASGraph(nodes=[(0, 0.0), (1, 0.0), (2, 0.0)], edges=[(1, 2)]),
    ]

    @staticmethod
    def reference_error(graph: ASGraph) -> DisconnectedGraphError:
        with pytest.raises(DisconnectedGraphError) as info:
            all_pairs_lcp(graph)
        return info.value

    @pytest.mark.parametrize("index", range(3))
    def test_forests_raise_reference_error(self, index):
        graph = self.GRAPHS[index]
        expected = self.reference_error(graph)
        with pytest.raises(DisconnectedGraphError) as info:
            list(canonical_forests(graph))
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)

    @pytest.mark.parametrize("index", range(3))
    def test_flat_engine_raises_reference_error(self, index):
        graph = self.GRAPHS[index]
        expected = self.reference_error(graph)
        with pytest.raises(DisconnectedGraphError) as info:
            get_engine("flat").price_table(graph)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)
