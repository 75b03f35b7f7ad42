"""Tests for the flat-CSR routing core and the ``flat`` engine.

The flat engine's correctness story has three independent layers, each
pinned here: the one-shot CSR build must equal the directed
``w(u -> v) = c_v`` reduction of the graph's edge list; in-place
masking must implement ``G - k`` exactly (including the stored-zero
round-trip for zero-cost nodes) and restore the arrays verbatim; and
the demand-restricted sweep must reproduce the reference engine's
prices, error classes, error *messages*, and deterministic violation
witness.  Cross-engine value
agreement is additionally covered by the differential harness
(``test_engine_differential.py``) and the golden fixtures -- the flat
engine registers like any other backend, so those parametrize over it
automatically.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

import repro.obs as obs
from repro.exceptions import (
    DisconnectedGraphError,
    MechanismError,
    NotBiconnectedError,
)
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import (
    fig1_graph,
    integer_costs,
    isp_like_graph,
    random_biconnected_graph,
    uniform_costs,
)
from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.avoiding import avoiding_tree
from repro.routing.engines import FlatEngine, FlatSweepStats, flat_price_rows, get_engine
from repro.routing.flatgraph import build_flat_graph
from repro.types import costs_close


def zero_cost_graph() -> ASGraph:
    """A biconnected graph with a zero-cost node on transit paths."""
    return ASGraph(
        nodes=[(0, 2.0), (1, 0.0), (2, 3.0), (3, 1.0), (4, 4.0)],
        edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
    )


def cut_vertex_graph() -> ASGraph:
    """Two triangles sharing node 2: every cross pair transits 2."""
    return ASGraph(
        nodes=[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)],
        edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
    )


class TestFlatGraphBuild:
    @pytest.mark.parametrize(
        "factory",
        [fig1_graph, zero_cost_graph, lambda: isp_like_graph(20, seed=1)],
    )
    def test_matches_directed_weight_matrix(self, factory):
        graph = factory()
        flat = build_flat_graph(graph)
        # The reduction built edge by edge: w(u -> v) = c_v, both ways.
        index = {node: position for position, node in enumerate(sorted(graph.nodes))}
        costs = np.array([graph.cost(node) for node in sorted(graph.nodes)])
        rows, cols, weights = [], [], []
        for u, v in graph.edges:
            rows += [index[u], index[v]]
            cols += [index[v], index[u]]
            weights += [graph.cost(v), graph.cost(u)]
        n = graph.num_nodes
        expected = csr_matrix((weights, (rows, cols)), shape=(n, n))
        assert flat.index == index
        np.testing.assert_array_equal(flat.costs, costs)
        np.testing.assert_array_equal(
            flat.matrix().toarray(), expected.toarray()
        )
        # the stored structure matches too, not just the dense values
        # (a dropped stored zero would be invisible in toarray())
        assert flat.num_stored == expected.nnz == 2 * graph.num_edges

    def test_index_arrays_are_csgraph_native(self):
        flat = build_flat_graph(fig1_graph())
        assert flat.indptr.dtype == np.int32
        assert flat.indices.dtype == np.int32

    def test_zero_cost_weights_are_stored(self):
        graph = zero_cost_graph()
        flat = build_flat_graph(graph)
        zero_in = flat.in_edge_positions(flat.index[1])
        assert zero_in.size > 0
        assert (flat.weights[zero_in] == 0.0).all()


class TestMasking:
    def test_masked_dijkstra_equals_avoiding_matrix(self):
        graph = isp_like_graph(18, seed=2, cost_sampler=integer_costs(1, 6))
        flat = build_flat_graph(graph)
        index = flat.index
        for k in graph.nodes:
            with flat.masked(index[k]) as matrix:
                dist = csgraph_dijkstra(
                    matrix, directed=True, return_predecessors=False
                )
            transit = dist - flat.costs[np.newaxis, :]
            # rows/columns of k itself are mechanism-undefined (masking
            # leaves k's out-edges intact) -- compare everywhere else
            # with the reference k-avoiding trees.
            for destination in graph.nodes:
                if destination == k:
                    continue
                tree = avoiding_tree(graph, destination, k)
                for source in graph.nodes:
                    if source in (k, destination):
                        continue
                    assert tree.has_route(source)
                    assert transit[index[source], index[destination]] == (
                        pytest.approx(tree.cost(source))
                    ), (k, source, destination)

    def test_mask_restores_weights_verbatim(self):
        graph = zero_cost_graph()
        flat = build_flat_graph(graph)
        before = flat.weights.copy()
        for node in graph.nodes:
            ki = flat.index[node]
            with flat.masked(ki):
                masked = flat.in_edge_positions(ki)
                assert np.isinf(flat.weights[masked]).all()
            np.testing.assert_array_equal(flat.weights, before)
        # zero-cost node 1's stored zeros survived every round-trip
        assert (flat.weights[flat.in_edge_positions(flat.index[1])] == 0.0).all()

    def test_masking_is_o_deg_k(self):
        graph = isp_like_graph(20, seed=4)
        flat = build_flat_graph(graph)
        for node in graph.nodes:
            ki = flat.index[node]
            assert flat.in_edge_positions(ki).size == flat.degree(ki)
        assert sum(flat.degree(flat.index[v]) for v in graph.nodes) == flat.num_stored


class TestFlatPriceRows:
    @pytest.mark.parametrize(
        "factory",
        [
            fig1_graph,
            zero_cost_graph,
            lambda: random_biconnected_graph(
                14, 0.3, seed=9, cost_sampler=uniform_costs(0.0, 5.0)
            ),
        ],
    )
    def test_agrees_with_reference_rows(self, factory):
        graph = factory()
        routes = all_pairs_lcp(graph)
        expected = compute_price_table(graph, routes).rows
        actual = flat_price_rows(graph, routes)
        assert set(actual) == set(expected)
        for pair in expected:
            assert set(actual[pair]) == set(expected[pair])
            for k in expected[pair]:
                assert costs_close(actual[pair][k], expected[pair][k])

    def test_demand_restriction_stats(self):
        graph = isp_like_graph(40, seed=6, cost_sampler=integer_costs(1, 6))
        stats = FlatSweepStats()
        flat_price_rows(graph, stats=stats)
        n = graph.num_nodes
        assert stats.solves > 0
        # the whole point: far fewer distance rows than one full
        # Dijkstra per transit node would compute
        assert stats.rows < stats.solves * n
        assert stats.max_block_rows <= n
        assert stats.entries > 0
        assert stats.masked > 0


class TestErrorParity:
    def test_not_biconnected_matches_reference_witness(self):
        graph = cut_vertex_graph()
        with pytest.raises(NotBiconnectedError) as reference_error:
            get_engine("reference").price_table(graph)
        with pytest.raises(NotBiconnectedError) as flat_error:
            get_engine("flat").price_table(graph)
        assert str(flat_error.value) == str(reference_error.value)

    def test_negative_price_witness_matches_reference(self):
        # Theorem 1 prices are non-negative on consistent inputs, so
        # drive the defensive guard with inconsistent ones: routes
        # priced on a uniformly scaled-up copy of the graph select the
        # *same* paths (scaling preserves every comparison and
        # tie-break) but report 10x LCP costs, pushing every transit
        # price negative.  Both sweeps must pick the same witness.
        graph = fig1_graph()
        scaled = ASGraph(
            nodes=[(n, graph.cost(n) * 10.0) for n in graph.nodes],
            edges=list(graph.edges),
        )
        expensive_routes = all_pairs_lcp(scaled)
        with pytest.raises(MechanismError) as reference_error:
            compute_price_table(graph, routes=expensive_routes)
        with pytest.raises(MechanismError) as flat_error:
            flat_price_rows(graph, routes=expensive_routes)
        assert "negative VCG price" in str(reference_error.value)
        assert str(flat_error.value) == str(reference_error.value)

    def test_cost_matrix_disconnected(self):
        graph = ASGraph(
            nodes=[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            edges=[(0, 1), (2, 3)],
        )
        with pytest.raises(DisconnectedGraphError):
            get_engine("flat").cost_matrix(graph)


class TestFlatEngineSurface:
    def test_cost_matrix_matches_reference(self, fig1):
        reference = get_engine("reference").cost_matrix(fig1)
        flat = get_engine("flat").cost_matrix(fig1)
        assert flat.index == reference.index
        for i in fig1.nodes:
            for j in fig1.nodes:
                assert costs_close(flat.cost(i, j), reference.cost(i, j))

    def test_obs_counters(self, fig1):
        observer = obs.Obs(sinks=[obs.MemorySink()])
        table = FlatEngine().price_table(fig1, obs=observer)
        assert len(table.rows) > 0
        solves = observer.counter_total(obs.names.FLAT_SOLVES, engine="flat")
        rows = observer.counter_total(obs.names.FLAT_ROWS, engine="flat")
        masked = observer.counter_total(obs.names.FLAT_MASKED, engine="flat")
        assert solves > 0
        assert rows >= solves  # every solve computes at least one row
        assert masked > 0
        assert observer.counter_total(
            obs.names.PRICE_ROWS, engine="flat"
        ) == len(table.rows)
        count, _elapsed = observer.span_stats(obs.names.SPAN_ENGINE_PRICE_TABLE)
        assert count == 1

    def test_unobserved_call_emits_nothing(self, fig1):
        # no global observer, no explicit one: the engine must not
        # touch the default observer
        fresh = obs.reset_default()
        FlatEngine().price_table(fig1)
        assert fresh.counter_total(obs.names.FLAT_SOLVES, engine="flat") == 0
