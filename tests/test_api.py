"""Tests for repro.api, the stable public facade."""

from __future__ import annotations

import repro.api as api


class TestSurface:
    def test_all_is_sorted(self):
        assert api.__all__ == sorted(api.__all__)

    def test_all_exports_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_reexport_not_copy(self):
        from repro.core.protocol import distributed_mechanism
        from repro.core.run import run
        from repro.graphs.asgraph import ASGraph
        from repro.mechanism.vcg import compute_price_table
        from repro.routing.allpairs import all_pairs_lcp
        from repro.routing.engines import get_engine

        assert api.ASGraph is ASGraph
        assert api.all_pairs_lcp is all_pairs_lcp
        assert api.compute_price_table is compute_price_table
        assert api.get_engine is get_engine
        assert api.run is run
        assert api.distributed_mechanism is distributed_mechanism

    def test_obs_is_the_obs_package(self):
        import repro.obs

        assert api.obs is repro.obs


class TestQuickstart:
    """The README quickstart, executed verbatim."""

    def test_quickstart_flow(self):
        graph = api.fig1_graph()
        table = api.compute_price_table(graph)
        result = api.run(graph)
        api.verify_against_centralized(result, table).raise_on_mismatch()

    def test_quickstart_observation(self):
        graph = api.fig1_graph()
        with api.obs.observed() as observer:
            api.run(graph)
        assert observer.counter_total(api.obs.names.MESSAGES) > 0
        assert observer.counter_total(api.obs.names.STAGES) > 0
        api.obs.reset_default()

    def test_engine_accepts_name_and_instance(self):
        graph = api.fig1_graph()
        by_name = api.compute_price_table(graph, engine="flat")
        by_instance = api.compute_price_table(
            graph, engine=api.get_engine("flat", workers=2)
        )
        assert by_name.rows == by_instance.rows
