"""Tests for the engine registry and the ``engine=`` plumbing."""

from __future__ import annotations

import pytest

from repro.exceptions import EngineError
from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import (
    Engine,
    FlatEngine,
    IncrementalEngine,
    ReferenceEngine,
    engine_names,
    get_engine,
    register,
    resolve_engine,
)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == ("flat", "incremental", "reference")

    def test_get_engine_instantiates(self):
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("flat"), FlatEngine)
        assert isinstance(get_engine("incremental"), IncrementalEngine)

    def test_get_engine_forwards_options(self):
        assert get_engine("flat").workers == 1
        assert get_engine("flat", workers=3).workers == 3

    def test_unknown_engine_rejected(self):
        with pytest.raises(EngineError, match="unknown engine 'turbo'"):
            get_engine("turbo")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError, match="already registered"):
            register(ReferenceEngine)

    def test_resolve_accepts_instances(self):
        engine = FlatEngine(workers=2)
        assert resolve_engine(engine) is engine
        assert isinstance(resolve_engine("flat"), FlatEngine)

    def test_capabilities(self):
        assert get_engine("reference").carries_paths
        assert get_engine("incremental").carries_paths
        assert not get_engine("flat").carries_paths
        assert not get_engine("flat", workers=2).carries_paths


#: ``flat`` inline and with two pool workers (the latter keyed
#: ``flat-parallel``).
FLAT_CONFIGS = {"flat": {}, "flat-parallel": {"workers": 2}}


class TestCapabilityErrors:
    @pytest.mark.parametrize("name", sorted(FLAT_CONFIGS))
    def test_cost_only_engine_has_no_paths(self, fig1, name):
        with pytest.raises(EngineError, match="cost-only"):
            get_engine("flat", **FLAT_CONFIGS[name]).all_pairs(fig1)

    @pytest.mark.parametrize("name", sorted(FLAT_CONFIGS))
    def test_all_pairs_lcp_engine_must_carry_paths(self, fig1, name):
        engine = get_engine("flat", **FLAT_CONFIGS[name])
        with pytest.raises(EngineError, match="cost-only"):
            all_pairs_lcp(fig1, engine=engine)


class TestEngineParameter:
    def test_all_pairs_lcp_dispatches(self, fig1):
        default = all_pairs_lcp(fig1)
        assert all_pairs_lcp(fig1, engine="reference").paths == default.paths
        assert all_pairs_lcp(fig1, engine="incremental").paths == default.paths
        engine = IncrementalEngine()
        assert all_pairs_lcp(fig1, engine=engine).paths == default.paths

    @pytest.mark.parametrize(
        "name", ["reference", "flat", "flat-parallel", "incremental"]
    )
    def test_compute_price_table_dispatches(self, fig1, name):
        default = compute_price_table(fig1)
        engine = (
            get_engine("flat", workers=2) if name == "flat-parallel" else name
        )
        assert compute_price_table(fig1, engine=engine).rows == default.rows

    def test_price_table_reuses_routes(self, fig1):
        routes = all_pairs_lcp(fig1)
        table = compute_price_table(fig1, routes=routes, engine="flat")
        assert table.routes is routes

    def test_unknown_engine_name_raises(self, fig1):
        with pytest.raises(EngineError):
            compute_price_table(fig1, engine="turbo")


class TestCostMatrix:
    def test_reference_cost_matrix_matches_routes(self, fig1):
        routes = all_pairs_lcp(fig1)
        matrix = get_engine("reference").cost_matrix(fig1)
        for (i, j), _path in routes.paths.items():
            assert matrix.cost(i, j) == routes.cost(i, j)

    def test_diagonal_zero(self, fig1):
        matrix = get_engine("flat").cost_matrix(fig1)
        for node in fig1.nodes:
            assert matrix.cost(node, node) == 0.0


class TestCliSurface:
    def test_engines_subcommand(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in engine_names():
            assert name in out
        assert "cost-only" in out

    def test_run_with_engine_flag(self, capsys):
        from repro.cli import main

        assert main(["run", "E11", "--engine", "flat"]) == 0
        out = capsys.readouterr().out
        assert "flat" in out
        assert "PASS" in out

    def test_engine_flag_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E11", "--engine", "turbo"])


def test_repr_is_informative():
    assert "flat" in repr(FlatEngine(workers=2))
    assert isinstance(FlatEngine(workers=2), Engine)
