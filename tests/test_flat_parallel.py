"""Property tests for the sharded flat sweep's determinism guarantees.

The ``flat`` engine's pooled sweep (``workers > 1``) is *invisible*:
for any instance, the priced arrays -- and the dict rows derived from
them -- are bit-identical to the inline sweep's regardless of

* **worker count** (1 runs inline with no pool and no shared memory;
  2 and 4 fork real worker processes over shared-memory segments), and
* **transit-shard order** (any partition of the demand's transit
  groups, in any order, merges to the same result),

and on defective instances (cut vertices, inconsistent route costs)
the raised error class, message, and min-sequence witness match the
reference engine's exactly.  Hypothesis draws random biconnected
graphs (cycle plus chords, quantized costs so ties are frequent --
ties are where nondeterminism would hide), cut-vertex graphs for the
error path, and random shard permutations.

The shared-memory plumbing itself is pinned too: pooled sweeps must
not leak ``/dev/shm`` segments, a worker that dies must fail the sweep
fast, and the ``atexit`` backstop must unlink whatever an interrupted
run leaves behind.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.obs as obs
from repro.exceptions import EngineError, NotBiconnectedError, MechanismError
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import fig1_graph, isp_like_graph
from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import FlatEngine, get_engine
from repro.routing import flatsweep
from repro.routing.flatsweep import (
    FlatSweepStats,
    demand_from_routes,
    flat_price_arrays,
    sweep_demand,
)


@st.composite
def biconnected_graphs(draw, min_nodes=5, max_nodes=11):
    n = draw(st.integers(min_nodes, max_nodes))
    costs = draw(
        st.lists(
            st.integers(0, 10).map(lambda v: v / 2.0),
            min_size=n, max_size=n,
        )
    )
    chord_pool = [(i, j) for i in range(n) for j in range(i + 2, n)
                  if not (i == 0 and j == n - 1)]
    chords = draw(st.lists(st.sampled_from(chord_pool), unique=True, max_size=6)) if chord_pool else []
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return ASGraph(nodes=list(enumerate(costs)), edges=edges)


@st.composite
def cut_vertex_graphs(draw, min_nodes=5, max_nodes=9):
    """A biconnected cycle-plus-chords block with a pendant triangle
    glued at one node -- that node is a cut vertex, so every cross pair
    transits it and its avoiding solve finds no path."""
    block = draw(biconnected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    joint = draw(st.sampled_from(list(block.nodes)))
    n = block.num_nodes
    extra_costs = draw(
        st.lists(st.integers(0, 10).map(lambda v: v / 2.0), min_size=2, max_size=2)
    )
    nodes = [(v, block.cost(v)) for v in block.nodes]
    nodes += [(n, extra_costs[0]), (n + 1, extra_costs[1])]
    edges = list(block.edges) + [(joint, n), (joint, n + 1), (n, n + 1)]
    return ASGraph(nodes=nodes, edges=edges)


@settings(max_examples=8, deadline=None)
@given(biconnected_graphs())
def test_worker_count_invariance(graph):
    reference = compute_price_table(graph)
    routes = all_pairs_lcp(graph)
    baseline = flat_price_arrays(graph, routes)
    for workers in (1, 2, 4):
        arrays = flat_price_arrays(graph, routes, workers=workers)
        assert np.array_equal(baseline.prices, arrays.prices), workers
        engine = FlatEngine(workers=workers)
        assert engine.price_table(graph, routes).rows == reference.rows, workers


def _random_partition(groups, rng):
    """The groups shuffled and dealt into a random number of shards,
    themselves in random order."""
    order = list(range(groups))
    rng.shuffle(order)
    count = rng.randint(1, max(1, groups))
    shards = [order[i::count] for i in range(count)]
    rng.shuffle(shards)
    return shards


@settings(max_examples=8, deadline=None)
@given(biconnected_graphs(), st.randoms(use_true_random=False))
def test_shard_order_invariance(graph, rng):
    """Any partition of the demand's transit groups, in any order, same
    priced arrays bit for bit."""
    routes = all_pairs_lcp(graph)
    baseline = flat_price_arrays(graph, routes)

    demand = demand_from_routes(graph, routes)
    shards = _random_partition(demand.num_groups, rng)
    arrays = sweep_demand(demand, workers=2, shard_lists=shards)
    assert np.array_equal(baseline.prices, arrays.prices)
    assert np.array_equal(baseline.entry_k, arrays.entry_k)
    assert arrays.to_rows() == baseline.to_rows()


@settings(max_examples=8, deadline=None)
@given(cut_vertex_graphs())
def test_error_ordering_parity_on_cut_vertex_graphs(graph):
    """The raised NotBiconnectedError -- class, message, witness -- is
    the reference engine's, at every worker count."""
    with pytest.raises(NotBiconnectedError) as reference_error:
        get_engine("reference").price_table(graph)
    for workers in (1, 2, 4):
        with pytest.raises(NotBiconnectedError) as flat_error:
            FlatEngine(workers=workers).price_table(graph)
        assert str(flat_error.value) == str(reference_error.value), workers


@settings(max_examples=6, deadline=None)
@given(cut_vertex_graphs(), st.randoms(use_true_random=False))
def test_error_ordering_survives_shard_permutation(graph, rng):
    with pytest.raises(NotBiconnectedError) as reference_error:
        get_engine("reference").price_table(graph)
    routes = all_pairs_lcp(graph)  # cut vertices keep the graph connected
    demand = demand_from_routes(graph, routes)
    shards = _random_partition(demand.num_groups, rng)
    with pytest.raises(NotBiconnectedError) as flat_error:
        sweep_demand(demand, workers=2, shard_lists=shards)
    assert str(flat_error.value) == str(reference_error.value)


def test_negative_price_witness_matches_reference_pooled():
    # Same inconsistent-routes construction as the flat suite: routes
    # priced on a 10x-scaled copy select identical paths but report 10x
    # LCP costs, driving every price negative.  The pooled sweep must
    # surface the reference's exact min-sequence witness even though
    # the violating group may run in any worker.
    graph = fig1_graph()
    scaled = ASGraph(
        nodes=[(n, graph.cost(n) * 10.0) for n in graph.nodes],
        edges=list(graph.edges),
    )
    expensive_routes = all_pairs_lcp(scaled)
    with pytest.raises(MechanismError) as reference_error:
        compute_price_table(graph, routes=expensive_routes)
    for workers in (1, 2, 4):
        with pytest.raises(MechanismError) as flat_error:
            flat_price_arrays(graph, expensive_routes, workers=workers)
        assert str(flat_error.value) == str(reference_error.value), workers


class TestSharding:
    def test_sharded_rejects_non_partition(self):
        # A missing group would leave its prices unwritten; a repeated
        # one would be priced twice.  Both are refused before any work.
        graph = isp_like_graph(40, seed=6)
        demand = demand_from_routes(graph, all_pairs_lcp(graph))
        groups = list(range(demand.num_groups))
        for workers in (1, 2):
            for shards in (
                [groups[:-1]],
                [groups[:-1], groups[-1:], groups[:1]],
                [groups[1:], [-1]],
                [groups[1:], [demand.num_groups]],
            ):
                with pytest.raises(EngineError, match="must partition"):
                    sweep_demand(demand, workers=workers, shard_lists=shards)
            sweep_demand(
                demand, workers=workers, shard_lists=[groups[1:], groups[:1]]
            )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(EngineError, match="worker count"):
            FlatEngine(workers=0)

    def test_default_worker_count_is_one(self):
        assert FlatEngine().workers == 1
        assert FlatEngine(workers=3).workers == 3

    def test_stats_record_layout(self, fig1):
        routes = all_pairs_lcp(fig1)
        groups = demand_from_routes(fig1, routes).num_groups
        stats = FlatSweepStats()
        flat_price_arrays(fig1, routes, workers=2, stats=stats)
        assert stats.workers == 2
        # the default layout: four round-robin shards per worker
        assert stats.shards == min(2 * 4, groups)
        inline = FlatSweepStats()
        flat_price_arrays(fig1, routes, stats=inline)
        assert inline.workers == 1
        assert inline.shards == 1
        # identical work accounting either way
        assert (inline.solves, inline.rows, inline.masked, inline.entries) == (
            stats.solves, stats.rows, stats.masked, stats.entries
        )


class TestSharedMemoryHygiene:
    def _leftovers(self):
        return glob.glob("/dev/shm/repro-flat-*")

    def test_pooled_sweep_leaves_no_segments(self, fig1):
        routes = all_pairs_lcp(fig1)
        flat_price_arrays(fig1, routes, workers=2)
        assert self._leftovers() == []
        assert flatsweep._LIVE_ARENAS == []

    def test_pooled_error_path_leaves_no_segments(self):
        graph = fig1_graph()
        scaled = ASGraph(
            nodes=[(n, graph.cost(n) * 10.0) for n in graph.nodes],
            edges=list(graph.edges),
        )
        with pytest.raises(MechanismError):
            flat_price_arrays(graph, all_pairs_lcp(scaled), workers=2)
        assert self._leftovers() == []
        assert flatsweep._LIVE_ARENAS == []

    def test_dying_worker_raises_engine_error(self):
        # One worker hard-exits on its shard.  The sweep must fail fast
        # with an EngineError and unlink every segment; a pool that
        # waited for the lost task would hang until the timeout.
        child = textwrap.dedent(
            """
            import glob, os
            from repro.exceptions import EngineError
            from repro.graphs.generators import isp_like_graph
            from repro.routing import flatsweep

            price_shard = flatsweep._sweep_shard_worker

            def dying(groups):
                if 0 in groups:
                    os._exit(3)
                return price_shard(groups)

            flatsweep._sweep_shard_worker = dying
            try:
                flatsweep.flat_price_arrays(isp_like_graph(40, seed=6), workers=2)
            except EngineError as exc:
                print("raised:", exc)
            print("left:", len(glob.glob(f"/dev/shm/repro-flat-{os.getpid()}-*")))
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 0, done.stderr
        assert "raised: a flat sweep worker died (2 workers, 8 shards)" in done.stdout
        assert "left: 0" in done.stdout

    def test_atexit_backstop_unlinks_live_arenas(self):
        # Simulate an interrupted run: an arena created but never
        # destroyed.  The atexit hook must unlink its segments.
        arena = flatsweep._SweepArena()
        spec, _view = arena.share(np.arange(8, dtype=np.float64))
        name = spec[0]
        assert glob.glob(f"/dev/shm/{name}") != []
        assert arena in flatsweep._LIVE_ARENAS
        flatsweep._unlink_leftover_arenas()
        assert glob.glob(f"/dev/shm/{name}") == []
        assert flatsweep._LIVE_ARENAS == []

    def test_arena_destroy_is_idempotent(self):
        arena = flatsweep._SweepArena()
        arena.share(np.zeros(4))
        arena.destroy()
        arena.destroy()
        assert self._leftovers() == []


class TestObservability:
    def test_flat_parallel_emits_layout_counters(self, fig1):
        observer = obs.Obs(sinks=[obs.MemorySink()])
        engine = FlatEngine(workers=2)
        table = engine.price_table(fig1, obs=observer)
        assert len(table.rows) > 0
        name = engine.name
        assert observer.counter_total(obs.names.FLAT_WORKERS, engine=name) == 2
        assert observer.counter_total(obs.names.FLAT_SHARDS, engine=name) >= 2
        assert observer.counter_total(obs.names.FLAT_SOLVES, engine=name) > 0

    def test_flat_engine_reports_inline_layout(self, fig1):
        observer = obs.Obs(sinks=[obs.MemorySink()])
        get_engine("flat").price_table(fig1, obs=observer)
        assert observer.counter_total(obs.names.FLAT_WORKERS, engine="flat") == 1
        assert observer.counter_total(obs.names.FLAT_SHARDS, engine="flat") == 1

    def test_trace_summarize_surfaces_flat_rows(self, fig1, tmp_path):
        from repro.obs.trace import summarize_trace, summary_tables

        path = tmp_path / "flat.jsonl"
        observer = obs.Obs()
        sink = observer.add_sink(obs.JSONLSink(str(path)))
        FlatEngine(workers=2).price_table(fig1, obs=observer)
        sink.close()
        summary = summarize_trace(str(path))
        assert summary.flat_seen
        assert summary.flat_workers == 2
        assert summary.flat_shards >= 2
        assert summary.flat_solves > 0
        assert summary.flat_rows >= summary.flat_solves
        assert summary.flat_masked > 0
        rendered = summary_tables(summary)[0].render()
        assert "flat sweep Dijkstra solves" in rendered
        assert "flat sweep workers" in rendered
