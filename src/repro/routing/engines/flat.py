"""The ``flat`` engine: batched, demand-restricted, memory-bounded prices.

This is the scaling backend for the Theorem 1 price sweep.  Path
*selection* is the canonical tie-broken one -- prices are defined
relative to it.  When no routes are passed, the routes come from the
exact canonical parent forests of :mod:`repro.routing.forests` (batched
scipy solves, bit-identical to ``route_tree``): demand is unrolled
straight from the forest blocks, and the table's ``routes`` builds each
``RouteTree`` on first access.  The engine stays cost-only -- its
avoiding costs agree with the reference to ~1e-15, not bit for bit,
and it serves no ``all_pairs`` -- and its avoiding sweep differs from
the reference's in three ways that move the feasible instance size
from hundreds of nodes past ten thousand:

1. **One-shot CSR, O(deg(k)) masking.**  The directed
   ``w(u -> v) = c_v`` reduction is built once per graph epoch as flat
   numpy arrays (:mod:`repro.routing.flatgraph`); ``G - k`` masks the
   stored in-edges of ``k`` in place instead of rebuilding the matrix
   from Python edge loops per transit node.

2. **Vectorized inversion + demand restriction with symmetric
   orientation.**  The canonical routes are inverted into the transit
   relation ``k -> {(i, j) : k transit on P(c; i, j)}`` by numpy
   path-unrolling over dense parent arrays -- no per-(source,
   destination) Python iteration
   (:func:`repro.routing.flatsweep.demand_from_routes`).  Under the
   reduction the *transit* cost of a detour is direction-independent,
   so each *unordered* demanded pair needs only one distance row; every
   pair is oriented onto the endpoint that covers the most pairs of
   ``k``'s demand and the per-``k`` Dijkstra runs only from those
   solver endpoints.  Only one ``k``'s distance block is ever alive, so
   peak extra memory is O(max_k |sources_k| * n).

3. **Array-native evaluation and assembly.**  Per ``k``, the demanded
   entries are contiguous slices of pre-gathered arrays and
   ``p^k_ij = c_k + Cost(P_{-k}) - Cost(P)`` is evaluated in bulk; the
   priced result lives in flat arrays
   (:class:`repro.routing.flatsweep.FlatPriceArrays`) with no
   per-entry Python dict work on the hot path.  Violations are raised
   as the same :class:`~repro.exceptions.MechanismError` /
   :class:`~repro.exceptions.NotBiconnectedError` the reference engine
   raises, with the *same deterministic witness*: candidates are
   ordered by the reference sweep's iteration order (destination
   ascending, source ascending, transit position along the path) and
   the first one wins, so differential tests see identical error
   classes and messages.

The sweep itself lives in :mod:`repro.routing.flatsweep`.  With
``workers > 1`` it deals the per-transit-node groups round-robin into
four shards per worker and runs them on a process pool over shared
memory; tables *and* errors are bit-identical to the inline sweep's
for every worker count (``tests/test_flat_parallel.py``).

Observability: an observed run that computes its own routes wraps the
forests in a ``routing.forests`` span and counts
``routing.route_trees``; every observed run counts
``routing.flat.solves`` (masked Dijkstra calls, one per distinct
transit node), ``routing.flat.rows`` (distance rows actually computed
-- the demand-restriction win), ``routing.flat.masked`` (stored
entries masked across all solves), and
``routing.flat.workers`` / ``routing.flat.shards`` (the sweep's
process/shard layout; 1/1 inline) alongside the standard engine
span/counter surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Tuple

import numpy as np

import repro.obs as obs_mod
from repro.devtools import sanitize
from repro.exceptions import DisconnectedGraphError, EngineError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.engines.base import CostMatrix, Engine
from repro.routing.flatgraph import build_flat_graph
from repro.routing.flatsweep import (
    _NEGATIVE_PRICE_EPS,  # noqa: F401  (re-export: tests pin the literal)
    FlatSweepStats,
    demand_from_forests,
    demand_from_routes,
    flat_price_arrays,
    sweep_demand,
)
from repro.routing.forests import canonical_forests, forest_routes
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceRow, PriceTable
    from repro.routing.allpairs import AllPairsRoutes

__all__ = ["FlatEngine", "FlatSweepStats", "flat_price_rows"]


def flat_price_rows(
    graph: ASGraph,
    routes: Optional["AllPairsRoutes"] = None,
    *,
    stats: Optional[FlatSweepStats] = None,
) -> Dict[Tuple[NodeId, NodeId], "PriceRow"]:
    """Theorem 1 price rows via the batched, demand-restricted sweep.

    Returns the same ``(source, destination) -> {k: price}`` mapping as
    :func:`repro.mechanism.vcg.compute_price_table` stores (direct-link
    pairs omitted); *stats*, when given, is filled with the sweep's
    work accounting.  This is the dict-materializing convenience over
    :func:`repro.routing.flatsweep.flat_price_arrays`; large-instance
    callers should stay on the arrays and skip :meth:`to_rows`.
    """
    return flat_price_arrays(graph, routes, stats=stats).to_rows()


class FlatEngine(Engine):
    """Flat-CSR cost-only engine for large price tables.

    Parameters
    ----------
    workers:
        Sweep processes.  ``1`` (the default) prices inline with no
        pool and no shared memory; more run the sweep on a
        shared-memory process pool, with identical output.
    """

    name: ClassVar[str] = "flat"
    carries_paths: ClassVar[bool] = False

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise EngineError(f"worker count must be >= 1, got {workers}")
        self.workers = workers

    # The flat sweep produces its own counters, so this engine manages
    # the observer explicitly (same signature as the reference engine,
    # per the RPR009 contract) instead of using the base-class wrapper.
    def price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        observer = obs_mod.active(obs)
        if observer is None:
            return self._price_table(graph, routes=routes)
        stats = FlatSweepStats()
        with observer.span(metric_names.SPAN_ENGINE_PRICE_TABLE, engine=self.name):
            table = self._build_table(graph, routes, stats, observer)
        observer.count(metric_names.PRICE_ROWS, len(table.rows), engine=self.name)
        observer.count(metric_names.FLAT_SOLVES, stats.solves, engine=self.name)
        observer.count(metric_names.FLAT_ROWS, stats.rows, engine=self.name)
        observer.count(metric_names.FLAT_MASKED, stats.masked, engine=self.name)
        observer.count(metric_names.FLAT_WORKERS, stats.workers, engine=self.name)
        observer.count(metric_names.FLAT_SHARDS, stats.shards, engine=self.name)
        return table

    def _price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
    ) -> "PriceTable":
        return self._build_table(graph, routes, FlatSweepStats())

    def _build_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"],
        stats: FlatSweepStats,
        observer: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        from repro.mechanism.vcg import PriceTable
        from repro.routing.allpairs import _sanitize_routes

        flat = build_flat_graph(graph)
        if routes is not None:
            demand = demand_from_routes(graph, routes, flat)
        else:
            if observer is None:
                forests = list(canonical_forests(graph, flat))
            else:
                with observer.span(metric_names.SPAN_FORESTS, engine=self.name):
                    forests = list(canonical_forests(graph, flat))
                observer.count(
                    metric_names.ROUTE_TREES, flat.num_nodes, engine=self.name
                )
            routes = forest_routes(graph, forests)
            if sanitize.enabled():
                _sanitize_routes(graph, routes)
            demand = demand_from_forests(flat, forests)
        rows = sweep_demand(demand, workers=self.workers, stats=stats).to_rows()
        table = PriceTable(routes=routes, rows=rows)
        if sanitize.enabled():
            sanitize.check_price_table(graph, table)
        return table

    def cost_matrix(self, graph: ASGraph) -> CostMatrix:
        from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

        flat = build_flat_graph(graph)
        dist = _csgraph_dijkstra(
            flat.matrix(), directed=True, return_predecessors=False
        )
        transit = dist - flat.costs[np.newaxis, :]
        np.fill_diagonal(transit, 0.0)
        if np.isinf(transit).any():
            raise DisconnectedGraphError("graph is disconnected")
        return CostMatrix(matrix=transit, index=flat.index)
