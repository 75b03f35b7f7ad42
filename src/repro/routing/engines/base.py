"""The engine abstraction every registered backend implements.

An *engine* answers the two bulk questions of the mechanism layer --
"what are all selected lowest-cost routes?" and "what are all Theorem 1
prices?" -- for one :class:`~repro.graphs.asgraph.ASGraph` instance.
Engines differ in *how* (serial pure Python, epoch-cached warm starts,
a flat-CSR sweep over numpy arrays), never in *what*: the differential
test harness holds every registered engine to the reference answers.

Capability model
----------------
``carries_paths`` distinguishes two engine classes:

* **path engines** (``reference``, ``incremental``) materialize full
  canonical tie-broken :class:`~repro.routing.allpairs.AllPairsRoutes`
  and must match the reference *exactly* -- same paths, bit-identical
  costs and prices;
* **cost-only engines** (``flat``) expose the cost/price surface but
  not path objects; :meth:`Engine.all_pairs` raises
  :class:`~repro.exceptions.EngineError` and agreement is required only
  up to :func:`~repro.types.costs_close`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, Optional

import numpy as np

import repro.obs as obs_mod
from repro.exceptions import EngineError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceTable
    from repro.routing.allpairs import AllPairsRoutes


@dataclass(frozen=True)
class CostMatrix:
    """A dense all-pairs transit-cost matrix plus its node indexing.

    ``matrix[index[i], index[j]] = Cost(P(c; i, j))`` with zeros on the
    diagonal -- the common denominator every engine can produce, and the
    object the differential harness compares cost-only engines on.
    """

    matrix: np.ndarray = field(repr=False)
    index: Dict[NodeId, int]

    def cost(self, source: NodeId, destination: NodeId) -> Cost:
        return float(self.matrix[self.index[source], self.index[destination]])


class Engine(ABC):
    """One backend for bulk route/price computation.

    Subclasses set :attr:`name` (the registry key) and
    :attr:`carries_paths`, and implement :meth:`price_table`; path
    engines also implement :meth:`all_pairs`.
    """

    #: Registry key; stable across releases (CLI surface).
    name: ClassVar[str] = "abstract"

    #: Whether :meth:`all_pairs` yields real path objects.
    carries_paths: ClassVar[bool] = True

    def all_pairs(
        self,
        graph: ASGraph,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "AllPairsRoutes":
        """All selected LCPs (canonical tie-break), one tree per
        destination.  Cost-only engines raise :class:`EngineError`.

        When an observer is active (explicit *obs* or the global
        toggle) the computation runs under an ``engine.all_pairs``
        span and emits a ``routing.route_trees`` counter, both labelled
        with this engine's name.
        """
        observer = obs_mod.active(obs)
        if observer is None:
            return self._all_pairs(graph)
        with observer.span(metric_names.SPAN_ENGINE_ALL_PAIRS, engine=self.name):
            routes = self._all_pairs(graph)
        observer.count(
            metric_names.ROUTE_TREES, len(routes.trees), engine=self.name
        )
        return routes

    def _all_pairs(self, graph: ASGraph) -> "AllPairsRoutes":
        """Backend hook for :meth:`all_pairs`; cost-only default."""
        raise EngineError(
            f"engine {self.name!r} is cost-only and does not carry paths; "
            "use a path engine (reference, incremental) for all_pairs"
        )

    def price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
        *,
        obs: Optional[obs_mod.Obs] = None,
    ) -> "PriceTable":
        """The full Theorem 1 price table for *graph*.

        *routes* optionally reuses precomputed selected LCPs; engines
        must produce identical prices with or without it.

        When an observer is active the computation runs under an
        ``engine.price_table`` span and emits the
        ``mechanism.price_rows`` throughput counter, labelled with this
        engine's name.
        """
        observer = obs_mod.active(obs)
        if observer is None:
            return self._price_table(graph, routes=routes)
        with observer.span(metric_names.SPAN_ENGINE_PRICE_TABLE, engine=self.name):
            table = self._price_table(graph, routes=routes)
        observer.count(
            metric_names.PRICE_ROWS, len(table.rows), engine=self.name
        )
        return table

    @abstractmethod
    def _price_table(
        self,
        graph: ASGraph,
        routes: Optional["AllPairsRoutes"] = None,
    ) -> "PriceTable":
        """Backend hook for :meth:`price_table`."""

    def cost_matrix(self, graph: ASGraph) -> CostMatrix:
        """All-pairs transit costs as a dense matrix.

        Default implementation derives the matrix from
        :meth:`all_pairs`; array-backed engines override it.
        """
        routes = self.all_pairs(graph)
        index = graph.index_of()
        matrix = np.zeros((graph.num_nodes, graph.num_nodes))
        for destination in graph.nodes:
            tree = routes.tree(destination)
            dj = index[destination]
            for source in tree.sources():
                matrix[index[source], dj] = tree.cost(source)
        return CostMatrix(matrix=matrix, index=index)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} paths={self.carries_paths}>"
