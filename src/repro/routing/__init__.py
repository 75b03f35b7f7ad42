"""Centralized lowest-cost-path routing on node-cost AS graphs.

This package is the *reference* implementation of what the paper assumes
BGP (suitably configured) computes: for every destination ``j`` a
loop-free tree ``T(j)`` of lowest-cost paths, where the cost of a path is
the sum of its transit (intermediate) node costs.  The distributed BGP
engine in :mod:`repro.bgp` is validated against it, and the VCG pricing
in :mod:`repro.mechanism` is built on it.

Key modules:

* :mod:`repro.routing.paths` -- path cost/validation helpers and the
  canonical accumulation convention shared with the BGP engine.
* :mod:`repro.routing.tiebreak` -- the total order on candidate routes
  (cost, then hops, then lexicographic path) that makes selected LCPs
  suffix-consistent, hence loop-free.
* :mod:`repro.routing.dijkstra` -- destination-rooted generalized
  Dijkstra producing a :class:`~repro.routing.dijkstra.RouteTree`.
* :mod:`repro.routing.allpairs` -- all-pairs routes (n trees).
* :mod:`repro.routing.avoiding` -- lowest-cost k-avoiding paths, the
  second ingredient of the VCG price.
* :mod:`repro.routing.engines` -- the unified engine registry
  (``reference`` | ``flat`` | ``incremental``) behind the ``engine=``
  parameter of :func:`all_pairs_lcp` and
  :func:`repro.mechanism.vcg.compute_price_table`; the cost-only
  ``flat`` engine's array core lives in :mod:`repro.routing.flatgraph`
  and :mod:`repro.routing.flatsweep`.
"""

from repro.routing.allpairs import AllPairsRoutes, all_pairs_lcp
from repro.routing.avoiding import (
    avoiding_cost,
    avoiding_path,
    avoiding_tree,
)
from repro.routing.dijkstra import RouteTree, route_tree
from repro.routing.engines import Engine, engine_names, get_engine
from repro.routing.paths import transit_cost, validate_path
from repro.routing.tiebreak import route_key

__all__ = [
    "AllPairsRoutes",
    "all_pairs_lcp",
    "avoiding_cost",
    "avoiding_path",
    "avoiding_tree",
    "Engine",
    "engine_names",
    "get_engine",
    "RouteTree",
    "route_tree",
    "transit_cost",
    "validate_path",
    "route_key",
]
