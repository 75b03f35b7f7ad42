"""The paper's primary contribution: BGP-based VCG price computation.

Section 6 extends the path-vector exchange so that every node ``i``
learns, for every destination ``j``, the price ``p^k_ij`` of every
transit node ``k`` on its selected path -- with no new message types, a
constant-factor state increase, and convergence within ``max(d, d')``
stages (Theorem 2).

* :mod:`repro.core.cases` -- the four neighbor cases and update
  formulas, inequalities (2)-(5), as pure functions.
* :mod:`repro.core.price_node` -- the price-computing BGP node
  (Figure 3's algorithm), in both the paper-faithful *monotone* mode
  and the *recompute* fixpoint mode.
* :mod:`repro.core.run` -- the unified :func:`~repro.core.run.run`
  entry point dispatching every substrate (staged, timed) and both
  static and scripted-event runs.
* :mod:`repro.core.protocol` -- the underlying one-call runners that
  execute the protocol and (optionally) check the result against the
  centralized Theorem 1 prices.
* :mod:`repro.core.convergence` -- the ``d`` / ``d'`` bound machinery
  for experiment E5.
* :mod:`repro.core.dynamics` -- scripted-event reconvergence (E10).
"""

from repro.core.cases import NeighborRelation, classify_neighbor, price_candidates
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import (
    DistributedPriceResult,
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.core.run import run
from repro.core.convergence import ConvergenceBound, convergence_bound

__all__ = [
    "NeighborRelation",
    "classify_neighbor",
    "price_candidates",
    "PriceComputingNode",
    "UpdateMode",
    "DistributedPriceResult",
    "run",
    "distributed_mechanism",
    "timed_mechanism",
    "verify_against_centralized",
    "ConvergenceBound",
    "convergence_bound",
]
