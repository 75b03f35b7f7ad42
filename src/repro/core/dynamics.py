"""Reconvergence under network dynamics (experiment E10).

The paper's model restarts convergence whenever a route changes.  This
module drives a running FPSS network through a scripted event sequence;
after every event it runs the engine back to quiescence, verifies the
result against the centralized mechanism for the *mutated* graph, and
records the reconvergence stages next to the new instance's
``max(d, d')`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import repro.obs as obs_mod
from repro.bgp.delays import DelayModel
from repro.bgp.engine import SynchronousEngine
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery, NetworkEvent
from repro.bgp.metrics import TimedReport
from repro.bgp.policy import LowestCostPolicy, SelectionPolicy
from repro.bgp.timed import MRAIConfig, TimedEngine
from repro.core.convergence import ConvergenceBound, convergence_bound
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import (
    DistributedPriceResult,
    VerificationReport,
    verify_against_centralized,
)
from repro.exceptions import ExperimentError
from repro.graphs.asgraph import ASGraph
from repro.graphs.biconnectivity import is_biconnected
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.routing.engines import Engine, EngineSpec


def apply_event_to_graph(graph: ASGraph, event: NetworkEvent) -> ASGraph:
    """The graph-side twin of an engine event, for the reference model."""
    if isinstance(event, LinkFailure):
        return graph.without_edge(event.u, event.v)
    if isinstance(event, LinkRecovery):
        return graph.with_edge(event.u, event.v)
    if isinstance(event, CostChange):
        return graph.with_cost(event.node, event.new_cost)
    raise ExperimentError(f"unknown event type {type(event).__name__}")


@dataclass
class EpochResult:
    """The outcome of one convergence epoch (initial or post-event).

    A network event triggers the Sect. 6 restart: the price-computing
    network forgets its learned state and reconverges from scratch on
    the mutated topology, so ``stages`` (the engine's reconvergence
    count from the event) is itself a from-scratch measurement and must
    respect the mutated instance's ``max(d, d')``.  ``cold_stages``
    cross-checks with an entirely fresh engine on the mutated graph.
    """

    description: str
    graph: ASGraph
    stages: int
    cold_stages: int
    bound: ConvergenceBound
    verification: VerificationReport

    @property
    def within_bound(self) -> bool:
        """Reconvergence respects Theorem 2 on the mutated instance."""
        return (
            self.stages <= self.bound.stages
            and self.cold_stages <= self.bound.stages
        )

    @property
    def ok(self) -> bool:
        return self.verification.ok


@dataclass
class DynamicsRun:
    """A full scripted run: initial convergence plus one epoch per event."""

    epochs: List[EpochResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(epoch.ok for epoch in self.epochs)

    @property
    def all_within_bound(self) -> bool:
        return all(epoch.within_bound for epoch in self.epochs)


def dynamic_scenario(
    graph: ASGraph,
    events: Sequence[NetworkEvent],
    mode: UpdateMode = UpdateMode.MONOTONE,
    policy: Optional[SelectionPolicy] = None,
    max_stages: Optional[int] = None,
    *,
    engine: Optional["EngineSpec"] = None,
    protocol: str = "delta",
    obs: Optional[obs_mod.Obs] = None,
) -> DynamicsRun:
    """Converge, then apply each event and reconverge, verifying every
    epoch against the centralized mechanism on the mutated graph.

    Every intermediate graph must stay biconnected (otherwise the
    mechanism itself is undefined); a violating script raises
    :class:`ExperimentError` before the offending event is applied.

    *engine* selects the route/price backend used for the per-epoch
    centralized verification (name or instance; default: the reference
    sweep).  It is resolved **once** and the same instance is reused
    across every epoch -- this is what lets the stateful ``incremental``
    engine carry its tree caches from one event to the next instead of
    recomputing the mutated instance from scratch.

    *protocol* selects the BGP transport of the distributed network
    under test: ``delta`` (incremental row exchanges, the default) or
    ``full`` (literal Sect. 5 full tables); results are bit-identical
    either way.
    """
    policy = policy or LowestCostPolicy()

    def factory(node_id: NodeId, cost: Cost, pol: SelectionPolicy) -> PriceComputingNode:
        return PriceComputingNode(node_id, cost, pol, mode=mode)

    price_engine: Optional["Engine"] = None
    if engine is not None:
        from repro.routing.engines import resolve_engine

        price_engine = resolve_engine(engine)

    bgp = SynchronousEngine(
        graph,
        policy=policy,
        node_factory=factory,
        incremental=protocol != "full",
        obs=obs,
    )
    bgp.initialize()
    run = DynamicsRun()
    current = graph

    report = bgp.run(max_stages=max_stages)
    run.epochs.append(
        _epoch("initial convergence", current, bgp, report, mode, price_engine)
    )

    for event in events:
        mutated = apply_event_to_graph(current, event)
        if not is_biconnected(mutated):
            raise ExperimentError(
                f"event '{event.describe()}' breaks biconnectivity; "
                "the mechanism is undefined on the resulting graph"
            )
        event.apply(bgp)
        current = mutated
        report = bgp.run(max_stages=max_stages)
        run.epochs.append(
            _epoch(event.describe(), current, bgp, report, mode, price_engine)
        )
    return run


@dataclass
class TimedScenarioResult:
    """The outcome of a timed scripted scenario.

    Unlike the staged :class:`DynamicsRun`, events fire *inside* one
    continuous timed run -- possibly while UPDATEs are still in flight
    (those are lost with their session) -- so there is one final
    verification against the centralized mechanism on the fully mutated
    graph rather than one per epoch.
    """

    graph: ASGraph  # the final mutated topology
    engine: TimedEngine
    report: TimedReport
    verification: VerificationReport
    events_applied: int

    @property
    def ok(self) -> bool:
        return self.report.converged and self.verification.ok


def timed_scenario(
    graph: ASGraph,
    events: Sequence[Tuple[float, NetworkEvent]],
    mode: UpdateMode = UpdateMode.MONOTONE,
    policy: Optional[SelectionPolicy] = None,
    *,
    seed: int = 0,
    delay: Union[str, DelayModel, None] = None,
    mrai: Union[dict, MRAIConfig, None] = None,
    max_events: Optional[int] = None,
    obs: Optional[obs_mod.Obs] = None,
) -> TimedScenarioResult:
    """Run the timed substrate with network events at virtual times.

    *events* is a sequence of ``(when, event)`` pairs; they are applied
    at their virtual timestamps, interleaved with whatever protocol
    traffic is then in flight.  Every intermediate graph (events taken
    in timestamp order) must stay biconnected, else the mechanism is
    undefined and :class:`ExperimentError` is raised before anything
    runs.  The converged final state is verified against the
    centralized mechanism on the final mutated graph.
    """
    policy = policy or LowestCostPolicy()
    ordered = sorted(enumerate(events), key=lambda item: (item[1][0], item[0]))
    current = graph
    for _, (when, event) in ordered:
        current = apply_event_to_graph(current, event)
        if not is_biconnected(current):
            raise ExperimentError(
                f"event '{event.describe()}' breaks biconnectivity; "
                "the mechanism is undefined on the resulting graph"
            )

    def factory(node_id: NodeId, cost: Cost, pol: SelectionPolicy) -> PriceComputingNode:
        return PriceComputingNode(node_id, cost, pol, mode=mode)

    engine = TimedEngine(
        graph,
        policy=policy,
        node_factory=factory,
        seed=seed,
        delay=delay,
        mrai=mrai,
        obs=obs,
    )
    engine.initialize()
    for _, (when, event) in ordered:
        engine.schedule_event(when, event)
    report = engine.run(max_events=max_events)
    result = DistributedPriceResult(
        graph=current, engine=engine, report=report, mode=mode
    )
    verification = verify_against_centralized(result)
    return TimedScenarioResult(
        graph=current,
        engine=engine,
        report=report,
        verification=verification,
        events_applied=len(events),
    )


def _epoch(
    description: str,
    graph: ASGraph,
    engine: SynchronousEngine,
    report,
    mode: UpdateMode,
    price_engine: Optional["Engine"] = None,
) -> EpochResult:
    result = DistributedPriceResult(
        graph=graph, engine=engine, report=report, mode=mode
    )
    # The centralized reference for the *mutated* graph: a stateful
    # price engine (incremental) updates its cached trees here instead
    # of recomputing all of them.
    table = price_engine.price_table(graph) if price_engine is not None else None
    verification = verify_against_centralized(result, table=table)
    # Cold-start reference run on the mutated graph: this is what
    # Theorem 2's bound is actually about.
    from repro.core.protocol import distributed_mechanism

    cold = distributed_mechanism(graph, mode=mode, policy=engine.policy)
    return EpochResult(
        description=description,
        graph=graph,
        stages=report.stages,
        cold_stages=cold.stages,
        bound=convergence_bound(graph),
        verification=verification,
    )
