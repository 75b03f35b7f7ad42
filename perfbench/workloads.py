"""The benchmark's four workloads.

Each workload turns a seed into the inputs of one or more graphs
(``setup``), runs one op through the program's public entry points on
each graph (``op``), and runs the same op again split into its public
layer calls, each under a benchmark-side span (``traced_op``).
``outcome`` reduces the result of either path to what the checks
compare: a digest of the output, the exact counts that must repeat
across ops, and a correctness verdict.  The program only ever receives
the generated graphs and events.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import api
from repro.bgp.engine import SynchronousEngine
from repro.bgp.events import CostChange, LinkFailure, LinkRecovery
from repro.bgp.metrics import ConvergenceReport
from repro.bgp.policy import LowestCostPolicy
from repro.bgp.timed import TimedEngine
from repro.core.dynamics import TimedScenarioResult, apply_event_to_graph
from repro.core.price_node import PriceComputingNode, UpdateMode
from repro.core.protocol import DistributedPriceResult
from repro.exceptions import ExperimentError
from repro.graphs.biconnectivity import is_biconnected
from repro.graphs.generators import (
    barabasi_albert_graph,
    integer_costs,
    isp_like_graph,
    uniform_costs,
)
from repro.mechanism.vcg import PriceTable, vcg_price
from repro.routing.flatgraph import build_flat_graph
from repro.routing.flatsweep import (
    FlatSweepStats,
    demand_from_routes,
    flat_price_arrays,
    sweep_demand,
)
from repro.types import costs_close

#: Priced pairs whose every transit price is re-derived with the
#: single-price reference ``vcg_price`` and compared with each op's output.
SAMPLE_PAIRS = 12

#: Timed-substrate settings of ``bgp-churn``.
CHURN_DELAY = "uniform:0.1,1.0"
CHURN_MRAI = {"interval": 1.0, "mode": "peer", "jitter": 0.25}
CHURN_PATTERN = (
    "fail", "cost", "fail", "recover", "cost", "fail", "recover", "cost"
)
CHURN_SPACING = 1.0


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Outcome:
    """What the checks compare across ops."""

    digest: str
    counts: Dict[str, float]
    ok: bool
    why: str = ""


@dataclass
class Inputs:
    """One workload's generated inputs plus its reference sample."""

    seed: int
    graph: Any
    routes: Any = None
    table: Any = None
    events: Any = None
    #: ``(source, destination) -> {k: reference price}``, filled once.
    sample: Dict[Tuple[int, int], Dict[int, float]] = field(default_factory=dict)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _rows_digest(rows: Dict[Tuple[int, int], Dict[int, float]]) -> str:
    """Digest of a ``(i, j) -> {k: price}`` mapping, in insertion order."""
    pairs = np.array(list(rows), dtype=np.int64).reshape(-1, 2)
    lengths = np.fromiter(map(len, rows.values()), dtype=np.int64, count=len(rows))
    transit = np.fromiter(chain.from_iterable(rows.values()), dtype=np.int64)
    prices = np.fromiter(
        chain.from_iterable(row.values() for row in rows.values()), dtype=np.float64
    )
    return _digest(pairs, lengths, transit, prices)


def _reference_sample(inputs: Inputs, routes) -> None:
    """Pick priced pairs with a seeded RNG and price them with ``vcg_price``."""
    graph = inputs.graph
    nodes = list(graph.nodes)
    rng = random.Random(inputs.seed)
    while len(inputs.sample) < SAMPLE_PAIRS:
        source, destination = rng.sample(nodes, 2)
        path = routes.path(source, destination)
        if len(path) < 3 or (source, destination) in inputs.sample:
            continue
        inputs.sample[(source, destination)] = {
            k: vcg_price(graph, source, destination, k, routes) for k in path[1:-1]
        }


def _sample_mismatch(inputs: Inputs, row_of) -> str:
    """First sampled entry the op's output gets wrong, or ``""``."""
    for (source, destination), expected in inputs.sample.items():
        row = row_of(source, destination)
        if set(row) != set(expected):
            return f"transit set of ({source}, {destination}) is {sorted(row)}"
        for k, price in expected.items():
            if not costs_close(row[k], price):
                return f"p^{k}_({source},{destination}) = {row[k]} != {price}"
    return ""


class Workload:
    """One benchmark workload: the same op, on the same graphs, each time.

    An op runs the public call once per graph.  The graphs come from
    consecutive seeds, ``seed * graphs + i``; with more than one graph
    per op, the work an op does varies less from seed to seed, because
    the graphs' differences average out.
    """

    name = ""
    why = ""
    #: Graphs per op.
    graphs = 1

    def setup(self, seed: int) -> List[Inputs]:
        return [
            self.setup_graph(seed * self.graphs + i) for i in range(self.graphs)
        ]

    def prepare_checks(self, inputs: List[Inputs]) -> None:
        """Untimed reference data for :meth:`outcome`."""
        for one in inputs:
            self.prepare_graph(one)

    def op(self, inputs: List[Inputs]) -> List[Any]:
        return [self.op_graph(one) for one in inputs]

    def traced_op(self, inputs: List[Inputs], rec) -> List[Any]:
        return [self.traced_graph(one, rec) for one in inputs]

    def outcome(self, inputs: List[Inputs], results: List[Any]) -> Outcome:
        """The graphs' outcomes combined: digests chained, counts summed."""
        parts = [self.outcome_graph(one, r) for one, r in zip(inputs, results)]
        counts: Dict[str, float] = {}
        for part in parts:
            for key, value in part.counts.items():
                counts[key] = counts.get(key, 0) + value
        bad = [part.why for part in parts if not part.ok]
        digest = hashlib.blake2b(digest_size=16)
        for part in parts:
            digest.update(part.digest.encode())
        return Outcome(
            digest=digest.hexdigest(),
            counts=counts,
            ok=not bad,
            why=bad[0] if bad else "",
        )

    def setup_graph(self, seed: int) -> Inputs:
        raise NotImplementedError

    def prepare_graph(self, inputs: Inputs) -> None:
        pass

    def op_graph(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def traced_graph(self, inputs: Inputs, rec) -> Any:
        raise NotImplementedError

    def outcome_graph(self, inputs: Inputs, result: Any) -> Outcome:
        raise NotImplementedError


class PriceIsp(Workload):
    """``compute_price_table(g, engine="flat")`` with routes inside the op."""

    name = "price-isp"
    why = (
        "serial pure-Python routes and dict assembly dominate; the sweep "
        "does little"
    )

    def __init__(self, n: int = 400) -> None:
        self.n = n

    def setup_graph(self, seed: int) -> Inputs:
        graph = isp_like_graph(self.n, seed=seed, cost_sampler=uniform_costs(1.0, 6.0))
        return Inputs(seed=seed, graph=graph)

    def prepare_graph(self, inputs: Inputs) -> None:
        _reference_sample(inputs, api.all_pairs_lcp(inputs.graph))

    def op_graph(self, inputs: Inputs) -> PriceTable:
        return api.compute_price_table(inputs.graph, engine="flat")

    def traced_graph(self, inputs: Inputs, rec) -> PriceTable:
        graph = inputs.graph
        with rec.phase("allpairs"):
            routes = api.all_pairs_lcp(graph)
        rec.count("allpairs.trees", len(routes.trees))
        with rec.phase("flatgraph.build"):
            flat = build_flat_graph(graph)
        with rec.phase("flatsweep.demand"):
            demand = demand_from_routes(graph, routes, flat)
        stats = FlatSweepStats()
        with rec.phase("flatsweep.sweep"):
            arrays = sweep_demand(demand, stats=stats)
        _count_sweep(rec, demand, stats)
        with rec.phase("vcg.assemble"):
            table = PriceTable(routes=routes, rows=arrays.to_rows())
        rec.count("vcg.price_rows", len(table.rows))
        return table

    def outcome_graph(self, inputs: Inputs, table: PriceTable) -> Outcome:
        rows = table.rows
        entries = sum(map(len, rows.values()))
        why = _sample_mismatch(inputs, lambda i, j: rows.get((i, j), {}))
        return Outcome(
            digest=_rows_digest(rows),
            counts={"price_rows": len(rows), "entries": entries},
            ok=not why,
            why=why,
        )


class PriceBa(Workload):
    """``flat_price_arrays`` on a power-law graph, routes built in setup."""

    name = "price-ba"
    why = (
        "power-law degrees skew demand per transit node, so the parallel "
        "sweep dominates and routes/assembly are bypassed"
    )

    graphs = 4

    def __init__(self, n: int = 400) -> None:
        self.n = n
        self.workers = nproc()
        self.shards = 4 * self.workers

    def setup_graph(self, seed: int) -> Inputs:
        graph = barabasi_albert_graph(
            self.n, seed=seed, cost_sampler=uniform_costs(1.0, 6.0)
        )
        return Inputs(seed=seed, graph=graph, routes=api.all_pairs_lcp(graph))

    def prepare_graph(self, inputs: Inputs) -> None:
        _reference_sample(inputs, inputs.routes)

    def op_graph(self, inputs: Inputs):
        return flat_price_arrays(
            inputs.graph, inputs.routes, workers=self.workers, shards=self.shards
        )

    def traced_graph(self, inputs: Inputs, rec):
        graph = inputs.graph
        with rec.phase("flatgraph.build"):
            flat = build_flat_graph(graph)
        with rec.phase("flatsweep.demand"):
            demand = demand_from_routes(graph, inputs.routes, flat)
        # flat_price_arrays' layout: min(shards, groups) round-robin shards.
        count = min(self.shards, demand.num_groups) or 1
        shard_lists = [range(i, demand.num_groups, count) for i in range(count)]
        stats = FlatSweepStats()
        inherited_mb = _rss_mb()
        with rec.phase("flatsweep.sweep"):
            arrays = sweep_demand(
                demand, workers=self.workers, shard_lists=shard_lists, stats=stats
            )
        _count_sweep(rec, demand, stats)
        if stats.workers > 1:
            # A forked worker's RSS starts at the parent's; what it adds
            # on top is its mask copy, distance blocks and the shared
            # segments it touches.  ru_maxrss of children is the peak
            # over every reaped worker, all of them sweeps of this op.
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            rec.peak(
                "flatsweep.worker_peak_rss_mb",
                children.ru_maxrss / 1024.0 - inherited_mb,
            )
        return arrays

    def outcome_graph(self, inputs: Inputs, arrays) -> Outcome:
        node_ids = arrays.node_ids

        def row_of(source: int, destination: int) -> Dict[int, float]:
            hit = np.flatnonzero(
                (node_ids[arrays.pair_src] == source)
                & (node_ids[arrays.pair_dst] == destination)
            )
            if hit.size != 1:
                return {}
            p = int(hit[0])
            lo, hi = arrays.pair_offset[p], arrays.pair_offset[p + 1]
            return dict(
                zip(
                    node_ids[arrays.entry_k[lo:hi]].tolist(),
                    arrays.prices[lo:hi].tolist(),
                )
            )

        why = _sample_mismatch(inputs, row_of)
        return Outcome(
            digest=_digest(
                arrays.pair_src,
                arrays.pair_dst,
                arrays.pair_offset,
                arrays.entry_k,
                arrays.prices,
            ),
            counts={"pairs": arrays.num_pairs, "entries": arrays.num_entries},
            ok=not why,
            why=why,
        )


def _rss_mb() -> float:
    """This process's resident set now, in MB (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _count_sweep(rec, demand, stats: FlatSweepStats) -> None:
    rec.count("flatsweep.entries", demand.num_entries)
    rec.count("flatsweep.groups", demand.num_groups)
    rec.count("flatsweep.solves", stats.solves)
    rec.count("flatsweep.rows", stats.rows)
    rec.count("flatsweep.masked", stats.masked)
    rec.peak("flatsweep.max_block_rows", stats.max_block_rows)
    rec.peak("flatsweep.workers", stats.workers)
    rec.peak("flatsweep.shards", stats.shards)


def _price_node_factory(node_id, cost, policy):
    return PriceComputingNode(node_id, cost, policy, mode=UpdateMode.MONOTONE)


class BgpConverge(Workload):
    """``api.run(g)`` plus verification against a setup-time reference table."""

    name = "bgp-converge"
    why = (
        "the paper's Sect. 6 staged computation with delta transport; "
        "integer costs make tie-breaking real"
    )

    def __init__(self, n: int = 100) -> None:
        self.n = n

    def setup_graph(self, seed: int) -> Inputs:
        graph = isp_like_graph(self.n, seed=seed, cost_sampler=integer_costs(1, 6))
        return Inputs(seed=seed, graph=graph, table=api.compute_price_table(graph))

    def op_graph(self, inputs: Inputs):
        result = api.run(inputs.graph)
        return result, api.verify_against_centralized(result, inputs.table)

    def traced_graph(self, inputs: Inputs, rec):
        with rec.phase("bgp.engine.init"):
            engine = SynchronousEngine(
                inputs.graph,
                policy=LowestCostPolicy(),
                node_factory=_price_node_factory,
                incremental=True,
            )
            engine.initialize()
        # SynchronousEngine.run's loop, one span per stage.
        report = ConvergenceReport(converged=False, stages=0)
        while not engine.quiescent:
            with rec.phase("bgp.engine.step"):
                stats = engine.step()
            if stats.nodes_changed or stats.messages:
                report.record_stage(stats)
            if stats.nodes_changed:
                report.stages = stats.stage
        report.converged = True
        result = DistributedPriceResult(
            graph=inputs.graph, engine=engine, report=report, mode=UpdateMode.MONOTONE
        )
        with rec.phase("protocol.verify"):
            verification = api.verify_against_centralized(result, inputs.table)
        rec.count("bgp.messages", report.total_messages)
        rec.count("bgp.rows_suppressed", report.total_rows_suppressed)
        rec.count("protocol.prices_checked", verification.prices_checked)
        return result, verification

    def outcome_graph(self, inputs: Inputs, pair) -> Outcome:
        result, verification = pair
        report = result.report
        why = "" if report.converged else "did not converge"
        why = why or ("" if verification.ok else str(verification.mismatches[0]))
        return Outcome(
            digest=_rows_digest(result.price_rows()),
            counts={
                "stages": report.stages,
                "rows_sent": report.total_rows_sent,
                "messages": report.total_messages,
            },
            ok=not why,
            why=why,
        )


def churn_events(graph, seed: int) -> List[Tuple[float, Any]]:
    """Seeded failures, recoveries and cost changes, ``CHURN_SPACING`` apart.

    Every intermediate graph stays biconnected, so the mechanism is
    defined at every epoch.
    """
    rng = random.Random(seed)
    current = graph
    failed: List[Tuple[int, int]] = []
    events: List[Tuple[float, Any]] = []
    for index, kind in enumerate(CHURN_PATTERN):
        if kind == "fail":
            edges = list(current.edges)
            rng.shuffle(edges)
            u, v = next(
                (u, v) for u, v in edges if is_biconnected(current.without_edge(u, v))
            )
            failed.append((u, v))
            event = LinkFailure(u, v)
        elif kind == "recover":
            event = LinkRecovery(*failed.pop(rng.randrange(len(failed))))
        else:
            node = rng.choice(current.nodes)
            choices = [c for c in range(1, 7) if c != int(current.cost(node))]
            event = CostChange(node, float(rng.choice(choices)))
        current = apply_event_to_graph(current, event)
        events.append((CHURN_SPACING * (index + 1), event))
    return events


class BgpChurn(Workload):
    """``api.run`` on the timed substrate through scripted churn."""

    name = "bgp-churn"
    why = (
        "timed substrate through withdrawals, in-flight losses and MRAI "
        "coalescing on the event heap"
    )

    graphs = 2

    def __init__(self, n: int = 60) -> None:
        self.n = n

    def setup_graph(self, seed: int) -> Inputs:
        graph = isp_like_graph(self.n, seed=seed, cost_sampler=integer_costs(1, 6))
        return Inputs(seed=seed, graph=graph, events=churn_events(graph, seed))

    def op_graph(self, inputs: Inputs) -> TimedScenarioResult:
        return api.run(
            inputs.graph,
            inputs.events,
            protocol="timed",
            seed=inputs.seed,
            delay=CHURN_DELAY,
            mrai=CHURN_MRAI,
        )

    def traced_graph(self, inputs: Inputs, rec) -> TimedScenarioResult:
        # timed_scenario, one span per public call.
        events = inputs.events
        ordered = sorted(enumerate(events), key=lambda item: (item[1][0], item[0]))
        with rec.phase("dynamics.validate"):
            current = inputs.graph
            for _, (_when, event) in ordered:
                current = apply_event_to_graph(current, event)
                if not is_biconnected(current):
                    raise ExperimentError(f"{event.describe()} breaks biconnectivity")
        with rec.phase("bgp.timed.init"):
            engine = TimedEngine(
                inputs.graph,
                policy=LowestCostPolicy(),
                node_factory=_price_node_factory,
                seed=inputs.seed,
                delay=CHURN_DELAY,
                mrai=CHURN_MRAI,
            )
            engine.initialize()
            for _, (when, event) in ordered:
                engine.schedule_event(when, event)
        with rec.phase("bgp.timed.run"):
            report = engine.run()
        result = DistributedPriceResult(
            graph=current, engine=engine, report=report, mode=UpdateMode.MONOTONE
        )
        with rec.phase("vcg.reference"):
            table = api.compute_price_table(current)
        with rec.phase("protocol.verify"):
            verification = api.verify_against_centralized(result, table)
        rec.count("bgp.timed.deliveries", report.deliveries)
        rec.count("bgp.timed.rows_lost", report.rows_lost)
        rec.count("bgp.timed.mrai_deferrals", report.mrai_deferrals)
        rec.count("bgp.timed.rows_offered", report.rows_offered)
        rec.count("bgp.timed.rows_coalesced", report.mrai_rows_coalesced)
        rec.count("protocol.prices_checked", verification.prices_checked)
        return TimedScenarioResult(
            graph=current,
            engine=engine,
            report=report,
            verification=verification,
            events_applied=len(events),
        )

    def outcome_graph(self, inputs: Inputs, result: TimedScenarioResult) -> Outcome:
        report = result.report
        why = "" if result.ok else (
            str(result.verification.mismatches[0])
            if result.verification.mismatches
            else "did not converge"
        )
        final = DistributedPriceResult(
            graph=result.graph,
            engine=result.engine,
            report=report,
            mode=UpdateMode.MONOTONE,
        )
        return Outcome(
            digest=_rows_digest(final.price_rows()),
            counts={
                "rows_sent": report.rows_sent,
                "convergence_vtime": report.convergence_time,
                "deliveries": report.deliveries,
            },
            ok=not why,
            why=why,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (PriceIsp(), PriceBa(), BgpConverge(), BgpChurn())
}
