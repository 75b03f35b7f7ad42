"""Theorem 1: the unique strategyproof pricing scheme.

For a biconnected graph with selected LCPs, the per-packet price paid to
transit node ``k`` for a packet from ``i`` to ``j`` is

    ``p^k_ij = c_k + Cost(P_{-k}(c; i, j)) - Cost(P(c; i, j))``

when ``k`` is a transit node on the selected LCP, and ``0`` otherwise
(Eq. 1 of the paper).  :func:`compute_price_table` evaluates this for
every ordered pair, batching the k-avoiding Dijkstras per destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, ItemsView, Iterator, Mapping, Optional, Tuple

import repro.obs as obs_mod
from repro.devtools import sanitize as sanitize_checks
from repro.exceptions import MechanismError, NotBiconnectedError
from repro.graphs.asgraph import ASGraph
from repro.obs import names as metric_names
from repro.routing.allpairs import AllPairsRoutes, all_pairs_lcp
from repro.routing.avoiding import avoiding_costs_for_destination, avoiding_tree
from repro.types import Cost, NodeId, is_zero_cost

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.routing.engines import EngineSpec

PriceRow = Dict[NodeId, Cost]
PairKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class PriceTable:
    """All per-packet VCG prices for one routing instance.

    ``rows[(i, j)]`` maps each *transit node on the selected LCP from i
    to j* to its price ``p^k_ij``.  Prices for nodes off the LCP are
    zero by Theorem 1 and are not stored.
    """

    routes: AllPairsRoutes
    rows: Dict[PairKey, PriceRow] = field(repr=False)

    def price(self, k: NodeId, source: NodeId, destination: NodeId) -> Cost:
        """``p^k_{source,destination}`` (zero when off the LCP)."""
        return self.rows.get((source, destination), {}).get(k, 0.0)

    def row(self, source: NodeId, destination: NodeId) -> PriceRow:
        """All non-zero prices for one pair, keyed by transit node."""
        return dict(self.rows.get((source, destination), {}))

    def pairs(self) -> Tuple[PairKey, ...]:
        return tuple(sorted(self.rows))

    def items(self) -> ItemsView[PairKey, PriceRow]:
        return self.rows.items()

    def __iter__(self) -> Iterator[PairKey]:
        return iter(self.pairs())

    def total_price(self, source: NodeId, destination: NodeId) -> Cost:
        """Sum of per-packet prices paid for one packet on this pair --
        what the *endpoints' side* of the economy pays per packet."""
        return float(sum(self.rows.get((source, destination), {}).values()))

    def node_prices(self, k: NodeId) -> Dict[PairKey, Cost]:
        """Every pair for which node *k* earns a non-zero price."""
        result: Dict[PairKey, Cost] = {}
        for pair, row in self.rows.items():
            if k in row:
                result[pair] = row[k]
        return result


def vcg_price(
    graph: ASGraph,
    source: NodeId,
    destination: NodeId,
    k: NodeId,
    routes: Optional[AllPairsRoutes] = None,
) -> Cost:
    """Single price ``p^k_ij`` straight from the Theorem 1 formula.

    Reference implementation used by the tests to cross-check the
    batched table; computes one k-avoiding Dijkstra.
    """
    routes = routes or all_pairs_lcp(graph)
    tree = routes.tree(destination)
    if not tree.on_path(k, source):
        return 0.0
    detour = avoiding_tree(graph, destination, k)
    if not detour.has_route(source):
        raise NotBiconnectedError(
            message=(
                f"price p^{k}_{{{source},{destination}}} undefined: no "
                f"{k}-avoiding path (graph not biconnected)"
            )
        )
    return graph.cost(k) + detour.cost(source) - tree.cost(source)


def compute_price_table(
    graph: ASGraph,
    routes: Optional[AllPairsRoutes] = None,
    *,
    engine: Optional["EngineSpec"] = None,
    sanitize: Optional[bool] = None,
    obs: Optional[obs_mod.Obs] = None,
) -> PriceTable:
    """All-pairs VCG prices, batched per (destination, k).

    For each destination ``j`` and each node ``k`` that is transit on
    *some* selected path toward ``j``, a single Dijkstra on ``G - k``
    rooted at ``j`` provides ``Cost(P_{-k}(c; i, j))`` for every source
    ``i`` simultaneously.

    Keyword-only knobs (same names, order, and defaults as
    :func:`repro.routing.allpairs.all_pairs_lcp`):

    *engine* selects a registered backend by name or instance from
    :mod:`repro.routing.engines` -- ``"flat"`` runs the avoiding sweep
    over flat CSR arrays (``get_engine("flat", workers=N)`` shards it
    over worker processes), ``"incremental"`` reuses cached trees.
    The default (``None`` or ``"reference"``) is the serial reference
    loop below; every engine returns identical tables per the
    differential test harness.

    *sanitize* overrides the global sanitizer toggle for this call:
    ``True`` forces :func:`repro.devtools.sanitize.check_price_table`
    on the result, ``False`` skips it, ``None`` (default) follows the
    global toggle.

    *obs* names an explicit :class:`repro.obs.Obs` observer; ``None``
    reports to the global default observer iff observability is
    enabled.  Observed runs execute under a ``mechanism.price_table``
    span and count ``mechanism.price_rows`` throughput.
    """
    check = sanitize_checks.enabled() if sanitize is None else bool(sanitize)
    observer = obs_mod.active(obs)
    if engine is not None and engine != "reference":
        from repro.routing.engines import resolve_engine

        resolved = resolve_engine(engine)
        if observer is None:
            table = resolved.price_table(graph, routes=routes, obs=obs)
        else:
            with observer.span(
                metric_names.SPAN_PRICE_TABLE, engine=resolved.name
            ):
                table = resolved.price_table(graph, routes=routes, obs=obs)
        # Engines self-check under the global toggle; honor a forced
        # sanitize=True without double-checking the common case.
        if check and not sanitize_checks.enabled():
            sanitize_checks.check_price_table(graph, table)
        return table
    if observer is None:
        table = _price_table_reference(graph, routes, obs=obs)
    else:
        with observer.span(metric_names.SPAN_PRICE_TABLE, engine="reference"):
            table = _price_table_reference(graph, routes, obs=obs)
        observer.count(
            metric_names.PRICE_ROWS, len(table.rows), engine="reference"
        )
    if check:
        sanitize_checks.check_price_table(graph, table)
    return table


def _price_table_reference(
    graph: ASGraph,
    routes: Optional[AllPairsRoutes],
    obs: Optional[obs_mod.Obs] = None,
) -> PriceTable:
    """The serial semantics-defining Theorem 1 sweep."""
    if routes is None:
        routes = all_pairs_lcp(graph, obs=obs)
    rows: Dict[PairKey, PriceRow] = {}
    for destination in graph.nodes:
        tree = routes.tree(destination)
        # One materialization of the per-destination structure: sources
        # and their paths are walked once for the transit set and reused
        # for the row sweep (transit_nodes() would re-sort and re-walk).
        source_paths = [(source, tree.path(source)) for source in tree.sources()]
        transit_set = set()
        for _source, path in source_paths:
            transit_set.update(path[1:-1])
        transit = tuple(sorted(transit_set))
        detours = avoiding_costs_for_destination(graph, destination, transit)
        for source, path in source_paths:
            if len(path) == 2:
                continue  # direct link: no transit nodes, no prices
            row: PriceRow = {}
            for k in path[1:-1]:
                detour = detours[k]
                if not detour.has_route(source):
                    raise NotBiconnectedError(
                        message=(
                            f"price p^{k}_{{{source},{destination}}} undefined: "
                            f"no {k}-avoiding path (graph not biconnected)"
                        )
                    )
                price = graph.cost(k) + detour.cost(source) - tree.cost(source)
                if price < -1e-9:
                    raise MechanismError(
                        f"negative VCG price {price} for k={k}, pair "
                        f"({source}, {destination}); avoiding cost below LCP cost"
                    )
                row[k] = price
            rows[(source, destination)] = row
    return PriceTable(routes=routes, rows=rows)


def payments(
    table: PriceTable,
    traffic: Mapping[PairKey, float],
) -> Dict[NodeId, Cost]:
    """Total payment ``p_k = sum_ij T_ij p^k_ij`` per node.

    *traffic* maps ordered pairs to packet intensities ``T_ij``; missing
    pairs carry zero traffic.  Nodes earning nothing are present with
    payment ``0.0`` so that the no-transit-no-payment property is
    directly observable.
    """
    totals: Dict[NodeId, Cost] = {node: 0.0 for node in table.routes.graph.nodes}
    for (source, destination), intensity in traffic.items():
        if is_zero_cost(intensity):
            continue
        if intensity < 0:
            raise MechanismError(
                f"negative traffic intensity {intensity} for pair "
                f"({source}, {destination})"
            )
        for k, price in table.rows.get((source, destination), {}).items():
            totals[k] += intensity * price
    return totals
