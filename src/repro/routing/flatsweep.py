"""Vectorized demand inversion + shardable flat price sweep.

This module is the core under the ``flat`` engine.  It owns the three
scaling moves that take the Theorem 1 price sweep past n = 10,000:

1. **Vectorized inversion.**  The canonical routes -- given route
   trees, or the canonical parent forests of
   :mod:`repro.routing.forests` when none are given -- are flattened
   into per-transit-node demand by numpy path-unrolling over dense
   parent arrays (:func:`demand_from_routes` /
   :func:`demand_from_forests`) -- no per-(source, destination) Python
   iteration.  The resulting :class:`FlatDemand` keeps every demanded
   ``(i, j, k)`` entry in the reference engine's scan order
   (destination ascending, source ascending, transit in path order),
   so an entry's position *is* its reference sequence number and
   violation witnesses stay exact.

2. **Group-contiguous evaluation.**  Entries are stably sorted by
   transit node once, and the per-pair source/destination/LCP columns
   are gathered into that order once -- each transit node's work is
   then a pair of contiguous array slices, with no per-group fancy
   indexing on the hot path.  Prices land in a flat array
   (:class:`FlatPriceArrays`); nothing per-entry touches a Python dict
   until a caller explicitly asks for the legacy mapping via
   :meth:`FlatPriceArrays.to_rows`.

3. **Sharded execution over shared memory.**  The per-transit-node
   groups are independent, so :func:`sweep_demand` can run them on a
   process pool: the CSR arrays, the sorted demand columns, and the
   output price array live in ``multiprocessing.shared_memory``
   segments (zero copies per worker); each worker makes a *private*
   scratch copy of the edge-weight column -- the only array masking
   mutates -- and writes its groups' prices into disjoint slices of the
   shared output.  Per-shard results are aggregated deterministically
   and the globally minimal-sequence violation is raised with the exact
   reference error class and message, so output is invariant to worker
   count and shard order.  A worker that dies surfaces as an
   :class:`~repro.exceptions.EngineError` instead of a hang.  Segments
   are unlinked in a ``finally`` block and backstopped by an ``atexit``
   hook, so interrupted runs do not leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.exceptions import (
    EngineError,
    MechanismError,
    NotBiconnectedError,
)
from repro.graphs.asgraph import ASGraph
from repro.routing.flatgraph import FlatGraph, build_flat_graph
from repro.routing.forests import ParentForest, canonical_forests
from repro.types import Cost, NodeId

if TYPE_CHECKING:  # pragma: no cover - import-light at runtime
    from repro.mechanism.vcg import PriceRow
    from repro.routing.allpairs import AllPairsRoutes

__all__ = [
    "FlatDemand",
    "FlatPriceArrays",
    "FlatSweepStats",
    "demand_from_forests",
    "demand_from_routes",
    "flat_price_arrays",
    "round_robin_groups",
    "sweep_demand",
]

#: Tolerance of the defensive negative-price guard; identical to the
#: reference sweep's literal so both paths trip on the same values.
_NEGATIVE_PRICE_EPS = -1e-9

#: Transit-group shards dealt per pool worker by default: finer shards
#: balance the skewed per-``k`` demand of ISP-like cores at a slightly
#: higher dispatch cost.  One worker always sweeps one inline shard.
_SHARDS_PER_WORKER = 4


@dataclass
class FlatSweepStats:
    """Work accounting of one flat price sweep (obs + benchmark gates).

    ``solves`` counts masked Dijkstra calls (one per distinct transit
    node), ``rows`` the distance rows computed across them (the
    demand-restriction + orientation win: without either it would be
    ``solves * n``), ``masked`` the stored entries masked in place,
    ``entries`` the demanded ``(i, j, k)`` price evaluations,
    ``max_block_rows`` the largest single distance block held alive --
    the peak-memory driver, bounded by ``max_k |sources_k|`` -- and
    ``workers`` / ``shards`` the process/shard layout the sweep ran
    with (both 1 for the inline single-process path).
    """

    solves: int = 0
    rows: int = 0
    masked: int = 0
    entries: int = 0
    max_block_rows: int = 0
    workers: int = 1
    shards: int = 1


@dataclass
class FlatDemand:
    """The demanded ``(i, j, k)`` price entries as flat arrays.

    Two coexisting orders describe the same entries:

    * **sequence order** -- the reference engine's scan order.  Entry
      ``e``'s position in :attr:`entry_k` is its global sequence
      number; :attr:`pair_offset` slices the entries of priced pair
      ``p`` out of it.
    * **group order** -- entries stably sorted by transit node.
      :attr:`order` maps a group-order position back to its sequence
      number, and :attr:`src_by_k` / :attr:`dst_by_k` /
      :attr:`lcp_by_k` are the per-entry solve columns pre-gathered
      into group order, so transit node ``group_k[g]``'s whole demand
      is the contiguous slice ``group_ptr[g] : group_ptr[g + 1]``.
    """

    flat: FlatGraph
    #: per priced pair: dense endpoints, selected-LCP transit cost, and
    #: the offsets of its entries in sequence order.
    pair_src: np.ndarray = field(repr=False)
    pair_dst: np.ndarray = field(repr=False)
    pair_lcp: np.ndarray = field(repr=False)
    pair_offset: np.ndarray = field(repr=False)
    #: per entry, sequence order: dense transit node.
    entry_k: np.ndarray = field(repr=False)
    #: group order -> sequence number (stable argsort of entry_k).
    order: np.ndarray = field(repr=False)
    #: per entry, group order: solve columns.
    src_by_k: np.ndarray = field(repr=False)
    dst_by_k: np.ndarray = field(repr=False)
    lcp_by_k: np.ndarray = field(repr=False)
    #: per group: dense transit node and slice bounds into group order.
    group_k: np.ndarray = field(repr=False)
    group_ptr: np.ndarray = field(repr=False)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_src.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_k.shape[0])

    @property
    def num_groups(self) -> int:
        return int(self.group_k.shape[0])


@dataclass
class FlatPriceArrays:
    """A priced table as flat arrays -- the sweep's native output.

    Pair ``p`` is ``(node_ids[pair_src[p]], node_ids[pair_dst[p]])``;
    its transit nodes and prices are the slice
    ``pair_offset[p] : pair_offset[p + 1]`` of :attr:`entry_k` /
    :attr:`prices` (path order).  No per-entry Python objects exist
    until :meth:`to_rows` is asked for the legacy dict-of-dicts
    mapping.
    """

    node_ids: np.ndarray = field(repr=False)
    pair_src: np.ndarray = field(repr=False)
    pair_dst: np.ndarray = field(repr=False)
    pair_lcp: np.ndarray = field(repr=False)
    pair_offset: np.ndarray = field(repr=False)
    entry_k: np.ndarray = field(repr=False)
    #: per entry, sequence order: the Theorem 1 price ``p^k_ij``.
    prices: np.ndarray = field(repr=False)
    stats: FlatSweepStats = field(default_factory=FlatSweepStats)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_src.shape[0])

    @property
    def num_entries(self) -> int:
        return int(self.entry_k.shape[0])

    def to_rows(self) -> Dict[Tuple[NodeId, NodeId], "PriceRow"]:
        """Materialize the ``(source, destination) -> {k: price}`` dicts.

        One bulk ``tolist`` per column and one ``dict(zip(...))`` per
        pair -- the only remaining per-pair Python work, kept off the
        sweep itself and paid solely by callers that need the legacy
        mapping (the ``PriceTable`` surface, the differential tests).
        """
        src_ids = self.node_ids[self.pair_src].tolist()
        dst_ids = self.node_ids[self.pair_dst].tolist()
        transit_ids = self.node_ids[self.entry_k].tolist()
        price_values = self.prices.tolist()
        offsets = self.pair_offset.tolist()
        rows: Dict[Tuple[NodeId, NodeId], Dict[NodeId, Cost]] = {}
        for position in range(self.num_pairs):
            start, stop = offsets[position], offsets[position + 1]
            rows[(src_ids[position], dst_ids[position])] = dict(
                zip(transit_ids[start:stop], price_values[start:stop])
            )
        return rows


# ----------------------------------------------------------------------
# Demand construction: numpy path-unrolling over parent arrays.
# ----------------------------------------------------------------------


def _unroll_parents(
    parent: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized transit extraction from a flattened parent forest.

    ``parent[g]`` is the flattened position of ``g``'s next hop toward
    its root, or ``-1`` for roots and unreachable slots.  A position is
    a transit hop of ``g``'s path iff it lies strictly between ``g``
    and the root, i.e. while its own parent pointer is still set.

    Returns ``(sources, widths, entries)``: the flattened positions
    whose paths have at least one transit hop, their transit counts,
    and the concatenated transit chains in path order.  The unroll is
    level-synchronous -- iteration count is the maximum hop count, with
    all paths advanced per level in numpy -- and reproduces the
    per-path Python walk's order exactly.
    """
    routed = np.flatnonzero(parent >= 0)
    first_hop = parent[routed]
    width = np.zeros(routed.shape[0], dtype=np.int64)
    alive = np.flatnonzero(parent[first_hop] >= 0)
    cursor = first_hop[alive]
    while alive.size:
        width[alive] += 1
        ahead = parent[cursor]
        keep = parent[ahead] >= 0
        alive = alive[keep]
        cursor = ahead[keep]
    priced = np.flatnonzero(width)
    sources = routed[priced]
    widths = width[priced]
    offsets = np.zeros(widths.shape[0] + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    entries = np.empty(int(offsets[-1]), dtype=np.int64)
    alive = np.arange(sources.shape[0], dtype=np.int64)
    cursor = parent[sources]
    level = 0
    while alive.size:
        entries[offsets[alive] + level] = cursor
        level += 1
        keep = widths[alive] > level
        alive = alive[keep]
        cursor = parent[cursor[keep]]
    return sources, widths, entries


def _finalize_demand(
    flat: FlatGraph,
    pair_src: np.ndarray,
    pair_dst: np.ndarray,
    pair_lcp: np.ndarray,
    pair_width: np.ndarray,
    entry_k: np.ndarray,
) -> FlatDemand:
    """Group the sequence-ordered demand by transit node, once."""
    pairs = int(pair_src.shape[0])
    entries = int(entry_k.shape[0])
    pair_offset = np.zeros(pairs + 1, dtype=np.int64)
    np.cumsum(pair_width, out=pair_offset[1:])
    # A stable sort keeps each transit node's entries in sequence
    # order, so within a group the minimal-sequence witness is simply
    # the first violating entry.
    order = np.argsort(entry_k, kind="stable")
    entry_pair = np.repeat(np.arange(pairs, dtype=np.int64), pair_width)
    pair_by_k = entry_pair[order]
    src_by_k = pair_src[pair_by_k]
    dst_by_k = pair_dst[pair_by_k]
    lcp_by_k = pair_lcp[pair_by_k]
    k_sorted = entry_k[order]
    if entries:
        bounds = np.flatnonzero(k_sorted[1:] != k_sorted[:-1]) + 1
        group_ptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), bounds, np.asarray([entries])]
        ).astype(np.int64)
        group_k = k_sorted[group_ptr[:-1]].astype(np.int64)
    else:
        group_ptr = np.zeros(1, dtype=np.int64)
        group_k = np.empty(0, dtype=np.int64)
    return FlatDemand(
        flat=flat,
        pair_src=pair_src,
        pair_dst=pair_dst,
        pair_lcp=pair_lcp,
        pair_offset=pair_offset,
        entry_k=entry_k,
        order=order,
        src_by_k=src_by_k,
        dst_by_k=dst_by_k,
        lcp_by_k=lcp_by_k,
        group_k=group_k,
        group_ptr=group_ptr,
    )


def demand_from_routes(
    graph: ASGraph,
    routes: "AllPairsRoutes",
    flat: Optional[FlatGraph] = None,
) -> FlatDemand:
    """Invert the canonical routes into per-transit-node demand.

    Per destination, the route tree's parent relation is densified into
    one parent array and unrolled with :func:`_unroll_parents`; the
    only remaining Python-level work is two ``fromiter`` scans per
    tree.  Destinations are visited in ``graph.nodes`` order and
    sources come out in ascending dense order, which is exactly the
    reference sweep's scan order -- entry positions are reference
    sequence numbers.
    """
    flat = flat if flat is not None else build_flat_graph(graph)
    n = flat.num_nodes
    node_ids = flat.node_ids
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    lcp_parts: List[np.ndarray] = []
    width_parts: List[np.ndarray] = []
    entry_parts: List[np.ndarray] = []
    for destination in graph.nodes:
        tree = routes.tree(destination)
        parents = tree.parents
        if not parents:
            continue
        count = len(parents)
        children = np.fromiter(parents.keys(), dtype=np.int64, count=count)
        hops = np.fromiter(parents.values(), dtype=np.int64, count=count)
        parent = np.full(n, -1, dtype=np.int64)
        parent[np.searchsorted(node_ids, children)] = np.searchsorted(
            node_ids, hops
        )
        # The tree's cost labels, densified alongside the parents.  The
        # private dict is read directly: one fromiter per tree instead
        # of n method calls per destination.
        cost_labels = tree._costs
        label_nodes = np.fromiter(
            cost_labels.keys(), dtype=np.int64, count=len(cost_labels)
        )
        label_costs = np.fromiter(
            cost_labels.values(), dtype=np.float64, count=len(cost_labels)
        )
        dense_cost = np.full(n, np.nan, dtype=np.float64)
        dense_cost[np.searchsorted(node_ids, label_nodes)] = label_costs
        sources, widths, entries = _unroll_parents(parent)
        src_parts.append(sources.astype(np.int32))
        dst_parts.append(
            np.full(sources.shape[0], flat.index[destination], dtype=np.int32)
        )
        lcp_parts.append(dense_cost[sources])
        width_parts.append(widths)
        entry_parts.append(entries.astype(np.int32))
    return _finalize_demand(
        flat,
        _concat(src_parts, np.int32),
        _concat(dst_parts, np.int32),
        _concat(lcp_parts, np.float64),
        _concat(width_parts, np.int64),
        _concat(entry_parts, np.int32),
    )


def demand_from_forests(
    flat: FlatGraph, forests: Iterable[ParentForest]
) -> FlatDemand:
    """Per-transit-node demand straight from canonical parent forests.

    Each :class:`~repro.routing.forests.ParentForest` block is
    flattened into one forest -- row ``b``'s slots live at
    ``[b * n, (b + 1) * n)`` with parent pointers offset to match -- and
    unrolled with :func:`_unroll_parents` in one pass.  Blocks arrive in
    ascending destination order and sources come out ascending within
    each, so the demand equals :func:`demand_from_routes` over the
    reference routes array for array, LCP bits included.
    """
    n = flat.num_nodes
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    lcp_parts: List[np.ndarray] = []
    width_parts: List[np.ndarray] = []
    entry_parts: List[np.ndarray] = []
    for forest in forests:
        base = np.arange(forest.destinations.shape[0], dtype=np.int64) * n
        parent = np.where(
            forest.parent >= 0, forest.parent + base[:, np.newaxis], -1
        ).ravel()
        sources, widths, entries = _unroll_parents(parent)
        src_parts.append((sources % n).astype(np.int32))
        dst_parts.append(forest.destinations[sources // n].astype(np.int32))
        lcp_parts.append(forest.cost.ravel()[sources])
        width_parts.append(widths)
        entry_parts.append((entries % n).astype(np.int32))
    return _finalize_demand(
        flat,
        _concat(src_parts, np.int32),
        _concat(dst_parts, np.int32),
        _concat(lcp_parts, np.float64),
        _concat(width_parts, np.int64),
        _concat(entry_parts, np.int32),
    )


def _demand(graph: ASGraph, routes: Optional["AllPairsRoutes"]) -> FlatDemand:
    """Demand over *routes*, or -- when none are given -- straight from
    the canonical forests, with no per-destination Python loop."""
    flat = build_flat_graph(graph)
    if routes is not None:
        return demand_from_routes(graph, routes, flat)
    return demand_from_forests(flat, canonical_forests(graph, flat))


def _concat(parts: List[np.ndarray], dtype: type) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# Group evaluation: one masked Dijkstra per transit node.
# ----------------------------------------------------------------------

#: A violation candidate in parent coordinates: (global sequence, kind
#: [0 = infinite detour, 1 = negative price], dense k, dense source,
#: dense destination, price).  The minimum sequence across all groups
#: is the witness the reference sweep would raise first.
_Violation = Tuple[int, int, int, int, int, float]


def _evaluate_group(
    flat: FlatGraph,
    dense_k: int,
    src: np.ndarray,
    dst: np.ndarray,
    lcp: np.ndarray,
    stats: FlatSweepStats,
) -> Tuple[np.ndarray, Optional[Tuple[int, int, float]]]:
    """Price one transit node's demanded entries in bulk.

    Returns the entry prices (same order as *src*) and, if any entry
    has an infinite detour or a negative price, the first violating
    local index with its kind and price -- *first*, because the inputs
    arrive in sequence order, making it the group's minimal-sequence
    witness.
    """
    n = flat.num_nodes
    # Transit cost is symmetric under the w(u -> v) = c_v reduction
    # (both directions sum the same interior node costs), so each
    # *unordered* pair needs one distance row.  Orient every pair onto
    # the endpoint covering the most of this k's demand (ties to the
    # smaller dense index): for the near-bipartite demand a popular
    # transit node induces, this collapses the Dijkstra sources onto
    # the small side.
    lo = np.minimum(src, dst).astype(np.int64)
    hi = np.maximum(src, dst).astype(np.int64)
    unordered, member = np.unique(lo * n + hi, return_inverse=True)
    u_lo = unordered // n
    u_hi = unordered - u_lo * n
    cover = np.bincount(u_lo, minlength=n) + np.bincount(u_hi, minlength=n)
    lo_wins = (cover[u_lo] > cover[u_hi]) | (
        (cover[u_lo] == cover[u_hi]) & (u_lo < u_hi)
    )
    solver = np.where(lo_wins, u_lo, u_hi)
    other = np.where(lo_wins, u_hi, u_lo)
    sources = np.unique(solver)

    with flat.masked(dense_k) as matrix:
        block = _csgraph_dijkstra(
            matrix,
            directed=True,
            indices=sources,
            return_predecessors=False,
        )
    stats.solves += 1
    stats.rows += int(sources.shape[0])
    stats.masked += flat.degree(dense_k)
    stats.max_block_rows = max(stats.max_block_rows, int(sources.shape[0]))

    u_detour = block[np.searchsorted(sources, solver), other] - flat.costs[other]
    detour = u_detour[member]
    prices = flat.costs[dense_k] + detour - lcp

    infinite = ~np.isfinite(detour)
    negative = ~infinite & (prices < _NEGATIVE_PRICE_EPS)
    if infinite.any() or negative.any():
        at = int(np.flatnonzero(infinite | negative)[0])
        return prices, (at, 0 if infinite[at] else 1, float(prices[at]))
    return prices, None


def _raise_reference_error(flat: FlatGraph, violation: _Violation) -> None:
    """Raise the violation exactly as the reference sweep would."""
    _sequence, kind, ki, si, dj, price = violation
    k = int(flat.node_ids[ki])
    source = int(flat.node_ids[si])
    destination = int(flat.node_ids[dj])
    if kind == 0:
        raise NotBiconnectedError(
            message=(
                f"price p^{k}_{{{source},{destination}}} undefined: "
                f"no {k}-avoiding path (graph not biconnected)"
            )
        )
    raise MechanismError(
        f"negative VCG price {price} for k={k}, pair "
        f"({source}, {destination}); avoiding cost below LCP cost"
    )


# ----------------------------------------------------------------------
# Shared-memory plumbing.
# ----------------------------------------------------------------------

#: (segment name, shape, dtype string) -- enough to re-map an array.
_ArraySpec = Tuple[str, Tuple[int, ...], str]

#: Arenas not yet destroyed; the atexit hook unlinks whatever an
#: interrupted run left behind so /dev/shm never accumulates segments.
_LIVE_ARENAS: List["_SweepArena"] = []
_ARENA_SEQUENCE = itertools.count()
_ATEXIT_ARMED = False


def _unlink_leftover_arenas() -> None:  # pragma: no cover - interpreter exit
    for arena in list(_LIVE_ARENAS):
        arena.destroy()


class _SweepArena:
    """All shared-memory segments of one sharded sweep.

    Created segments carry a recognizable ``repro-flat-<pid>-*`` name
    (tests assert no leftovers).  :meth:`destroy` closes and unlinks
    every segment exactly once and is called from the sweep's
    ``finally`` block; a module-level ``atexit`` hook destroys any
    arena still alive at interpreter exit (e.g. after a KeyboardInterrupt
    between creation and the ``try``).
    """

    def __init__(self) -> None:
        global _ATEXIT_ARMED
        self._segments: List[shared_memory.SharedMemory] = []
        self._views: List[np.ndarray] = []
        self._destroyed = False
        _LIVE_ARENAS.append(self)
        if not _ATEXIT_ARMED:
            atexit.register(_unlink_leftover_arenas)
            _ATEXIT_ARMED = True

    def _create(self, nbytes: int) -> shared_memory.SharedMemory:
        while True:
            name = f"repro-flat-{os.getpid()}-{next(_ARENA_SEQUENCE)}"
            try:
                return shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, nbytes)
                )
            except FileExistsError:  # stale segment from a dead pid
                continue

    def share(self, array: np.ndarray) -> Tuple[_ArraySpec, np.ndarray]:
        """Copy *array* into a fresh segment; returns (spec, live view)."""
        segment = self._create(array.nbytes)
        view: np.ndarray = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf
        )
        view[...] = array
        self._segments.append(segment)
        self._views.append(view)
        return (segment.name, array.shape, str(array.dtype)), view

    def destroy(self) -> None:
        if self._destroyed:
            return
        self._destroyed = True
        # Views must drop their buffer references before close().
        self._views.clear()
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        if self in _LIVE_ARENAS:
            _LIVE_ARENAS.remove(self)


@dataclass
class _WorkerState:
    """Per-worker view of the shared sweep (rebuilt by the initializer)."""

    flat: FlatGraph
    src_by_k: np.ndarray
    dst_by_k: np.ndarray
    lcp_by_k: np.ndarray
    order: np.ndarray
    prices_by_k: np.ndarray
    group_k: np.ndarray
    group_ptr: np.ndarray
    segments: List[shared_memory.SharedMemory]


_WORKER_STATE: Optional[_WorkerState] = None


def _suppress_registration(name: str, rtype: str) -> None:
    """Stand-in for ``resource_tracker.register`` during worker attach."""


def _attach(
    spec: _ArraySpec, segments: List[shared_memory.SharedMemory]
) -> np.ndarray:
    name, shape, dtype = spec
    # On this interpreter line, attaching would register the segment
    # with the (process-shared) resource tracker as if this worker
    # owned it; paired with the parent's unlink that double-books the
    # name and the tracker logs spurious KeyErrors.  ``track=False``
    # only exists on newer interpreters, so suppress the registration
    # call for the duration of the attach instead -- the parent remains
    # the sole registered owner and unlinks exactly once.
    register = resource_tracker.register
    resource_tracker.register = _suppress_registration
    try:
        segment = shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = register
    segments.append(segment)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)


def _init_sweep_worker(payload: Dict[str, object]) -> None:
    """Pool initializer: map the shared arrays, copy the mask scratch.

    Everything is attached zero-copy except ``weights`` -- the one
    array :meth:`FlatGraph.masked` mutates -- which each worker copies
    into private memory so concurrent maskings cannot interleave.
    """
    global _WORKER_STATE
    segments: List[shared_memory.SharedMemory] = []
    specs = payload["specs"]
    assert isinstance(specs, dict)
    arrays = {key: _attach(spec, segments) for key, spec in specs.items()}
    flat = FlatGraph(
        node_ids=arrays["node_ids"],
        index={},  # masking and evaluation never consult the id map
        costs=arrays["costs"],
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        weights=arrays["weights"].copy(),
        in_ptr=arrays["in_ptr"],
        in_positions=arrays["in_positions"],
    )
    _WORKER_STATE = _WorkerState(
        flat=flat,
        src_by_k=arrays["src_by_k"],
        dst_by_k=arrays["dst_by_k"],
        lcp_by_k=arrays["lcp_by_k"],
        order=arrays["order"],
        prices_by_k=arrays["prices_by_k"],
        group_k=payload["group_k"],  # type: ignore[assignment]
        group_ptr=payload["group_ptr"],  # type: ignore[assignment]
        segments=segments,
    )


def _sweep_shard_worker(
    groups: Tuple[int, ...],
) -> Tuple[Tuple[int, int, int, int], Optional[_Violation]]:
    """Price one shard's groups into the shared output array.

    Groups write disjoint ``group_ptr`` slices of the shared price
    array, so no synchronization is needed; the returned stats tuple
    and minimal-sequence violation are merged deterministically in the
    parent.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always runs
        raise EngineError(
            "sweep worker has no shared state; pool initializer did not run"
        )
    stats = FlatSweepStats()
    best: Optional[_Violation] = None
    for group in groups:
        start = int(state.group_ptr[group])
        stop = int(state.group_ptr[group + 1])
        dense_k = int(state.group_k[group])
        prices, bad = _evaluate_group(
            state.flat,
            dense_k,
            state.src_by_k[start:stop],
            state.dst_by_k[start:stop],
            state.lcp_by_k[start:stop],
            stats,
        )
        state.prices_by_k[start:stop] = prices
        if bad is not None:
            at, kind, price = bad
            candidate: _Violation = (
                int(state.order[start + at]),
                kind,
                dense_k,
                int(state.src_by_k[start + at]),
                int(state.dst_by_k[start + at]),
                price,
            )
            if best is None or candidate[0] < best[0]:
                best = candidate
    return (stats.solves, stats.rows, stats.masked, stats.max_block_rows), best


# ----------------------------------------------------------------------
# The sweep: inline or sharded over a pool.
# ----------------------------------------------------------------------


def _merge_shard_results(
    results: Sequence[Tuple[Tuple[int, int, int, int], Optional[_Violation]]],
    stats: FlatSweepStats,
) -> Optional[_Violation]:
    """Fold per-shard stats and surface the minimal-sequence violation.

    Addition and ``min``-by-sequence are order-insensitive, so the
    merged accounting and the raised witness are invariant to worker
    count and shard order.
    """
    best: Optional[_Violation] = None
    for (solves, rows, masked, max_block_rows), violation in results:
        stats.solves += solves
        stats.rows += rows
        stats.masked += masked
        stats.max_block_rows = max(stats.max_block_rows, max_block_rows)
        if violation is not None and (best is None or violation[0] < best[0]):
            best = violation
    return best


def _sweep_inline(
    demand: FlatDemand,
    shard_lists: Sequence[Sequence[int]],
    stats: FlatSweepStats,
) -> Tuple[np.ndarray, Optional[_Violation]]:
    """Single-process sweep directly over the demand arrays."""
    prices_by_k = np.empty(demand.num_entries, dtype=np.float64)
    best: Optional[_Violation] = None
    for shard in shard_lists:
        for group in shard:
            start = int(demand.group_ptr[group])
            stop = int(demand.group_ptr[group + 1])
            dense_k = int(demand.group_k[group])
            prices, bad = _evaluate_group(
                demand.flat,
                dense_k,
                demand.src_by_k[start:stop],
                demand.dst_by_k[start:stop],
                demand.lcp_by_k[start:stop],
                stats,
            )
            prices_by_k[start:stop] = prices
            if bad is not None:
                at, kind, price = bad
                candidate: _Violation = (
                    int(demand.order[start + at]),
                    kind,
                    dense_k,
                    int(demand.src_by_k[start + at]),
                    int(demand.dst_by_k[start + at]),
                    price,
                )
                if best is None or candidate[0] < best[0]:
                    best = candidate
    return prices_by_k, best


def _sweep_pooled(
    demand: FlatDemand,
    shard_lists: Sequence[Sequence[int]],
    workers: int,
    stats: FlatSweepStats,
) -> Tuple[np.ndarray, Optional[_Violation]]:
    """Sharded sweep over a process pool with shared-memory arrays."""
    flat = demand.flat
    arena = _SweepArena()
    try:
        shared: Dict[str, _ArraySpec] = {}
        for key, array in (
            ("node_ids", flat.node_ids),
            ("costs", flat.costs),
            ("indptr", flat.indptr),
            ("indices", flat.indices),
            ("weights", flat.weights),
            ("in_ptr", flat.in_ptr),
            ("in_positions", flat.in_positions),
            ("src_by_k", demand.src_by_k),
            ("dst_by_k", demand.dst_by_k),
            ("lcp_by_k", demand.lcp_by_k),
            ("order", demand.order),
        ):
            shared[key], _view = arena.share(array)
        prices_spec, prices_view = arena.share(
            np.empty(demand.num_entries, dtype=np.float64)
        )
        shared["prices_by_k"] = prices_spec
        payload = {
            "specs": shared,
            "group_k": demand.group_k,
            "group_ptr": demand.group_ptr,
        }
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        tasks = [tuple(int(group) for group in shard) for shard in shard_lists]
        # The executor reports a worker that dies as BrokenProcessPool;
        # multiprocessing.Pool.map would wait forever for its task.
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_sweep_worker,
                initargs=(payload,),
            ) as pool:
                results = list(pool.map(_sweep_shard_worker, tasks))
        except BrokenProcessPool as exc:
            raise EngineError(
                f"a flat sweep worker died ({workers} workers, "
                f"{len(tasks)} shards); the sweep was abandoned"
            ) from exc
        violation = _merge_shard_results(results, stats)
        return np.array(prices_view, copy=True), violation
    finally:
        arena.destroy()


def sweep_demand(
    demand: FlatDemand,
    *,
    workers: int = 1,
    shard_lists: Optional[Sequence[Sequence[int]]] = None,
    stats: Optional[FlatSweepStats] = None,
) -> FlatPriceArrays:
    """Run the avoiding sweep over *demand*; returns the priced arrays.

    *shard_lists* are sequences of group indices (positions into
    ``demand.group_k``) that must partition the groups exactly; ``None``
    means one shard holding every group for ``workers <= 1``, and
    ``workers * 4`` round-robin shards (:func:`round_robin_groups`)
    otherwise.  ``workers <= 1`` -- or a single shard -- prices inline
    with no pool and no shared memory; otherwise the shards run on
    *workers* processes over shared-memory arrays.  Output, accounting,
    and the raised violation (if any) are identical either way.
    """
    if shard_lists is None:
        shard_lists = round_robin_groups(
            demand, workers * _SHARDS_PER_WORKER if workers > 1 else 1
        )
    _check_partition(shard_lists, demand.num_groups)
    stats = stats if stats is not None else FlatSweepStats()
    stats.entries = demand.num_entries
    stats.shards = len(shard_lists)
    stats.workers = 1
    if workers <= 1 or len(shard_lists) <= 1:
        prices_by_k, violation = _sweep_inline(demand, shard_lists, stats)
    else:
        stats.workers = workers
        prices_by_k, violation = _sweep_pooled(demand, shard_lists, workers, stats)
    if violation is not None:
        _raise_reference_error(demand.flat, violation)
    prices = np.empty(demand.num_entries, dtype=np.float64)
    prices[demand.order] = prices_by_k
    return FlatPriceArrays(
        node_ids=demand.flat.node_ids,
        pair_src=demand.pair_src,
        pair_dst=demand.pair_dst,
        pair_lcp=demand.pair_lcp,
        pair_offset=demand.pair_offset,
        entry_k=demand.entry_k,
        prices=prices,
        stats=stats,
    )


def _check_partition(shard_lists: Sequence[Sequence[int]], groups: int) -> None:
    """Reject shard lists that miss or repeat a group: a missing group
    would leave its prices unwritten."""
    listed = np.fromiter(
        itertools.chain.from_iterable(shard_lists), dtype=np.int64
    )
    in_range = listed[(listed >= 0) & (listed < groups)]
    once = np.bincount(in_range, minlength=groups) == 1
    if listed.size != groups or not once.all():
        raise EngineError(
            f"shard lists must partition the {groups} demanded transit "
            f"groups exactly; got {listed.size} group indices"
        )


def round_robin_groups(demand: FlatDemand, shards: int) -> List[Sequence[int]]:
    """Deal the demand's transit groups round-robin into at most
    *shards* shard lists (the default layout)."""
    count = min(max(shards, 1), demand.num_groups) or 1
    return [range(i, demand.num_groups, count) for i in range(count)]


def flat_price_arrays(
    graph: ASGraph,
    routes: Optional["AllPairsRoutes"] = None,
    *,
    workers: int = 1,
    shards: Optional[int] = None,
    stats: Optional[FlatSweepStats] = None,
) -> FlatPriceArrays:
    """Theorem 1 prices as flat arrays: demand inversion + sweep.

    The end-to-end array-native path: the given routes, or the
    canonical forests when none are given, are inverted into demand
    and swept with *workers* processes over ``min(shards, groups)``
    round-robin shards (*shards* defaults to :func:`sweep_demand`'s
    layout: one inline shard, or four per worker).  The result prices
    exactly the pairs
    :func:`repro.routing.engines.flat.flat_price_rows` would, without
    materializing any per-entry Python structure.
    """
    demand = _demand(graph, routes)
    shard_lists = None if shards is None else round_robin_groups(demand, shards)
    return sweep_demand(
        demand, workers=workers, shard_lists=shard_lists, stats=stats
    )
