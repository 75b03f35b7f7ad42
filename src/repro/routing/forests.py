"""Canonical parent forests: :func:`route_tree`'s routes from batched scipy solves.

:func:`repro.routing.dijkstra.route_tree` selects, per destination
``j``, the minimum ``(cost, hops, path)`` route of every source (the
canonical order of :mod:`repro.routing.tiebreak`).  Its labels are
suffix consistent, so the selected route of ``i`` extends the selected
route of its next hop ``u``, and the key order reduces to three
array-computable quantities:

* ``cost(i) = min_u cost(u) + c'_u`` over neighbours ``u`` of ``i``,
  where ``c'_u = c_u`` and ``c'_j = 0`` (leaving the destination is
  free), accumulated destination-first exactly as ``route_tree``
  relaxes;
* ``hops(i) = 1 + min hops(u)`` over the *tight* neighbours ``u``
  (those with ``cost(u) + c'_u == cost(i)`` in floating point);
* ``parent(i)`` = the smallest node id among tight neighbours with
  ``hops(u) == hops(i) - 1`` -- candidate paths ``(i,) + path(u)``
  differ first at ``u``.

:func:`canonical_forests` computes all three for a block of
destinations with one ``csgraph.dijkstra`` call:

1. The *exit-weight* reduction (``w(u -> i) = c_u``) gets one virtual
   root per destination ``j`` of the block, with stored-zero edges to
   the neighbours of ``j``; a Dijkstra from the virtual roots relaxes
   destination-first, so its labels *are* ``route_tree``'s costs, bit
   for bit.
2. An edge is tight when ``D(u) + w == D(i)`` holds exactly (``w = 0``
   when ``u = j``); hop counts come from a level-synchronous BFS over
   the sparse list of tight edges.
3. The parent of ``i`` is the first tight, one-hop-nearer neighbour in
   ``i``'s CSR row (columns are sorted, so first = smallest id).

Blocks are capped by a module-private element budget on
``block x stored edges``, which bounds every per-block temporary.
:func:`forest_routes` wraps finished forests as an
:class:`~repro.routing.allpairs.AllPairsRoutes` whose trees are built on
first access and compare equal to ``route_tree``'s, dict order
included.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.exceptions import DisconnectedGraphError
from repro.graphs.asgraph import ASGraph
from repro.routing.allpairs import AllPairsRoutes
from repro.routing.dijkstra import RouteTree
from repro.routing.flatgraph import FlatGraph, build_flat_graph
from repro.types import Cost, NodeId, PathTuple

__all__ = ["ParentForest", "canonical_forests", "forest_routes"]

#: Cap on ``destinations per block x stored edges``: every per-block
#: temporary (gathered labels, tight masks) has at most this many
#: elements, so a block holds O(_FOREST_BUDGET) memory at any n.
_FOREST_BUDGET = 1 << 18


@dataclass(frozen=True)
class ParentForest:
    """The canonical route trees toward one block of destinations.

    Row ``b`` describes ``T(destinations[b])`` over dense node indices:
    ``parent[b, i]`` is ``i``'s next hop (``-1`` at the root) and
    ``cost[b, i]`` its selected transit cost (``0.0`` at the root).
    """

    destinations: np.ndarray
    parent: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)


def canonical_forests(
    graph: ASGraph, flat: Optional[FlatGraph] = None
) -> Iterator[ParentForest]:
    """Yield the canonical parent forests, destination blocks ascending.

    Raises :class:`DisconnectedGraphError` exactly as
    :func:`~repro.routing.allpairs.all_pairs_lcp` does: for the first
    destination in node order that some node cannot reach, naming the
    missing nodes sorted.
    """
    flat = flat if flat is not None else build_flat_graph(graph)
    n = flat.num_nodes
    stored = flat.num_stored
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(flat.indptr))
    # Exit weights w(u -> i) = c_u in row u, then one virtual root per
    # node: row n + j is a stored-zero copy of row j, so a solve from it
    # leaves j for free and never re-enters the root.
    matrix = csr_matrix(
        (
            np.concatenate([flat.costs[rows], np.zeros(stored)]),
            np.concatenate([flat.indices, flat.indices]),
            np.concatenate([flat.indptr, flat.indptr[1:] + stored]),
        ),
        shape=(2 * n, 2 * n),
    )
    block_size = max(1, min(n, _FOREST_BUDGET // max(stored, 1)))
    # Per-block scratch, allocated once: the gathered labels of both
    # endpoints of every stored entry and their tightness mask.
    scratch = (
        np.empty((block_size, stored)),
        np.empty((block_size, stored)),
        np.empty((block_size, stored), dtype=bool),
    )
    for start in range(0, n, block_size):
        destinations = np.arange(start, min(start + block_size, n), dtype=np.int64)
        yield _forest_block(flat, matrix, rows, destinations, scratch)


def _expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` for every pair, vectorized."""
    counts = stops - starts
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _forest_block(
    flat: FlatGraph,
    matrix: csr_matrix,
    rows: np.ndarray,
    destinations: np.ndarray,
    scratch: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> ParentForest:
    """The canonical forest of one destination block (one scipy solve)."""
    n = flat.num_nodes
    block = int(destinations.shape[0])
    local = np.arange(block, dtype=np.int64)
    cols = flat.indices
    dist = _csgraph_dijkstra(matrix, directed=True, indices=n + destinations)[:, :n]
    dist[local, destinations] = 0.0
    unreachable = np.isinf(dist)
    if unreachable.any():
        row = int(np.flatnonzero(unreachable.any(axis=1))[0])
        missing = flat.node_ids[np.flatnonzero(unreachable[row])].tolist()
        raise DisconnectedGraphError(
            f"nodes {sorted(missing)} cannot reach "
            f"{int(flat.node_ids[destinations[row]])}"
        )

    # Stored entry (row i, column u) is the relaxation u -> i: tight iff
    # D(u) + c'_u == D(i) exactly, with c'_j = 0 for the row's own
    # destination j, which itself gets no parent.
    exits = dist + flat.costs
    exits[local, destinations] = 0.0
    via, label, tight = (buffer[:block] for buffer in scratch)
    # Indices are in range; "clip" lets take write straight into out.
    np.take(exits, cols, axis=1, out=via, mode="clip")
    np.take(dist, rows, axis=1, out=label, mode="clip")
    np.equal(via, label, out=tight)
    owner, position = np.divmod(np.flatnonzero(tight), cols.shape[0])
    keep = rows[position] != destinations[owner]
    owner = owner[keep]
    position = position[keep]
    children = owner * n + rows[position]
    candidates = owner * n + cols[position]

    # Hop counts: level-synchronous BFS from the roots over the tight
    # edges, regrouped by tail.
    heads = children[np.argsort(candidates)]
    tail_ptr = np.zeros(block * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(candidates, minlength=block * n), out=tail_ptr[1:])
    hops = np.full(block * n, -1, dtype=np.int64)
    frontier = local * n + destinations
    hops[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        reached = heads[_expand_ranges(tail_ptr[frontier], tail_ptr[frontier + 1])]
        hops[reached[hops[reached] < 0]] = level
        frontier = np.flatnonzero(hops == level)

    # Parent: the first tight, one-hop-nearer entry of each row -- CSR
    # columns are sorted, so the first is the smallest node id.
    nearer = hops[candidates] == hops[children] - 1
    children = children[nearer]
    chosen = cols[position[nearer]]
    first = np.ones(children.shape[0], dtype=bool)
    first[1:] = children[1:] != children[:-1]
    parent = np.full(block * n, -1, dtype=np.int32)
    parent[children[first]] = chosen[first]
    return ParentForest(
        destinations=destinations,
        parent=parent.reshape(block, n),
        cost=np.ascontiguousarray(dist),
    )


class _ForestTrees(Mapping[NodeId, RouteTree]):
    """``destination -> RouteTree`` over parent forests, built lazily.

    Iterates destinations in node order; each tree is materialized on
    first access and cached.
    """

    def __init__(self, node_ids: Sequence[NodeId], forests: Sequence[ParentForest]):
        self._ids: List[NodeId] = list(node_ids)
        self._index = {node: dense for dense, node in enumerate(self._ids)}
        self._forests = list(forests)
        self._starts = [int(forest.destinations[0]) for forest in self._forests]
        self._built: Dict[NodeId, RouteTree] = {}

    def __getitem__(self, destination: NodeId) -> RouteTree:
        tree = self._built.get(destination)
        if tree is None:
            dense = self._index[destination]
            forest = self._forests[bisect.bisect_right(self._starts, dense) - 1]
            row = dense - int(forest.destinations[0])
            tree = _route_tree(
                self._ids, dense, forest.parent[row].tolist(), forest.cost[row].tolist()
            )
            self._built[destination] = tree
        return tree

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def _route_tree(
    ids: List[NodeId], root: int, parent: List[int], cost: List[Cost]
) -> RouteTree:
    """One forest row as a :class:`RouteTree` equal to ``route_tree``'s."""
    paths: List[Optional[PathTuple]] = [None] * len(ids)
    paths[root] = (ids[root],)
    for node in range(len(ids)):
        chain = []
        while paths[node] is None:
            chain.append(node)
            node = parent[node]
        suffix = paths[node]
        for hop in reversed(chain):
            suffix = (ids[hop],) + suffix
            paths[hop] = suffix
    # route_tree fills its dicts in Dijkstra finalization order, which
    # is ascending canonical key.
    order = sorted(
        (dense for dense in range(len(ids)) if dense != root),
        key=lambda dense: (cost[dense], len(paths[dense]), paths[dense]),
    )
    return RouteTree(
        destination=ids[root],
        parents={ids[dense]: ids[parent[dense]] for dense in order},
        _paths={ids[dense]: paths[dense] for dense in order},
        _costs={ids[dense]: cost[dense] for dense in order},
    )


def forest_routes(graph: ASGraph, forests: Sequence[ParentForest]) -> AllPairsRoutes:
    """All selected LCPs over finished *forests*; each tree is built on
    first access."""
    return AllPairsRoutes(graph=graph, trees=_ForestTrees(graph.nodes, forests))
