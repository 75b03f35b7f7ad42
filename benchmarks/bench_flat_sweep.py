"""Flat-sweep benchmark: the batched k-avoiding price core (BENCH_flat.json).

The ``flat`` engine is the scaling backend for the Theorem 1 price
sweep: one-shot CSR build, O(deg(k)) in-place masking for ``G - k``,
vectorized route inversion, demand-restricted and symmetry-oriented
Dijkstra batches, array-native price evaluation; ``workers > 1``
shards the same sweep across worker processes over shared memory.
This benchmark pins the claims that justify both, and fails (non-zero
exit) if any regresses:

1. **Identity** (phase ``identity``).  At n = 128 the flat table, inline
   and with two pool workers, must match the reference engine:
   identical ``(pair, transit)`` key sets, every price within
   ``costs_close``.

2. **Memory** (phase ``memory``).  At n = 1000 (ISP-like scaling
   preset) the dict-materializing sweep must complete with a
   tracemalloc peak under a bound derived from its own demand
   accounting.

3. **Sharded speed** (phase ``parallel``).  On the isp-like-2000
   preset, the array-native sharded sweep with 4 workers, in the
   engine's default layout of four shards per worker, must beat the
   single-process dict-materializing ``flat`` path by at least
   ``PARALLEL_SPEEDUP_FLOOR`` (2x), with speedup-vs-workers rows
   recorded for workers 1/2/4 and bit-identical prices across worker
   counts.  This is the ``make bench-flat-parallel`` CI gate.

4. **Preset scaling** (phase ``presets``).  Every scaling preset is
   priced end-to-end on the array-native path (demand straight from the
   canonical parent forests + inline sweep), recording wall-clock, peak
   tracemalloc, and peak RSS, each gated against a bound derived from
   the preset's own demand accounting and the forests' block budget.  By default the phase covers n <= 2000;
   ``--full-presets`` extends it to n = 5000 and n = 10000 (the
   internet-scale floor -- minutes of wall-clock, run to refresh the
   committed artifact rather than per-CI).

The parallel phase also times route selection both ways --
the reference ``all_pairs_lcp`` and the canonical parent forests --
and check that the forests equal the reference routes (parents and
cost bits).  Every phase record carries a ``host`` stamp: core count,
Python/numpy/scipy versions and git revision.

``--phases`` selects a comma-separated subset; the output document
*merges* into an existing ``BENCH_flat.json`` (phases not re-run keep
their previous records; records of phases this script no longer has
are dropped), so the parallel CI gate does not discard the committed
full-preset rows.  Run directly::

    python benchmarks/bench_flat_sweep.py --quick --out BENCH_flat.json
    python benchmarks/bench_flat_sweep.py --phases parallel
    python benchmarks/bench_flat_sweep.py --phases presets --full-presets

(``--quick`` shrinks the parallel instance and skips the
memory/presets phases; quick runs record but do not gate.)  Under
pytest (``make bench``) a small configuration doubles as a regression
assertion on identity, worker parity, and the demand accounting.

This module must stay importable with the baseline toolchain only (in
particular: no module-level scipy or numpy) -- ``repro.devtools.check``
enforces that for the whole benchmarks/ directory; the engine imports
below pull scipy in lazily at call time instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graphs.generators import (
    SCALING_PRESETS,
    integer_costs,
    isp_like_graph,
    scaling_graph,
    uniform_costs,
)
from repro.types import costs_close

#: The acceptance bar: 4-worker array-native sharded sweep vs the
#: single-process dict-materializing flat path at n = 2000.
PARALLEL_SPEEDUP_FLOOR = 2.0

IDENTITY_REFERENCE_N = 128
MEMORY_PRESET = "isp-like-1000"
PARALLEL_PRESET = "isp-like-2000"
PARALLEL_QUICK_N = 300
PARALLEL_WORKERS = (1, 2, 4)

#: Preset sizes covered by the default ``presets`` phase vs by
#: ``--full-presets`` (the n >= 5000 rows take minutes; they are
#: refreshed explicitly, not per-CI).
PRESET_GATE_SIZES = (1000, 2000)
PRESET_FULL_SIZES = (1000, 2000, 5000, 10000)

ALL_PHASES = ("identity", "memory", "parallel", "presets")


def _tables_agree(expected, actual) -> List[str]:
    """Differences between two ``(pair) -> {k: price}`` mappings."""
    problems: List[str] = []
    if set(expected) != set(actual):
        problems.append(
            f"pair sets differ: {len(expected)} expected vs {len(actual)} actual"
        )
        return problems
    for pair in expected:
        if set(expected[pair]) != set(actual[pair]):
            problems.append(f"transit keys differ at {pair}")
            continue
        for k, price in expected[pair].items():
            if not costs_close(price, actual[pair][k]):
                problems.append(
                    f"price p^{k}_{pair}: {price} vs {actual[pair][k]}"
                )
    return problems


def _host_stamp() -> Dict[str, Any]:
    """Where a record was measured: cores, toolchain, git revision."""
    import numpy
    import scipy

    try:
        revision = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(__file__)), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": revision or "unknown",
    }


def _timed_routes(graph) -> Tuple[Any, Dict[str, float], bool]:
    """Reference routes plus both route-selection timings.

    Returns ``(routes, {"reference": s, "forests": s}, identical)``:
    the reference ``all_pairs_lcp`` routes, the wall time of each route
    source, and whether the canonical parent forests equal the
    reference routes (every parent, every cost bit).
    """
    import numpy as np

    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.flatgraph import build_flat_graph
    from repro.routing.forests import canonical_forests

    start = time.perf_counter()
    routes = all_pairs_lcp(graph)
    reference_seconds = time.perf_counter() - start

    flat = build_flat_graph(graph)
    start = time.perf_counter()
    forests = list(canonical_forests(graph, flat))
    forest_seconds = time.perf_counter() - start

    node_ids = flat.node_ids
    identical = True
    for forest in forests:
        for row, dense in enumerate(forest.destinations.tolist()):
            tree = routes.tree(int(node_ids[dense]))
            sources = np.searchsorted(node_ids, np.fromiter(tree.parents, np.int64))
            parent = np.full(flat.num_nodes, -1, dtype=np.int64)
            parent[sources] = np.searchsorted(
                node_ids, np.fromiter(tree.parents.values(), np.int64)
            )
            cost = np.zeros(flat.num_nodes)
            cost[sources] = np.fromiter(map(tree.cost, tree.parents), np.float64)
            identical = (
                identical
                and np.array_equal(forest.parent[row], parent)
                and forest.cost[row].tobytes() == cost.tobytes()
            )
    seconds = {
        "reference": round(reference_seconds, 4),
        "forests": round(forest_seconds, 4),
    }
    return routes, seconds, identical


def _peak_rss_bytes() -> int:
    """High-water RSS of this process (Linux reports KiB).

    Cumulative over the process lifetime -- meaningful when phases run
    instances in ascending size order, as the presets phase does.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_identity_phase() -> Dict[str, Any]:
    from repro.routing.engines import get_engine

    problems: List[str] = []

    reference_graph = isp_like_graph(
        IDENTITY_REFERENCE_N, seed=1, cost_sampler=integer_costs(1, 6)
    )
    reference_table = get_engine("reference").price_table(reference_graph)
    flat_table = get_engine("flat").price_table(
        reference_graph, routes=reference_table.routes
    )
    problems += [
        f"reference n={IDENTITY_REFERENCE_N}: {p}"
        for p in _tables_agree(reference_table.rows, flat_table.rows)
    ]
    sharded_table = get_engine("flat", workers=2).price_table(
        reference_graph, routes=reference_table.routes
    )
    problems += [
        f"sharded n={IDENTITY_REFERENCE_N}: {p}"
        for p in _tables_agree(reference_table.rows, sharded_table.rows)
    ]

    return {
        "host": _host_stamp(),
        "reference_n": IDENTITY_REFERENCE_N,
        "pairs_compared": len(reference_table.rows),
        "identical_keys": not problems,
        "problems": problems,
    }


def run_memory_phase() -> Dict[str, Any]:
    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.engines.flat import FlatSweepStats, flat_price_rows

    graph = scaling_graph(MEMORY_PRESET)
    n = graph.num_nodes
    routes_start = time.perf_counter()
    routes = all_pairs_lcp(graph)
    routes_seconds = time.perf_counter() - routes_start

    stats = FlatSweepStats()
    tracemalloc.start()
    sweep_start = time.perf_counter()
    rows = flat_price_rows(graph, routes, stats=stats)
    sweep_seconds = time.perf_counter() - sweep_start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # The bound is the sweep's own accounting, not a magic constant: a
    # few live distance blocks (max_block_rows * n doubles), the flat
    # demand/price arrays, and the per-entry Python result assembly
    # (dict-of-dicts, ~400 bytes/entry of interpreter overhead).
    block_bytes = 8 * n * stats.max_block_rows
    demand_bound = 64_000_000 + 4 * block_bytes + 400 * stats.entries
    # What the alternatives would have held alive at minimum:
    dense_cache_bytes = stats.solves * 8 * n * n  # one matrix per k
    cubic_bytes = 8 * n * n * n  # the O(n^3) strawman
    return {
        "host": _host_stamp(),
        "preset": MEMORY_PRESET,
        "n": n,
        "edges": graph.num_edges,
        "pairs_priced": len(rows),
        "routes_seconds": round(routes_seconds, 4),
        "sweep_seconds": round(sweep_seconds, 4),
        "sweep_stats": stats.__dict__.copy(),
        "tracemalloc_peak_bytes": peak,
        "demand_bound_bytes": demand_bound,
        "dense_cache_bytes": dense_cache_bytes,
        "cubic_bytes": cubic_bytes,
        "within_bound": peak < demand_bound,
        "note": "sweep timed under tracemalloc; wall-clock without it is lower",
    }


def run_parallel_phase(quick: bool = False) -> Dict[str, Any]:
    """Speedup-vs-workers for the sharded array-native sweep.

    The baseline is what the ``flat`` engine delivers -- the
    dict-materializing :func:`flat_price_rows` -- and the contenders
    are what its pooled sweep delivers: :func:`flat_price_arrays`
    with 1/2/4 workers in the default shard layout, no per-entry
    Python assembly.  Canonical
    routes are precomputed and shared so route selection is out of the
    comparison, and prices must be bit-identical across all worker
    counts.
    """
    import numpy as np

    from repro.routing.engines.flat import flat_price_rows
    from repro.routing.flatsweep import FlatSweepStats, flat_price_arrays

    if quick:
        preset = f"isp-like-{PARALLEL_QUICK_N} (ad hoc)"
        graph = isp_like_graph(
            PARALLEL_QUICK_N, seed=0, cost_sampler=uniform_costs(1.0, 6.0)
        )
    else:
        preset = PARALLEL_PRESET
        graph = scaling_graph(PARALLEL_PRESET)

    routes, routes_seconds, forests_identical = _timed_routes(graph)

    dict_start = time.perf_counter()
    flat_price_rows(graph, routes)
    dict_seconds = time.perf_counter() - dict_start

    worker_rows: List[Dict[str, Any]] = []
    baseline_prices = None
    identical = True
    for workers in PARALLEL_WORKERS:
        stats = FlatSweepStats()
        start = time.perf_counter()
        arrays = flat_price_arrays(graph, routes, workers=workers, stats=stats)
        seconds = time.perf_counter() - start
        if baseline_prices is None:
            baseline_prices = arrays.prices
        else:
            identical = identical and np.array_equal(baseline_prices, arrays.prices)
        worker_rows.append(
            {
                "workers": workers,
                "shards": stats.shards,
                "seconds": round(seconds, 4),
                "speedup_vs_flat_dict": round(dict_seconds / seconds, 2)
                if seconds > 0
                else float("inf"),
            }
        )

    gated = next(row for row in worker_rows if row["workers"] == 4)
    return {
        "host": _host_stamp(),
        "preset": preset,
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "routes_seconds": routes_seconds,
        "forests_identical": forests_identical,
        "flat_dict_seconds": round(dict_seconds, 4),
        "workers": worker_rows,
        "speedup": gated["speedup_vs_flat_dict"],
        "speedup_floor": PARALLEL_SPEEDUP_FLOOR,
        "prices_identical_across_workers": identical,
        "note": (
            "baseline is the flat engine's dict deliverable; contenders are "
            "the pooled sweep's array deliverable (sweep + assembly "
            "both counted, shared precomputed routes)"
        ),
    }


def run_presets_phase(sizes: Sequence[int]) -> Dict[str, Any]:
    """Price every scaling preset end-to-end on the array-native path.

    Demand comes straight from the canonical parent forests (the exact
    reference routes, at every size), the sweep runs inline, and
    nothing materializes per-entry Python objects -- this is the
    large-instance configuration the ROADMAP's internet-scale item
    needs.  Peak tracemalloc is gated against a bound derived from the
    preset's own demand accounting and the forests' block budget; peak
    RSS is recorded (run in ascending size order, so the cumulative
    high-water mark is attributable to the largest completed preset).
    """
    from repro.routing.flatgraph import build_flat_graph
    from repro.routing.flatsweep import (
        FlatSweepStats,
        demand_from_forests,
        sweep_demand,
    )
    from repro.routing.forests import _FOREST_BUDGET, canonical_forests

    presets = [
        f"{family}-{n}"
        for n in sorted(sizes)
        for family in ("barabasi-albert", "isp-like")
        if f"{family}-{n}" in SCALING_PRESETS
    ]
    rows: Dict[str, Any] = {}
    for preset in presets:
        graph = scaling_graph(preset)
        n = graph.num_nodes
        flat = build_flat_graph(graph)
        stats = FlatSweepStats()
        tracemalloc.start()
        demand_start = time.perf_counter()
        demand = demand_from_forests(flat, canonical_forests(graph, flat))
        demand_seconds = time.perf_counter() - demand_start
        sweep_start = time.perf_counter()
        arrays = sweep_demand(demand, stats=stats)
        sweep_seconds = time.perf_counter() - sweep_start
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # Demand-derived bound, no dict assembly term: one forest block
        # (every per-block temporary -- label gathers, tight masks,
        # tight-edge index lists, the flattened parents -- holds at most
        # _FOREST_BUDGET elements, under ~96 bytes per element in all),
        # the demand arrays (two orders plus pre-gathered solve columns,
        # ~56B/entry with concatenation transients), and a few live
        # distance blocks.
        block_bytes = 8 * n * stats.max_block_rows
        forest_bytes = 96 * _FOREST_BUDGET
        demand_bound = (
            64_000_000
            + 4 * block_bytes
            + 2 * forest_bytes
            + 96 * stats.entries
        )
        rows[preset] = {
            "host": _host_stamp(),
            "n": n,
            "edges": graph.num_edges,
            "pairs_priced": arrays.num_pairs,
            "demand_seconds": round(demand_seconds, 4),
            "sweep_seconds": round(sweep_seconds, 4),
            "sweep_stats": stats.__dict__.copy(),
            "tracemalloc_peak_bytes": peak,
            "demand_bound_bytes": demand_bound,
            "rss_peak_bytes": _peak_rss_bytes(),
            "within_bound": peak < demand_bound,
        }
        del demand, arrays, flat, graph
    return {
        "sizes": sorted(sizes),
        "demand": "canonical parent forests (bit-identical to route_tree)",
        "rows": rows,
        "note": (
            "timed under tracemalloc; rss_peak_bytes is the process "
            "high-water mark, cumulative across ascending presets"
        ),
    }


def run_suite(
    quick: bool = False,
    phases_selected: Optional[Sequence[str]] = None,
    full_presets: bool = False,
) -> Dict[str, Any]:
    if phases_selected is None:
        phases_selected = (
            ("identity", "parallel")
            if quick
            else ("identity", "memory", "parallel", "presets")
        )
    phases: Dict[str, Any] = {}
    if "identity" in phases_selected:
        phases["identity"] = run_identity_phase()
    if "memory" in phases_selected and not quick:
        phases["memory"] = run_memory_phase()
    if "parallel" in phases_selected:
        phases["parallel"] = run_parallel_phase(quick=quick)
    if "presets" in phases_selected and not quick:
        phases["presets"] = run_presets_phase(
            PRESET_FULL_SIZES if full_presets else PRESET_GATE_SIZES
        )

    failures: List[str] = []
    if "identity" in phases and not phases["identity"]["identical_keys"]:
        failures.append("identity: flat table disagrees")
    if "parallel" in phases and not phases["parallel"]["forests_identical"]:
        failures.append("parallel: canonical forests differ from route_tree")
    if "memory" in phases and not phases["memory"]["within_bound"]:
        failures.append(
            f"memory: peak {phases['memory']['tracemalloc_peak_bytes']} "
            f"over bound {phases['memory']['demand_bound_bytes']}"
        )
    if "parallel" in phases:
        if not phases["parallel"]["prices_identical_across_workers"]:
            failures.append("parallel: prices differ across worker counts")
        # the 2x bar is calibrated on isp-like-2000; quick records only
        if not quick and phases["parallel"]["speedup"] < PARALLEL_SPEEDUP_FLOOR:
            failures.append(
                f"parallel speedup {phases['parallel']['speedup']}x below the "
                f"{PARALLEL_SPEEDUP_FLOOR}x floor on {phases['parallel']['preset']}"
            )
    if "presets" in phases:
        for preset, row in phases["presets"]["rows"].items():
            if not row["within_bound"]:
                failures.append(
                    f"presets: {preset} peak {row['tracemalloc_peak_bytes']} "
                    f"over bound {row['demand_bound_bytes']}"
                )
    return {
        "benchmark": "flat_sweep",
        "quick": quick,
        "phases": phases,
        "failures": failures,
        "passed": not failures,
    }


def _merge_into_existing(path: str, document: Dict[str, Any]) -> Dict[str, Any]:
    """Merge this run's phases into an existing output document.

    Phases not re-run keep their previous records (so a
    ``--phases parallel`` CI gate does not discard the committed
    full-preset rows), records of phases outside :data:`ALL_PHASES`
    are dropped, and ``failures``/``passed`` always describe the
    current run only.
    """
    if not os.path.exists(path):
        return document
    try:
        with open(path, "r", encoding="utf-8") as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return document
    if previous.get("benchmark") != document["benchmark"]:
        return document
    merged_phases = {
        phase: record
        for phase, record in previous.get("phases", {}).items()
        if phase in ALL_PHASES
    }
    merged_phases.update(document["phases"])
    document = dict(document)
    document["phases"] = merged_phases
    return document


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller parallel instance, skip memory/presets phases",
    )
    parser.add_argument(
        "--phases",
        default=None,
        help=f"comma-separated subset of {', '.join(ALL_PHASES)} (default: all)",
    )
    parser.add_argument(
        "--full-presets",
        action="store_true",
        help="extend the presets phase to n=5000 and n=10000 (minutes)",
    )
    parser.add_argument("--out", default="BENCH_flat.json", help="output path")
    args = parser.parse_args(argv)

    selected: Optional[List[str]] = None
    if args.phases:
        selected = [phase.strip() for phase in args.phases.split(",") if phase.strip()]
        unknown = [phase for phase in selected if phase not in ALL_PHASES]
        if unknown:
            parser.error(f"unknown phases: {', '.join(unknown)}")

    current = run_suite(
        quick=args.quick, phases_selected=selected, full_presets=args.full_presets
    )
    document = _merge_into_existing(args.out, current)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")

    phases = current["phases"]
    if "memory" in phases:
        memory = phases["memory"]
        print(
            f"n={memory['n']}: sweep {memory['sweep_seconds']}s under "
            f"tracemalloc, peak {memory['tracemalloc_peak_bytes'] / 1e6:.0f} MB "
            f"(bound {memory['demand_bound_bytes'] / 1e6:.0f} MB, dense cache "
            f"would hold {memory['dense_cache_bytes'] / 1e9:.1f} GB)"
        )
    if "parallel" in phases:
        par = phases["parallel"]
        per_worker = ", ".join(
            f"w={row['workers']}: {row['seconds']}s "
            f"({row['speedup_vs_flat_dict']}x)"
            for row in par["workers"]
        )
        print(
            f"sharded sweep on {par['preset']}: flat dict "
            f"{par['flat_dict_seconds']}s; {per_worker}; routes reference "
            f"{par['routes_seconds']['reference']}s, forests "
            f"{par['routes_seconds']['forests']}s"
        )
    if "presets" in phases:
        for preset, row in phases["presets"]["rows"].items():
            print(
                f"{preset}: demand {row['demand_seconds']}s + sweep "
                f"{row['sweep_seconds']}s, peak "
                f"{row['tracemalloc_peak_bytes'] / 1e6:.0f} MB "
                f"(bound {row['demand_bound_bytes'] / 1e6:.0f} MB), "
                f"rss {row['rss_peak_bytes'] / 1e6:.0f} MB"
            )
    for failure in document["failures"]:
        print(f"FAIL: {failure}")
    print("PASS" if document["passed"] else "FAIL", f"-> {args.out}")
    return 0 if document["passed"] else 1


# ----------------------------------------------------------------------
# pytest integration: a small configuration as a tracked benchmark.
# ----------------------------------------------------------------------
def test_bench_flat_sweep(benchmark):
    import numpy as np

    from repro.mechanism.vcg import compute_price_table
    from repro.routing.allpairs import all_pairs_lcp
    from repro.routing.engines.flat import FlatSweepStats, flat_price_rows
    from repro.routing.flatsweep import flat_price_arrays

    graph = isp_like_graph(96, seed=0, cost_sampler=integer_costs(1, 6))
    routes = all_pairs_lcp(graph)

    flat_rows = benchmark(lambda: flat_price_rows(graph, routes))

    assert not _tables_agree(compute_price_table(graph, routes).rows, flat_rows)
    stats = FlatSweepStats()
    flat_price_rows(graph, routes, stats=stats)
    # demand restriction + symmetric orientation must actually engage
    assert stats.rows < stats.solves * graph.num_nodes
    assert stats.max_block_rows < graph.num_nodes
    # sharding must be invisible: pooled prices match inline bit for bit
    inline = flat_price_arrays(graph, routes)
    pooled = flat_price_arrays(graph, routes, workers=2)
    assert np.array_equal(inline.prices, pooled.prices)


if __name__ == "__main__":
    raise SystemExit(main())
