"""E11: engine scaling (engineering, not a paper claim).

Compares every engine registered in :mod:`repro.routing.engines` --
serial pure-Python reference, flat-CSR sweep, epoch-cached
incremental -- on all-pairs LCP costs *and* all-pairs Theorem 1
prices, and checks they agree with the reference answers.  This
experiment exists so the repository's performance story is measured
rather than asserted; it reproduces no specific paper artifact.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.report import Table
from repro.experiments.registry import ExperimentResult
from repro.graphs.generators import integer_costs, isp_like_graph
from repro.mechanism.vcg import PriceTable
from repro.routing.engines import Engine, engine_names, get_engine

#: Agreement tolerance for differently-associated float arithmetic.
_AGREE_EPS = 1e-9


def _price_agreement(reference: PriceTable, candidate: PriceTable) -> float:
    """Max |price difference| over the union of stored entries."""
    worst = 0.0
    pairs = set(reference.rows) | set(candidate.rows)
    for pair in sorted(pairs):
        ref_row = reference.rows.get(pair, {})
        cand_row = candidate.rows.get(pair, {})
        for k in sorted(set(ref_row) | set(cand_row)):
            worst = max(worst, abs(ref_row.get(k, 0.0) - cand_row.get(k, 0.0)))
    return worst


def _engines_under_test(engine: Optional[str]) -> List[Tuple[str, Engine]]:
    """The engines the experiment compares (reference always first)."""
    names = [engine] if engine is not None else list(engine_names())
    if "reference" in names:
        names.remove("reference")
    ordered = ["reference"] + sorted(names)
    return [(name, get_engine(name)) for name in ordered]


def run(scale: str = "small", seed: int = 0, engine: Optional[str] = None) -> ExperimentResult:
    sizes = (10, 20, 30) if scale == "small" else (20, 40, 80, 120)
    engines = _engines_under_test(engine)
    out = Table(
        title="All-pairs LCP costs and VCG prices, per engine",
        headers=["n", "m", "engine", "costs s", "prices s", "speedup", "max |diff|"],
    )
    passed = True
    for n in sizes:
        graph = isp_like_graph(n, seed=seed, cost_sampler=integer_costs(1, 9))
        reference_seconds = 0.0
        reference_matrix: Optional[np.ndarray] = None
        reference_table: Optional[PriceTable] = None
        for name, instance in engines:
            start = time.perf_counter()
            costs = instance.cost_matrix(graph)
            costs_s = time.perf_counter() - start

            start = time.perf_counter()
            table = instance.price_table(graph)
            prices_s = time.perf_counter() - start

            if reference_matrix is None or reference_table is None:
                reference_seconds = costs_s + prices_s
                reference_matrix = costs.matrix
                reference_table = table
                max_diff = 0.0
            else:
                cost_diff = float(np.abs(costs.matrix - reference_matrix).max())
                max_diff = max(cost_diff, _price_agreement(reference_table, table))
            agree = max_diff <= _AGREE_EPS
            passed = passed and agree
            total = costs_s + prices_s
            out.add_row(
                n,
                graph.num_edges,
                name,
                costs_s,
                prices_s,
                reference_seconds / total if total > 0 else math.inf,
                max_diff,
            )
    out.add_note(
        "speedup is vs the reference engine's total (costs + prices) on "
        "the same instance; integer costs keep diffs ~0"
    )
    return ExperimentResult(
        experiment_id="E11",
        title="Engine scaling",
        paper_artifact="(engineering companion; no paper table)",
        expectation="all registered engines agree; accelerated engines win at scale",
        tables=[out],
        passed=passed,
    )
