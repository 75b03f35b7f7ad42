"""E11: engine scaling -- reference vs flat (inline and pooled), same answers.

The price-table benchmarks run the reference engine and the ``flat``
engine at one and two sweep workers on the same n = 100 ISP-like
instance and assert the results agree with the reference engine
(bit-for-bit for the reference itself, ``costs_close`` for the
cost-only ``flat`` sweep), so the benchmark doubles as the
differential harness at benchmark scale; the assertion layer
guarantees the speed never buys different answers.
"""

import pytest

from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import get_engine
from repro.types import costs_close


def _assert_tables_agree(reference, candidate, exact):
    assert set(candidate.rows) == set(reference.rows)
    for pair in reference.rows:
        ref_row = reference.rows[pair]
        cand_row = candidate.rows[pair]
        assert set(cand_row) == set(ref_row)
        for k, price in ref_row.items():
            if exact:
                assert cand_row[k] == price
            else:
                assert costs_close(cand_row[k], price)


def test_bench_python_all_pairs(benchmark, isp32):
    routes = benchmark(all_pairs_lcp, isp32)
    assert len(routes.paths) == isp32.num_nodes * (isp32.num_nodes - 1)


def test_bench_flat_cost_matrix(benchmark, isp32):
    costs = benchmark(get_engine("flat").cost_matrix, isp32)
    routes = all_pairs_lcp(isp32)
    for (i, j), _path in routes.paths.items():
        assert costs_close(costs.cost(i, j), routes.cost(i, j))


def test_bench_prices_reference_n100(benchmark, isp100, isp100_reference_prices):
    table = benchmark.pedantic(compute_price_table, args=(isp100,), rounds=1, iterations=1)
    _assert_tables_agree(isp100_reference_prices, table, exact=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_prices_flat_n100(benchmark, isp100, isp100_reference_prices, workers):
    engine = get_engine("flat", workers=workers)
    table = benchmark.pedantic(engine.price_table, args=(isp100,), rounds=1, iterations=1)
    _assert_tables_agree(isp100_reference_prices, table, exact=False)
