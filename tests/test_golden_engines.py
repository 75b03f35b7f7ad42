"""Golden regression fixtures: the Fig. 1 / Fig. 2 artifacts, bit for bit.

``tests/fixtures/golden/fig1_prices.json`` snapshots every selected
LCP, transit cost, and Theorem 1 price of the Figure 1 worked example,
plus the Figure 2 route tree ``T(Z)``.  Every registered engine must
reproduce the snapshot **exactly** under the default tie-break --
Figure 1 uses small integer costs, so even the cost-only ``flat``
engine's float sums are exact and no epsilon is tolerated.  A diff here means
either a broken engine or a deliberate tie-break change (in which case
the fixture must be regenerated and the change called out in review).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graphs.generators import fig1_graph
from repro.routing.dijkstra import route_tree
from repro.routing.engines import engine_names, get_engine

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "fig1_prices.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fig1():
    return fig1_graph()


#: Every registered engine with default options, plus ``flat`` with two
#: workers so the pooled sweep is pinned too.
CONFIGS = {name: (name, {}) for name in engine_names()}
CONFIGS["flat-parallel"] = ("flat", {"workers": 2})


def _engine(config):
    name, options = CONFIGS[config]
    return get_engine(name, **options)


def test_fixture_is_complete(golden, fig1):
    n = fig1.num_nodes
    assert len(golden["price_table"]) == n * (n - 1)
    # the paper's worked numbers are in the snapshot
    assert golden["price_table"]["0->5"]["prices"] == {"2": 4.0, "3": 3.0}
    assert golden["price_table"]["4->5"]["prices"] == {"3": 9.0}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_reproduces_golden_prices(golden, fig1, name):
    engine = _engine(name)
    table = engine.price_table(fig1)
    routes = table.routes
    seen = set()
    for key, expected in golden["price_table"].items():
        source, destination = (int(part) for part in key.split("->"))
        seen.add((source, destination))
        # exact float equality: integer costs make every engine's
        # arithmetic bit-identical on this instance
        assert routes.cost(source, destination) == expected["cost"], (name, key)
        actual_prices = {
            str(k): price for k, price in table.row(source, destination).items()
        }
        assert actual_prices == expected["prices"], (name, key)
        if engine.carries_paths:
            assert list(routes.path(source, destination)) == expected["path"], (name, key)
    # and nothing beyond the snapshot
    stored = {pair for pair in table.rows}
    assert stored <= seen, name


@pytest.mark.parametrize("name", engine_names())
def test_engine_reproduces_fig2_tree(golden, fig1, name):
    engine = _engine(name)
    if not engine.carries_paths:
        pytest.skip(f"engine {name} is cost-only")
    expected = golden["fig2_tree"]
    destination = expected["destination"]
    tree = engine.all_pairs(fig1).tree(destination)
    actual = {str(node): tree.parent(node) for node in tree.sources()}
    assert actual == expected["parents"], name


def test_golden_matches_live_reference(golden, fig1):
    """The committed fixture itself is still what the reference
    tie-break produces (guards against stale snapshots)."""
    tree = route_tree(fig1, golden["fig2_tree"]["destination"])
    actual = {str(node): tree.parent(node) for node in tree.sources()}
    assert actual == golden["fig2_tree"]["parents"]
