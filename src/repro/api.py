"""The stable public API of the ``repro`` library.

Import from here when you want the supported surface and nothing else;
internal module layout may change between releases, this facade will
not.  One symbol per concept:

* :class:`ASGraph` -- the AS graph model: nodes with per-packet transit
  costs, undirected links.
* :func:`all_pairs_lcp` -- centralized selected lowest-cost paths for
  all ordered pairs (``engine=``/``sanitize=``/``obs=`` keyword-only).
* :func:`compute_price_table` -- the centralized Theorem 1 VCG prices
  (same keyword-only knobs, same order, same defaults).
* :func:`get_engine` -- instantiate a computation backend from the
  engine registry by name (``reference`` | ``scipy`` | ``flat`` |
  ``parallel`` | ``incremental``).
* :func:`run` -- **the** distributed entry point: every substrate and
  scenario shape behind one call.  ``protocol=`` picks the staged
  engine (``"delta"`` incremental transport, ``"full"`` literal
  Sect. 5 tables) or the discrete-event ``"timed"`` substrate;
  ``events=`` switches from one convergence to the Sect. 6 dynamics
  (scripted events, staged; ``(virtual_time, event)`` pairs, timed).
  ``delay=`` takes a :class:`DelayModel` or a ``"uniform:0.1,1.0"``
  spec string, ``mrai=`` an :class:`MRAIConfig` or a keyword dict,
  ``sanitize=`` overrides the global sanitizer switch for the run.
* :func:`verify_against_centralized` -- compare a distributed result
  with the centralized reference, route by route and price by price.
* :func:`fig1_graph` -- the paper's Figure 1 worked example.
* :func:`analyze_paths` -- the interprocedural determinism/contract
  analyzer (``repro.devtools.flow``); returns the contract findings and
  per-function effect summaries for a source tree.
* :mod:`obs` -- the observability layer (spans, counters, gauges,
  trace sinks); off by default with zero overhead.

Quickstart::

    from repro import api

    graph = api.fig1_graph()
    table = api.compute_price_table(graph)          # Theorem 1
    result = api.run(graph)                         # BGP-based, Sect. 6
    api.verify_against_centralized(result, table).raise_on_mismatch()

    with api.obs.observed() as observer:            # record a run
        api.run(graph)
    observer.counter_total(api.obs.names.MESSAGES)  # paper measure 2

Dynamics quickstart::

    from repro.bgp.events import CostChange, LinkFailure, LinkRecovery

    events = [LinkFailure(0, 1), LinkRecovery(0, 1), CostChange(2, 5.0)]
    run = api.run(graph, events, engine="incremental")
    assert run.all_ok and run.all_within_bound

Timed quickstart::

    result = api.run(
        graph,
        protocol="timed",
        seed=7,
        delay="lognormal:-2.0,0.8",
        mrai={"interval": 1.0, "mode": "peer", "jitter": 0.25},
    )
    api.verify_against_centralized(result).raise_on_mismatch()
    result.report.convergence_time                  # virtual seconds
"""

from __future__ import annotations

from repro import obs
from repro.bgp.delays import (
    ConstantDelay,
    DelayModel,
    LogNormalDelay,
    UniformDelay,
    parse_delay,
    resolve_delay,
)
from repro.bgp.timed import MRAIConfig, TimedEngine, resolve_mrai
from repro.core.dynamics import dynamic_scenario, timed_scenario
from repro.devtools.flow import analyze_paths
from repro.core.protocol import (
    distributed_mechanism,
    timed_mechanism,
    verify_against_centralized,
)
from repro.core.run import run
from repro.graphs.asgraph import ASGraph
from repro.graphs.generators import fig1_graph
from repro.mechanism.vcg import compute_price_table
from repro.routing.allpairs import all_pairs_lcp
from repro.routing.engines import get_engine

__all__ = [
    "ASGraph",
    "ConstantDelay",
    "DelayModel",
    "LogNormalDelay",
    "MRAIConfig",
    "TimedEngine",
    "UniformDelay",
    "all_pairs_lcp",
    "analyze_paths",
    "compute_price_table",
    "distributed_mechanism",
    "dynamic_scenario",
    "fig1_graph",
    "get_engine",
    "obs",
    "parse_delay",
    "resolve_delay",
    "resolve_mrai",
    "run",
    "timed_mechanism",
    "timed_scenario",
    "verify_against_centralized",
]
