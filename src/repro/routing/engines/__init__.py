"""Unified registry of route/price computation engines.

Every backend that can answer "all selected LCPs" / "all Theorem 1
prices" for an :class:`~repro.graphs.asgraph.ASGraph` registers here
under a stable name:

=========== =========================================== ==============
name        backend                                     carries paths
=========== =========================================== ==============
reference   serial pure Python (semantics-defining)     yes
flat        exact canonical parent forests + flat-CSR   no (cost-only)
            demand-restricted price sweep, inline or
            sharded over ``workers`` processes
incremental epoch-cached warm-start (stateful)          yes
=========== =========================================== ==============

``flat`` takes its routes, when none are passed, from
:mod:`repro.routing.forests` -- batched scipy solves that equal the
reference ``route_tree`` bit for bit -- but its prices stay cost-only
(the sweep agrees with the reference to ~1e-15).  ``flat(workers=N)``
runs the same sweep on a shared-memory process pool; its tables are
bit-identical to the inline sweep's for every worker count.

Callers select an engine by name through the ``engine=`` parameter of
:func:`repro.routing.allpairs.all_pairs_lcp` and
:func:`repro.mechanism.vcg.compute_price_table`, the ``--engine`` flag
of the CLI, or directly via :func:`get_engine`.  The differential test
harness (``tests/test_engine_differential.py``) holds every registered
engine to the reference answers, and the golden fixtures pin the
Fig. 1 / Fig. 2 artifacts bit-for-bit, so registration is a correctness
contract, not just a lookup convenience.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, Type, Union, cast

from repro.exceptions import EngineError
from repro.routing.engines.base import CostMatrix, Engine
from repro.routing.engines.flat import FlatEngine, FlatSweepStats, flat_price_rows
from repro.routing.engines.incremental import CacheStats, IncrementalEngine
from repro.routing.engines.reference import ReferenceEngine

__all__ = [
    "CacheStats",
    "CostMatrix",
    "Engine",
    "EngineSpec",
    "FlatEngine",
    "FlatSweepStats",
    "IncrementalEngine",
    "ReferenceEngine",
    "engine_names",
    "flat_price_rows",
    "get_engine",
    "register",
    "resolve_engine",
]

#: A caller-facing engine selector: a registry name or an instance.
EngineSpec = Union[str, Engine]

_REGISTRY: Dict[str, Type[Engine]] = {}


def register(engine_class: Type[Engine]) -> Type[Engine]:
    """Register an engine class under its :attr:`Engine.name`.

    Usable as a decorator by out-of-tree backends; re-registering a
    name is an error (engine names are a stable CLI surface).
    """
    name = engine_class.name
    if name in _REGISTRY:
        raise EngineError(f"engine name {name!r} is already registered")
    _REGISTRY[name] = engine_class
    return engine_class


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def engine_classes() -> List[Type[Engine]]:
    """All registered engine classes, in name order."""
    return [_REGISTRY[name] for name in engine_names()]


def get_engine(name: str, **options: Any) -> Engine:
    """Instantiate a registered engine by name.

    *options* are forwarded to the engine constructor (e.g.
    ``get_engine("flat", workers=2)``).
    """
    try:
        engine_class = _REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise EngineError(f"unknown engine {name!r}; registered: {known}") from None
    factory = cast(Callable[..., Engine], engine_class)
    return factory(**options)


def resolve_engine(engine: EngineSpec) -> Engine:
    """Normalize an ``engine=`` argument (name or instance) to an
    :class:`Engine` instance."""
    if isinstance(engine, Engine):
        return engine
    return get_engine(engine)


register(ReferenceEngine)
register(FlatEngine)
register(IncrementalEngine)
