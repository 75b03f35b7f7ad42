"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError`, so callers
can catch one type when they do not care about the detail.  Each concrete
subtype maps onto a modelling assumption from the paper (biconnectivity,
reachability, well-formed declarations) or onto a protocol misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class GraphError(ReproError):
    """A malformed AS graph: unknown nodes, self-loops, duplicate links."""


class NotBiconnectedError(GraphError):
    """The AS graph is not biconnected.

    Theorem 1 requires biconnectivity: without it, some k-avoiding path
    does not exist and the VCG payment to the cut node is undefined (the
    node could charge a monopoly price).
    """

    def __init__(self, articulation_points=None, message=None):
        self.articulation_points = tuple(articulation_points or ())
        if message is None:
            if self.articulation_points:
                message = (
                    "AS graph is not biconnected; articulation points: "
                    f"{sorted(self.articulation_points)}"
                )
            else:
                message = "AS graph is not biconnected"
        super().__init__(message)


class DisconnectedGraphError(GraphError):
    """The AS graph is not even connected."""


class UnreachableError(ReproError):
    """No path exists between the requested source and destination."""

    def __init__(self, source, destination, avoiding=None):
        self.source = source
        self.destination = destination
        self.avoiding = avoiding
        detail = f"no path from {source} to {destination}"
        if avoiding is not None:
            detail += f" avoiding {avoiding}"
        super().__init__(detail)


class TrafficMatrixError(ReproError):
    """A malformed traffic matrix (negative intensity, unknown node...)."""


class MechanismError(ReproError):
    """A pricing-mechanism invariant was violated."""


class ProtocolError(ReproError):
    """Misuse of the BGP or FPSS protocol engines (e.g. stepping a
    network that was never initialized, or sending to a non-neighbor)."""


class ConvergenceError(ProtocolError):
    """A protocol failed to converge within its stage budget."""

    def __init__(self, stages, limit, message=None):
        self.stages = stages
        self.limit = limit
        super().__init__(
            message
            or f"protocol did not converge within {limit} stages "
            f"(ran {stages})"
        )


class EngineError(ReproError):
    """A routing/pricing engine was misused or misconfigured.

    Raised for unknown engine names in the
    :mod:`repro.routing.engines` registry, for capability mismatches
    (e.g. asking a cost-only engine for selected paths), for invalid
    worker or shard layouts of the flat sweep, and for a sweep worker
    that died.
    """


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class TraceError(ReproError):
    """A recorded observability trace (:mod:`repro.obs.trace`) is
    malformed: missing/bad meta line, invalid JSON, unknown event kind,
    or events missing required fields for their kind."""


class SanitizerError(ReproError):
    """A runtime invariant check (:mod:`repro.devtools.sanitize`) failed.

    Raised only while the sanitizer is enabled; it always indicates an
    implementation bug (or a deliberately seeded corruption in the
    sanitizer's own tests), never a property of the protocol.
    """

    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"[sanitize:{check}] {detail}")
