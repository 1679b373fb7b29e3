"""Exception types shared across the package."""


class BroadcastNetError(Exception):
    """Base class for all domain errors."""


class ParamOutOfRange(BroadcastNetError):
    """A (t, k, n) triple violates the admissible parameter ranges."""


class UnknownVertex(BroadcastNetError):
    """A vertex label does not belong to the graph at hand."""


class RootNotInformed(BroadcastNetError):
    """A binomial-tree schedule was requested without its root informed."""


class TooLarge(BroadcastNetError):
    """The exact broadcast-time search only accepts graphs with at most 16 vertices."""


class SchemePhaseOverrun(BroadcastNetError):
    """The hypercube phase of a generated schedule failed to finish by round k."""


class MalformedGraph(BroadcastNetError):
    """A graph file is not a graph written by Graph.to_json."""


class DisconnectedGraph(BroadcastNetError):
    """A broadcast cannot complete because the graph is not connected."""
