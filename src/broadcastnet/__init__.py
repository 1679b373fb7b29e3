"""Sparse broadcast graphs: construction, schedule certification, bound tables."""

from .binomial import BinomialTree, binomial_schedule, build_binomial
from .bounds import (
    BoundReport,
    bound_5a,
    bound_5b,
    bound_farley,
    bound_hl_direct,
    bound_hln_odd,
    bound_knodel_even,
    bound_report,
    table1,
    table2,
)
from .construct import CaseOneLayout, EdgeAccounting, audit_edges, build
from .errors import (
    BroadcastNetError,
    DisconnectedGraph,
    MalformedGraph,
    ParamOutOfRange,
    RootNotInformed,
    SchemePhaseOverrun,
    TooLarge,
    UnknownVertex,
)
from .graph import Graph
from .hypercube import Hypercube, build_hypercube, hypercube_schedule
from .labels import VertexLabel
from .params import ConstructionParams, make_params
from .schedule import Schedule
from .scheme import SchemeCase, classify, make_schedule
from .verify import (
    CertificationReport,
    CheckResult,
    Violation,
    certify_graph,
    check_schedule,
    exact_broadcast_time,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialTree", "BoundReport", "BroadcastNetError", "CaseOneLayout",
    "CertificationReport", "CheckResult", "ConstructionParams", "DisconnectedGraph",
    "EdgeAccounting", "Graph", "Hypercube", "MalformedGraph", "ParamOutOfRange",
    "RootNotInformed", "Schedule",
    "SchemeCase", "SchemePhaseOverrun", "TooLarge", "UnknownVertex", "Violation",
    "VertexLabel", "audit_edges", "binomial_schedule", "bound_5a", "bound_5b",
    "bound_farley", "bound_hl_direct", "bound_hln_odd", "bound_knodel_even",
    "bound_report", "build", "build_binomial", "build_hypercube", "certify_graph",
    "check_schedule", "classify", "exact_broadcast_time", "hypercube_schedule",
    "make_params", "make_schedule", "table1", "table2",
]
