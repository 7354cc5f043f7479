"""repro — a reproduction of "A+ Indexes: Tunable and Space-Efficient Adjacency
Lists in Graph Database Management Systems" (ICDE 2021).

The package provides:

* an in-memory property-graph substrate (:mod:`repro.graph`),
* the A+ indexing subsystem — primary, secondary vertex-partitioned and
  secondary edge-partitioned indexes over nested CSRs and offset lists
  (:mod:`repro.index`, :mod:`repro.storage`),
* a GraphflowDB-style query processor with EXTEND/INTERSECT, MULTI-EXTEND and
  a DP join optimizer that selects A+ indexes (:mod:`repro.query`),
* an admission-controlled query server (:mod:`repro.server`), and
* the paper's three evaluation workloads on scaled datasets
  (:mod:`repro.workloads`), which ``benchmarks/paper_tables.py`` runs to
  measure the paper's tables.

Quickstart::

    from repro import Database, QueryGraph, cmp, prop
    from repro.graph import running_example_graph

    db = Database(running_example_graph())
    q = QueryGraph("alice-accounts")
    q.add_vertex("c1", label="Customer")
    q.add_vertex("a1", label="Account")
    q.add_edge("c1", "a1", label="Owns", name="r1")
    q.add_predicate(cmp(prop("c1", "name"), "=", "Alice"))
    print(db.count(q))
"""

from .errors import (
    DDLParseError,
    ExecutionError,
    GraphBuildError,
    IndexConfigError,
    IndexLookupError,
    MaintenanceError,
    PlanningError,
    QueryCancelledError,
    QueryParseError,
    QueryTimeoutError,
    ReproError,
    SchemaError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
    WorkerCrashError,
)
from .graph import (
    Direction,
    EdgeAdjacencyType,
    GraphBuilder,
    GraphSchema,
    PropertyGraph,
    PropertyType,
)
from .index import (
    EdgePartitionedIndex,
    IndexConfig,
    IndexStore,
    OneHopView,
    PrimaryIndex,
    TwoHopView,
    VertexPartitionedIndex,
)
from .query import (
    CancellationToken,
    CountSink,
    Database,
    ExistsSink,
    Executor,
    FaultPlan,
    FlattenSink,
    LimitSink,
    MorselExecutor,
    NaiveMatcher,
    Optimizer,
    PipelineBuilder,
    PlanCache,
    PlanCacheStats,
    Predicate,
    QueryContext,
    QueryGraph,
    QueryPlan,
    QueryResult,
    cmp,
    const,
    prop,
)
from .server import DatabaseServer, ServerConfig, ServerTicket

__version__ = "1.0.0"

__all__ = [
    "CancellationToken",
    "CountSink",
    "Database",
    "DatabaseServer",
    "DDLParseError",
    "ExistsSink",
    "FaultPlan",
    "FlattenSink",
    "LimitSink",
    "PipelineBuilder",
    "QueryCancelledError",
    "QueryContext",
    "QueryTimeoutError",
    "WorkerCrashError",
    "Direction",
    "EdgeAdjacencyType",
    "EdgePartitionedIndex",
    "ExecutionError",
    "Executor",
    "MorselExecutor",
    "GraphBuildError",
    "GraphBuilder",
    "GraphSchema",
    "IndexConfig",
    "IndexConfigError",
    "IndexLookupError",
    "IndexStore",
    "MaintenanceError",
    "NaiveMatcher",
    "OneHopView",
    "Optimizer",
    "PlanCache",
    "PlanCacheStats",
    "PlanningError",
    "Predicate",
    "PrimaryIndex",
    "PropertyGraph",
    "PropertyType",
    "QueryGraph",
    "QueryParseError",
    "QueryPlan",
    "QueryResult",
    "ReproError",
    "SchemaError",
    "ServerClosedError",
    "ServerConfig",
    "ServerError",
    "ServerOverloadedError",
    "ServerTicket",
    "TwoHopView",
    "VertexPartitionedIndex",
    "cmp",
    "const",
    "prop",
    "__version__",
]
