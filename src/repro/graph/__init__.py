"""Property-graph substrate: schema, columnar storage, builders, generators."""

from .builder import GraphBuilder
from .generators import (
    FinancialGraphSpec,
    HubSkewedGraphSpec,
    LabelledGraphSpec,
    SocialGraphSpec,
    generate_financial_graph,
    generate_hub_skewed_graph,
    generate_labelled_graph,
    generate_social_graph,
    running_example_graph,
)
from .graph import PropertyGraph
from .loader import assign_random_labels, load_csv, load_edge_list
from .property_store import PropertyStore
from .schema import GraphSchema, PropertyDef
from .statistics import DegreeSummary, GraphStatistics, PlannerStatistics
from .types import Direction, EdgeAdjacencyType, PropertyType

__all__ = [
    "Direction",
    "DegreeSummary",
    "EdgeAdjacencyType",
    "FinancialGraphSpec",
    "GraphBuilder",
    "GraphSchema",
    "GraphStatistics",
    "PlannerStatistics",
    "HubSkewedGraphSpec",
    "LabelledGraphSpec",
    "PropertyDef",
    "PropertyGraph",
    "PropertyStore",
    "PropertyType",
    "SocialGraphSpec",
    "assign_random_labels",
    "generate_financial_graph",
    "generate_hub_skewed_graph",
    "generate_labelled_graph",
    "generate_social_graph",
    "load_csv",
    "load_edge_list",
    "running_example_graph",
]
