"""Logical view definitions for secondary A+ indexes.

Secondary A+ indexes materialize one of two restricted classes of global
views (Section III-B):

* **1-hop views** (:class:`OneHopView`): ``MATCH vs-[eadj]->vd WHERE ...``
  with arbitrary selection predicates over the edge and/or its endpoint
  vertices.  The output is a subset of the edges; no projections, group-bys or
  aggregations are allowed.  Stored in secondary *vertex-partitioned* indexes.
* **2-hop views** (:class:`TwoHopView`): 2-paths whose predicate must relate
  *both* edges (otherwise the view is redundant with a 1-hop view — the
  ``Redundant`` example of Section III-B2).  Stored in secondary
  *edge-partitioned* indexes, bound by one of the two edge IDs; the position
  of the bound edge determines one of the four adjacency types.

View predicates use the reserved variable names of the paper's DDL:
``vs``/``vd`` (source/destination of the adjacent edge), ``eadj`` (the
adjacent edge), ``eb`` (the bound edge of a 2-hop view), and ``vnbr`` (the
neighbour vertex, i.e. the endpoint not shared with ``eb``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

import numpy as np

from ..errors import IndexConfigError
from ..graph.graph import PropertyGraph
from ..graph.types import Direction, EDGE_ID_DTYPE, EdgeAdjacencyType
from ..predicates import ColumnProvider, Predicate

#: Variables a 1-hop view predicate may reference.
ONE_HOP_VARIABLES: FrozenSet[str] = frozenset({"vs", "vd", "eadj"})
#: Variables a 2-hop view predicate may reference.
TWO_HOP_VARIABLES: FrozenSet[str] = frozenset({"vs", "vd", "eb", "eadj", "vnbr"})


@dataclass(frozen=True)
class OneHopView:
    """A 1-hop view: a predicate-filtered subset of the edge table.

    Attributes:
        name: view name (used as the index name prefix).
        predicate: selection predicate over ``vs``, ``vd`` and ``eadj``; the
            trivial predicate gives the global view ``E`` (all edges).
        edge_label: optional edge-label restriction, kept separate from the
            predicate because label equality is what existing systems already
            partition by.
    """

    name: str
    predicate: Predicate = field(default_factory=Predicate.true)
    edge_label: Optional[str] = None

    def __post_init__(self) -> None:
        extra = self.predicate.variables() - ONE_HOP_VARIABLES
        if extra:
            raise IndexConfigError(
                f"1-hop view {self.name!r} references unknown variables {sorted(extra)}; "
                f"allowed: {sorted(ONE_HOP_VARIABLES)}"
            )

    @property
    def is_global(self) -> bool:
        """True when the view contains every edge (no predicate, no label)."""
        return self.predicate.is_true and self.edge_label is None

    def select_edges(self, graph: PropertyGraph) -> np.ndarray:
        """IDs of the graph's edges that belong to this view."""
        all_edges = np.arange(graph.num_edges, dtype=EDGE_ID_DTYPE)
        return all_edges[
            self.membership_mask(
                graph, graph.edge_labels, all_edges, graph.edge_src, graph.edge_dst
            )
        ]

    def membership_mask(
        self,
        graph: PropertyGraph,
        label_codes: np.ndarray,
        eadj_ids: np.ndarray,
        src_ids: np.ndarray,
        dst_ids: np.ndarray,
        overrides: Optional[Mapping[str, ColumnProvider]] = None,
    ) -> np.ndarray:
        """Boolean mask of which candidate edges belong to this view.

        The single definition of 1-hop membership shared by index
        construction (all edges of the graph) and maintenance (pending
        edges, possibly not yet materialized — ``overrides`` then serves the
        buffered ``eadj`` columns; see ``Predicate.evaluate_bulk``).

        Args:
            graph: the property graph the non-overridden variables read from.
            label_codes: edge-label code of each candidate edge.
            eadj_ids: candidate edge IDs (dummy row indices when ``eadj`` is
                fully overridden).
            src_ids / dst_ids: endpoint vertex IDs of each candidate edge.
        """
        mask = np.ones(len(eadj_ids), dtype=bool)
        if self.edge_label is not None:
            code = graph.schema.edge_label_code(self.edge_label)
            mask &= np.asarray(label_codes) == code
        if not self.predicate.is_true:
            arrays = {
                "eadj": ("edge", np.asarray(eadj_ids)),
                "vs": ("vertex", np.asarray(src_ids)),
                "vd": ("vertex", np.asarray(dst_ids)),
            }
            mask &= self.predicate.evaluate_bulk(graph, {}, arrays, overrides=overrides)
        return mask

    def describe(self) -> str:
        label = f":{self.edge_label}" if self.edge_label else ""
        return (
            f"1-HOP VIEW {self.name}: MATCH vs-[eadj{label}]->vd "
            f"WHERE {self.predicate.describe()}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


@dataclass(frozen=True)
class TwoHopView:
    """A 2-hop view: predicate-filtered 2-paths, bound by one edge.

    Attributes:
        name: view name.
        adjacency: which of the four 2-path shapes is indexed
            (:class:`EdgeAdjacencyType`), determined in the DDL by where the
            ``eb`` variable appears.
        predicate: predicate over ``eb``, ``eadj``, ``vnbr`` (and optionally
            ``vs``/``vd`` of the bound edge).  It must reference properties of
            *both* edges.
    """

    name: str
    adjacency: EdgeAdjacencyType
    predicate: Predicate

    def __post_init__(self) -> None:
        variables = self.predicate.variables()
        extra = variables - TWO_HOP_VARIABLES
        if extra:
            raise IndexConfigError(
                f"2-hop view {self.name!r} references unknown variables {sorted(extra)}; "
                f"allowed: {sorted(TWO_HOP_VARIABLES)}"
            )
        references_both = any(
            comparison.variables() >= {"eb", "eadj"}
            for comparison in self.predicate.conjuncts()
        )
        if not references_both:
            raise IndexConfigError(
                f"2-hop view {self.name!r} must have a predicate relating eb and eadj; "
                "a single-edge predicate makes the index redundant with a "
                "vertex-partitioned index (Section III-B2)"
            )

    @property
    def adjacency_direction(self) -> Direction:
        """Direction of the adjacent edges relative to the shared vertex."""
        return self.adjacency.adjacency_direction

    def describe(self) -> str:
        return (
            f"2-HOP VIEW {self.name} [{self.adjacency.value}]: "
            f"WHERE {self.predicate.describe()}"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
