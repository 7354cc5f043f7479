"""Dynamic-programming join optimizer with A+ index selection.

The optimizer follows GraphflowDB's approach (Section IV-A of the paper): it
enumerates plans for progressively larger connected sub-queries one query
vertex at a time, extending the best plan of each sub-query with an
EXTEND/INTERSECT operator, and — when the query contains equality predicates
relating two or more not-yet-matched query vertices (or predicates relating
two query edges) — with a MULTI-EXTEND operator that may add several query
vertices at once and may read edge-partitioned A+ indexes.

For every candidate extension the optimizer queries the INDEX STORE for the
usable access paths (primary, vertex-partitioned, and edge-partitioned
indexes whose materialized predicates are subsumed by the extension's
predicate), picks the cheapest one per leg, and costs alternatives with the
**i-cost** metric: the total estimated size of the adjacency lists the plan's
extension operators will access.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import PlanningError
from ..graph.types import Direction, EdgeAdjacencyType
from ..index.index_store import AccessPath, IndexStore
from ..storage.sort_keys import SortKey
from .operators import (
    ExtendIntersect,
    ExtensionLeg,
    Filter,
    MultiExtend,
    PhysicalOperator,
    ScanVertices,
    SortedRangeFilter,
)
from .pattern import QueryEdge, QueryGraph
from .plan import QueryPlan
from ..predicates import (
    CompareOp,
    Comparison,
    Constant,
    Predicate,
    PropertyRef,
    encode_constant,
)

#: Default selectivity guesses used by the cardinality model.
_RANGE_SELECTIVITY = 0.3
_GENERIC_EQ_SELECTIVITY = 0.1
_CROSS_RANGE_SELECTIVITY = 0.5


@dataclass
class _DPEntry:
    """Best-known plan prefix for one sub-query (set of bound query vertices)."""

    cost: float
    cardinality: float
    operators: Tuple[PhysicalOperator, ...]
    applied: FrozenSet[int]


class CostModel:
    """Cardinality and selectivity estimation shared by the optimizer."""

    def __init__(self, store: IndexStore, query: QueryGraph) -> None:
        self.store = store
        self.query = query
        self.graph = store.graph
        self.statistics = store.statistics

    # ------------------------------------------------------------------
    # selectivity of individual conjuncts
    # ------------------------------------------------------------------
    def conjunct_selectivity(self, comparison: Comparison) -> float:
        comparison = comparison.normalized()
        left = comparison.left
        right = comparison.right
        if isinstance(left, PropertyRef) and isinstance(right, Constant):
            if comparison.op is CompareOp.EQ:
                return self._equality_selectivity(left, right.value)
            if comparison.op in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE):
                return self._range_selectivity(left, right.value)
            return 0.9
        if isinstance(left, PropertyRef) and isinstance(right, PropertyRef):
            if comparison.op is CompareOp.EQ:
                return self._cross_equality_selectivity(left)
            return _CROSS_RANGE_SELECTIVITY
        return 1.0

    #: Canonical variable names used when talking to the INDEX STORE.
    _CANONICAL_KINDS = {
        "bound": "vertex",
        "nbr": "vertex",
        "bound_src": "vertex",
        "bound_dst": "vertex",
        "vs": "vertex",
        "vd": "vertex",
        "vnbr": "vertex",
        "edge": "edge",
        "eadj": "edge",
        "bound_edge": "edge",
        "eb": "edge",
    }

    def _variable_kind(self, var: str) -> str:
        if var in self._CANONICAL_KINDS:
            return self._CANONICAL_KINDS[var]
        return self.query.variable_kind(var)

    def _equality_selectivity(self, ref: PropertyRef, value) -> float:
        graph = self.graph
        kind = self._variable_kind(ref.var)
        if ref.prop == "ID":
            domain = graph.num_vertices if kind == "vertex" else graph.num_edges
            return 1.0 / max(domain, 1)
        if ref.prop == "label":
            if kind == "vertex":
                code = (
                    graph.schema.vertex_label_code(value)
                    if isinstance(value, str)
                    else value
                )
                return max(self.statistics.vertex_label_selectivity(code), 1e-9)
            code = (
                graph.schema.edge_label_code(value) if isinstance(value, str) else value
            )
            return max(self.statistics.edge_label_selectivity(code), 1e-9)
        schema = graph.schema
        if kind == "vertex" and schema.has_vertex_property(ref.prop):
            prop = schema.vertex_property(ref.prop)
        elif kind == "edge" and schema.has_edge_property(ref.prop):
            prop = schema.edge_property(ref.prop)
        else:
            return _GENERIC_EQ_SELECTIVITY
        if prop.is_categorical:
            return 1.0 / max(prop.num_categories, 1)
        return _GENERIC_EQ_SELECTIVITY

    def _range_selectivity(self, ref: PropertyRef, value) -> float:
        if ref.prop == "ID":
            kind = self._variable_kind(ref.var)
            domain = (
                self.graph.num_vertices if kind == "vertex" else self.graph.num_edges
            )
            if isinstance(value, (int, float)) and domain:
                return min(max(value / domain, 1e-6), 1.0)
        return _RANGE_SELECTIVITY

    def _cross_equality_selectivity(self, ref: PropertyRef) -> float:
        kind = self._variable_kind(ref.var)
        schema = self.graph.schema
        if kind == "vertex" and schema.has_vertex_property(ref.prop):
            prop = schema.vertex_property(ref.prop)
            if prop.is_categorical:
                return 1.0 / max(prop.num_categories, 1)
        if kind == "edge" and schema.has_edge_property(ref.prop):
            prop = schema.edge_property(ref.prop)
            if prop.is_categorical:
                return 1.0 / max(prop.num_categories, 1)
        if ref.prop == "ID":
            return 1.0 / max(self.graph.num_vertices, 1)
        return _GENERIC_EQ_SELECTIVITY

    def predicate_selectivity(self, comparisons: Sequence[Comparison]) -> float:
        selectivity = 1.0
        for comparison in comparisons:
            selectivity *= self.conjunct_selectivity(comparison)
        return selectivity

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan_cardinality(self, vertex_var: str, conjuncts: Sequence[Comparison]) -> float:
        label = self.query.vertex(vertex_var).label
        if label is None:
            base = float(self.graph.num_vertices)
        else:
            base = float(
                self.statistics.vertices_with_label(
                    self.graph.schema.vertex_label_code(label)
                )
            )
        return max(base * self.predicate_selectivity(conjuncts), 1.0)


class Optimizer:
    """Produces a :class:`QueryPlan` for a query graph using the INDEX STORE."""

    def __init__(self, store: IndexStore) -> None:
        self.store = store
        self.graph = store.graph

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(self, query: QueryGraph) -> QueryPlan:
        if query.num_vertices == 0:
            raise PlanningError("cannot plan a query without query vertices")
        if not query.is_connected():
            raise PlanningError("only connected query patterns are supported")

        self._query = query
        self._cost_model = CostModel(self.store, query)
        self._conjuncts: List[Comparison] = [
            comparison
            for comparison in query.full_predicate().conjuncts()
            if not self._label_cannot_fail(comparison)
        ]
        self._tracked_edges = query.tracked_edges()

        table: Dict[FrozenSet[str], _DPEntry] = {}
        for vertex in query.vertex_names:
            entry = self._scan_entry(vertex)
            key = frozenset({vertex})
            if key not in table or entry.cost < table[key].cost:
                table[key] = entry

        all_vertices = frozenset(query.vertex_names)
        # Enumerate sub-queries in order of increasing size.
        for size in range(1, query.num_vertices):
            states = [s for s in list(table) if len(s) == size]
            for state in states:
                entry = table[state]
                for new_state, new_entry in self._extensions(state, entry):
                    existing = table.get(new_state)
                    if existing is None or new_entry.cost < existing.cost:
                        table[new_state] = new_entry

        if all_vertices not in table:
            raise PlanningError(
                f"optimizer could not cover all query vertices of {query.name!r}"
            )
        best = table[all_vertices]
        operators = list(best.operators)

        # Final safety filter for any conjunct not applied along the way.
        remaining = [
            comparison
            for position, comparison in enumerate(self._conjuncts)
            if position not in best.applied
        ]
        if remaining:
            operators.append(Filter(Predicate(remaining)))
        plan = QueryPlan(
            query=query,
            operators=operators,
            estimated_cost=best.cost,
            estimated_cardinality=best.cardinality,
        )
        # Precompute the sink capability: only plans whose terminal suffix
        # factorizes opt in to aggregate pushdown (PlanRunner.count), and
        # planning time is where the analysis belongs — executors then read
        # the cached verdict without re-walking the operator pipeline.
        plan.factorized_suffix_start()
        return plan

    def _label_cannot_fail(self, comparison: Comparison) -> bool:
        """True for ``v.label = 'L'`` when *every* vertex carries ``L``.

        On a single-label graph the conjunct would cost one predicate
        evaluation per fetched list entry to learn nothing — and it is what
        keeps an otherwise unfiltered extension off the offsets-only
        ``count_many`` path.  Exact by construction: the statistics belong
        to the store generation being planned against, and a later vertex
        with another label arrives through a flush, i.e. a new generation
        and a new plan.
        """
        normalized = comparison.normalized()
        left, right = normalized.left, normalized.right
        if not (
            normalized.op is CompareOp.EQ
            and isinstance(left, PropertyRef)
            and left.prop == "label"
            and isinstance(right, Constant)
            and isinstance(right.value, str)
            and self._query.variable_kind(left.var) == "vertex"
        ):
            return False
        code = self.graph.schema.vertex_label_code(right.value)
        return self.store.statistics.vertices_with_label(code) == self.graph.num_vertices

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def _conjuncts_within(
        self, variables: Set[str], exclude: FrozenSet[int]
    ) -> List[int]:
        positions = []
        for position, comparison in enumerate(self._conjuncts):
            if position in exclude:
                continue
            if comparison.variables() <= variables:
                positions.append(position)
        return positions

    def _scan_entry(self, vertex: str) -> _DPEntry:
        label = self._query.vertex(vertex).label
        applied: Set[int] = set()
        scan_conjuncts: List[Comparison] = []
        for position in self._conjuncts_within({vertex}, frozenset()):
            comparison = self._conjuncts[position]
            if (
                comparison.normalized().op is CompareOp.EQ
                and isinstance(comparison.normalized().left, PropertyRef)
                and comparison.normalized().left.prop == "label"
            ):
                # The scan's label argument covers the label conjunct.
                applied.add(position)
                continue
            scan_conjuncts.append(comparison)
            applied.add(position)
        cardinality = self._cost_model.scan_cardinality(vertex, scan_conjuncts)
        scan = ScanVertices(var=vertex, label=label, predicate=Predicate(scan_conjuncts))
        return _DPEntry(
            cost=0.0,
            cardinality=cardinality,
            operators=(scan,),
            applied=frozenset(applied),
        )

    # ------------------------------------------------------------------
    # extensions
    # ------------------------------------------------------------------
    def _extensions(self, state: FrozenSet[str], entry: _DPEntry):
        """Yield (new_state, new_entry) pairs reachable from ``state``."""
        for result in self._extend_intersect_candidates(state, entry):
            yield result
        for result in self._multi_extend_candidates(state, entry):
            yield result

    # -- EXTEND/INTERSECT -------------------------------------------------
    def _extend_intersect_candidates(self, state: FrozenSet[str], entry: _DPEntry):
        query = self._query
        for new_vertex in query.vertex_names:
            if new_vertex in state:
                continue
            connecting = query.edges_between(set(state), new_vertex)
            if not connecting:
                continue
            built = self._build_extension(state, entry, new_vertex, connecting)
            if built is None:
                continue
            yield built

    def _build_extension(
        self,
        state: FrozenSet[str],
        entry: _DPEntry,
        new_vertex: str,
        connecting: List[QueryEdge],
    ) -> Optional[Tuple[FrozenSet[str], _DPEntry]]:
        applied: Set[int] = set(entry.applied)
        legs: List[ExtensionLeg] = []
        total_list_size = 0.0
        cardinality_factor = 1.0

        for query_edge in connecting:
            leg, leg_applied, leg_size, leg_card = self._build_leg(
                state, new_vertex, query_edge, applied
            )
            if leg is None:
                return None
            legs.append(leg)
            applied |= leg_applied
            total_list_size += leg_size
            cardinality_factor *= leg_card

        # Conjuncts that become evaluable once the new vertex (and its edges)
        # are bound but were not pushed into a leg.
        bound_after = set(state) | {new_vertex}
        bound_after |= {
            edge.name
            for edge in self._query.edges.values()
            if edge.src in bound_after and edge.dst in bound_after and edge.name in self._tracked_edges
        }
        post_positions = self._conjuncts_within(bound_after, frozenset(applied))
        post_conjuncts = [self._conjuncts[p] for p in post_positions]
        applied |= set(post_positions)

        intersection_discount = float(self.graph.num_vertices) ** (len(legs) - 1)
        new_cardinality = max(
            entry.cardinality
            * cardinality_factor
            / max(intersection_discount, 1.0)
            * self._cost_model.predicate_selectivity(post_conjuncts),
            1e-3,
        )
        cost = entry.cost + entry.cardinality * total_list_size
        operator = ExtendIntersect(
            target_var=new_vertex,
            legs=legs,
            post_predicate=Predicate(post_conjuncts),
        )
        new_entry = _DPEntry(
            cost=cost,
            cardinality=new_cardinality,
            operators=entry.operators + (operator,),
            applied=frozenset(applied),
        )
        return frozenset(set(state) | {new_vertex}), new_entry

    def _build_leg(
        self,
        state: FrozenSet[str],
        new_vertex: str,
        query_edge: QueryEdge,
        already_applied: Set[int],
        required_sort: Optional[SortKey] = None,
    ) -> Tuple[Optional[ExtensionLeg], Set[int], float, float]:
        """Build the best access-path leg matching ``query_edge``.

        ``required_sort`` restricts the candidates to access paths whose most
        granular lists are sorted by the given key (needed by MULTI-EXTEND).

        Returns (leg, applied conjunct positions, estimated list size accessed,
        estimated per-input-row output factor).
        """
        query = self._query
        bound_vertex = query_edge.other_endpoint(new_vertex)
        direction = (
            Direction.FORWARD if query_edge.src == bound_vertex else Direction.BACKWARD
        )

        local_vars = {bound_vertex, query_edge.name, new_vertex}
        local_positions = self._conjuncts_within(local_vars, frozenset(already_applied))
        local_conjuncts = [self._conjuncts[p] for p in local_positions]
        rename = {bound_vertex: "bound", query_edge.name: "edge", new_vertex: "nbr"}
        canonical = Predicate(c.renamed(rename) for c in local_conjuncts)

        candidates: List[Tuple[AccessPath, Dict[str, str], str, List[int]]] = []
        for path in self.store.find_vertex_access_paths(direction, canonical):
            candidates.append(
                (path, {"bound": bound_vertex, "edge": query_edge.name, "nbr": new_vertex},
                 bound_vertex, local_positions)
            )

        # Edge-partitioned alternatives: the extension shares its bound vertex
        # with an already-matched, tracked query edge.
        for prev_edge in query.edges.values():
            if prev_edge.name == query_edge.name:
                continue
            if prev_edge.name not in self._tracked_edges:
                continue
            if prev_edge.src not in state or prev_edge.dst not in state:
                continue
            if not prev_edge.touches(bound_vertex):
                continue
            adjacency = self._adjacency_type(bound_vertex, prev_edge, query_edge)
            cross_vars = {
                bound_vertex,
                query_edge.name,
                new_vertex,
                prev_edge.name,
                prev_edge.src,
                prev_edge.dst,
            }
            cross_positions = self._conjuncts_within(
                cross_vars, frozenset(already_applied)
            )
            cross_conjuncts = [self._conjuncts[p] for p in cross_positions]
            cross_rename = {
                prev_edge.name: "bound_edge",
                query_edge.name: "edge",
                new_vertex: "nbr",
                prev_edge.src: "bound_src",
                prev_edge.dst: "bound_dst",
            }
            cross_canonical = Predicate(c.renamed(cross_rename) for c in cross_conjuncts)
            inverse = {v: k for k, v in cross_rename.items()}
            for path in self.store.find_edge_access_paths(adjacency, cross_canonical):
                candidates.append((path, inverse, prev_edge.name, cross_positions))

        if required_sort is not None:
            candidates = [
                candidate
                for candidate in candidates
                if candidate[0].tuned_for(required_sort)
            ]
        if not candidates:
            return None, set(), 0.0, 1.0

        # Rank candidates by (estimated list size, whether a residual conjunct
        # can be answered by binary search on the list's sort order, number of
        # residual conjuncts left).  The second component is what makes the
        # optimizer prefer e.g. a time-sorted secondary index over the primary
        # index when both address lists of the same size (Table III).
        best = None
        for path, inverse, bound_var, positions in candidates:
            residual_sel = self._cost_model.predicate_selectivity(list(path.residual))
            candidate_residual = Predicate(c.renamed(inverse) for c in path.residual)
            sorted_filter, remaining = self._extract_sorted_filter(
                path, candidate_residual, query_edge.name, new_vertex
            )
            key = (
                path.estimated_list_size,
                0 if sorted_filter is not None else 1,
                len(remaining.conjuncts()),
            )
            if best is None or key < best[0]:
                best = (
                    key,
                    path,
                    inverse,
                    bound_var,
                    positions,
                    residual_sel,
                    sorted_filter,
                    remaining,
                )

        _, path, inverse, bound_var, positions, residual_sel, sorted_filter, residual = best
        leg = ExtensionLeg(
            access_path=path,
            bound_var=bound_var,
            target_var=new_vertex,
            edge_var=query_edge.name,
            track_edge=query_edge.name in self._tracked_edges,
            sorted_filter=sorted_filter,
            residual=residual,
            presorted_by_nbr=path.sorted_by_neighbour_id,
        )
        applied = set(positions)
        leg_cardinality = path.estimated_list_size * residual_sel
        return leg, applied, path.estimated_list_size, max(leg_cardinality, 1e-3)

    def _adjacency_type(
        self, shared_vertex: str, bound_edge: QueryEdge, new_edge: QueryEdge
    ) -> EdgeAdjacencyType:
        """2-path shape of (bound edge, new edge) around their shared vertex."""
        bound_at_dst = bound_edge.dst == shared_vertex
        new_is_forward = new_edge.src == shared_vertex
        if bound_at_dst and new_is_forward:
            return EdgeAdjacencyType.DST_FW
        if bound_at_dst and not new_is_forward:
            return EdgeAdjacencyType.DST_BW
        if not bound_at_dst and not new_is_forward:
            return EdgeAdjacencyType.SRC_FW
        return EdgeAdjacencyType.SRC_BW

    def _extract_sorted_filter(
        self,
        path: AccessPath,
        residual: Predicate,
        edge_var: str,
        nbr_var: str,
    ) -> Tuple[Optional[SortedRangeFilter], Predicate]:
        """Turn one residual conjunct into a binary-search range filter.

        Possible when the access path's major sort key is the property the
        conjunct compares against a constant, and only when the path addresses
        a most-granular list (a coarser prefix is not globally sorted).
        """
        if not path.sort_keys or not path.covers_all_levels:
            return None, residual
        sort_key = path.sort_keys[0]
        if sort_key.is_neighbour_id:
            target_var, prop = nbr_var, "ID"
        elif sort_key.target == "edge":
            target_var, prop = edge_var, sort_key.prop
        else:
            target_var, prop = nbr_var, sort_key.prop

        for comparison in residual.conjuncts():
            normalized = comparison.normalized()
            if (
                isinstance(normalized.left, PropertyRef)
                and isinstance(normalized.right, Constant)
                and normalized.left.var == target_var
                and normalized.left.prop == prop
                and normalized.op
                in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE, CompareOp.EQ)
            ):
                kind = self._query.variable_kind(target_var)
                value = normalized.right.value
                if isinstance(value, str):
                    value = encode_constant(self.graph, normalized.left, kind, value)
                sorted_filter = SortedRangeFilter(
                    sort_key=sort_key, op=normalized.op, value=float(value)
                )
                return sorted_filter, residual.without([comparison])
        return None, residual

    # -- MULTI-EXTEND -----------------------------------------------------
    def _multi_extend_candidates(self, state: FrozenSet[str], entry: _DPEntry):
        """Extensions that add a group of vertices joined by property equality."""
        query = self._query
        unbound = [v for v in query.vertex_names if v not in state]
        if len(unbound) < 2:
            return

        # Collect cross-variable equality conjuncts on a common vertex property
        # among unbound vertices.
        groups: Dict[str, List[Tuple[str, str]]] = {}
        for comparison in self._conjuncts:
            normalized = comparison.normalized()
            if normalized.op is not CompareOp.EQ or normalized.offset:
                continue
            if not (
                isinstance(normalized.left, PropertyRef)
                and isinstance(normalized.right, PropertyRef)
            ):
                continue
            left, right = normalized.left, normalized.right
            if left.prop != right.prop:
                continue
            if left.var in unbound and right.var in unbound and left.var != right.var:
                if (
                    query.variable_kind(left.var) == "vertex"
                    and query.variable_kind(right.var) == "vertex"
                ):
                    groups.setdefault(left.prop, []).append((left.var, right.var))

        for prop, pairs in groups.items():
            for component in self._equality_components(pairs):
                result = self._build_multi_extend(state, entry, component, prop)
                if result is not None:
                    yield result

    def _equality_components(self, pairs: List[Tuple[str, str]]) -> List[Set[str]]:
        """Connected components of the equality graph over unbound vertices."""
        adjacency: Dict[str, Set[str]] = {}
        for a, b in pairs:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        components: List[Set[str]] = []
        seen: Set[str] = set()
        for start in adjacency:
            if start in seen:
                continue
            component = set()
            frontier = [start]
            while frontier:
                node = frontier.pop()
                if node in component:
                    continue
                component.add(node)
                frontier.extend(adjacency[node] - component)
            seen |= component
            if len(component) >= 2:
                components.append(component)
        return components

    def _build_multi_extend(
        self,
        state: FrozenSet[str],
        entry: _DPEntry,
        group: Set[str],
        prop: str,
    ) -> Optional[Tuple[FrozenSet[str], _DPEntry]]:
        query = self._query
        equality_key = SortKey.nbr_property(prop)

        # No query edges may run between group members (they would be left
        # unmatched by this operator).
        for edge in query.edges.values():
            if edge.src in group and edge.dst in group:
                return None

        applied: Set[int] = set(entry.applied)
        legs: List[ExtensionLeg] = []
        total_list_size = 0.0
        cardinality_product = 1.0

        for member in sorted(group):
            connecting = query.edges_between(set(state), member)
            if len(connecting) != 1:
                return None
            # MULTI-EXTEND joins on the sort property; only access paths whose
            # lists are sorted by it are considered, so the operator is only
            # generated when the indexes are tuned for it.
            leg, leg_applied, leg_size, leg_card = self._build_leg(
                state, member, connecting[0], applied, required_sort=equality_key
            )
            if leg is None:
                return None
            legs.append(leg)
            applied |= leg_applied
            total_list_size += leg_size
            cardinality_product *= leg_card

        # Mark the equality conjuncts inside the group as applied (the join
        # guarantees them).
        group_positions = []
        for position, comparison in enumerate(self._conjuncts):
            if position in applied:
                continue
            normalized = comparison.normalized()
            if (
                normalized.op is CompareOp.EQ
                and isinstance(normalized.left, PropertyRef)
                and isinstance(normalized.right, PropertyRef)
                and normalized.left.prop == prop
                and normalized.right.prop == prop
                and normalized.left.var in group
                and normalized.right.var in group
            ):
                group_positions.append(position)
        applied |= set(group_positions)

        bound_after = set(state) | group
        bound_after |= {
            edge.name
            for edge in query.edges.values()
            if edge.src in bound_after
            and edge.dst in bound_after
            and edge.name in self._tracked_edges
        }
        post_positions = self._conjuncts_within(bound_after, frozenset(applied))
        post_conjuncts = [self._conjuncts[p] for p in post_positions]
        applied |= set(post_positions)

        domain = self._equality_domain(prop)
        new_cardinality = max(
            entry.cardinality
            * cardinality_product
            / (domain ** (len(legs) - 1))
            * self._cost_model.predicate_selectivity(post_conjuncts),
            1e-3,
        )
        cost = entry.cost + entry.cardinality * total_list_size
        operator = MultiExtend(
            legs=legs,
            equality_key=equality_key,
            post_predicate=Predicate(post_conjuncts),
        )
        new_entry = _DPEntry(
            cost=cost,
            cardinality=new_cardinality,
            operators=entry.operators + (operator,),
            applied=frozenset(applied),
        )
        return frozenset(set(state) | group), new_entry

    def _equality_domain(self, prop: str) -> float:
        schema = self.graph.schema
        if schema.has_vertex_property(prop):
            prop_def = schema.vertex_property(prop)
            if prop_def.is_categorical:
                return float(max(prop_def.num_categories, 2))
        return 1.0 / _GENERIC_EQ_SELECTIVITY
