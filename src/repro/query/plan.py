"""Physical query plans.

A :class:`QueryPlan` is a linear pipeline of physical operators: one
:class:`~repro.query.operators.ScanVertices` followed by a sequence of
extend/intersect, multi-extend and filter operators that bind the remaining
query variables.  Plans are produced by the DP optimizer
(:mod:`repro.query.optimizer`) or constructed by hand in tests, and run by the
:class:`~repro.query.executor.PlanRunner`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PlanningError
from .operators import ExtendIntersect, Filter, MultiExtend, PhysicalOperator, ScanVertices
from .pattern import QueryGraph


@dataclass
class QueryPlan:
    """An executable plan together with its cost estimate.

    Attributes:
        query: the query graph the plan answers.
        operators: the operator pipeline; the first operator must be a scan.
        estimated_cost: the optimizer's i-cost estimate (0 for manual plans).
        estimated_cardinality: estimated number of output matches.
        store_snapshot: the index-store generation the plan is bound to
            (set by ``Database.plan``/``Database.run``): the one it was
            planned against, or a later one of the same plan epoch that the
            plan cache rebound it to (:meth:`bind`).  The plan's legs hold
            direct references into this generation's indexes, so executing
            the plan against any *other* generation's graph would mix
            edge/vertex IDs across flush remappings; ``Database.run``
            executes a pinned plan against this snapshot's graph.  ``None``
            for hand-built plans (tests, benchmarks), which are executed
            against whatever graph the caller supplies, and for a plan
            cache's :meth:`template`.

    Pickling
    --------

    Plans are picklable, snapshot included: the operators reference index
    objects, which reference the pinned generation's graph, and pickle
    preserves that sharing inside one payload — the deserialized plan is a
    self-contained copy that still executes against *its own* generation,
    even if the originating store has installed newer ones since.  This is
    how the process morsel backend rehydrates plans in pool workers
    (:mod:`repro.query.backends`).
    """

    query: QueryGraph
    operators: List[PhysicalOperator]
    estimated_cost: float = 0.0
    estimated_cardinality: float = 0.0
    store_snapshot: Optional[object] = field(default=None, repr=False, compare=False)
    #: Cached result of the factorized-suffix analysis (computed lazily; the
    #: optimizer precomputes it so planned queries carry their sink
    #: capability).  Not part of identity/pickling semantics beyond caching.
    _factorized_start: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Cached result of :meth:`merge_points` (same caching contract).
    _merge_points: Optional[Dict[int, Tuple[str, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.operators:
            raise PlanningError("a plan needs at least one operator")
        if not isinstance(self.operators[0], ScanVertices):
            raise PlanningError("the first operator of a plan must be a scan")

    def __hash__(self) -> int:
        """Structural hash, consistent with the dataclass-generated ``__eq__``.

        Built on the query's canonical fingerprint plus the operator
        pipeline's shape and cost estimates — everything ``__eq__`` compares
        hangs off those (``store_snapshot`` carries ``compare=False``, so the
        pinned generation stays out of both).  Plans of structurally
        identical queries hash alike, which is what lets plans live in hash
        containers (result memos, the payload bookkeeping around
        :mod:`repro.server.pools`) instead of being unhashable as the bare
        ``eq=True`` dataclass was.
        """
        return hash(
            (
                self.query.fingerprint(),
                tuple(self.operator_names()),
                self.estimated_cost,
                self.estimated_cardinality,
            )
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pinned_generation(self) -> Optional[int]:
        """Index-store generation this plan is pinned to (None if unpinned).

        Read off ``store_snapshot``; survives pickling, so a plan shipped to
        a process-pool worker still knows which generation its index
        references belong to (the worker rejects task specs stamped with a
        different generation).
        """
        snapshot = self.store_snapshot
        if snapshot is None:
            return None
        state = getattr(snapshot, "state", None)
        return getattr(state, "generation", None)

    def operator_names(self) -> List[str]:
        return [type(op).__name__ for op in self.operators]

    # ------------------------------------------------------------------
    # templates and binding
    # ------------------------------------------------------------------
    def template(self) -> "QueryPlan":
        """This plan as a plan cache keeps it across flushes: every access
        path names its index instead of holding it
        (:meth:`~repro.index.index_store.AccessPath.named`) and no snapshot
        is pinned, so a template holds no generation's graph or indexes."""
        return self._with_paths(lambda path: path.named(), None)

    def bind(self, snapshot) -> "QueryPlan":
        """A :meth:`template`'s operators reading ``snapshot``'s indexes of
        the same names, pinned to ``snapshot``.

        Equal to a fresh ``Optimizer(snapshot).optimize(query)`` when the
        template was planned in ``snapshot``'s plan epoch: planning reads
        nothing that a flush within the epoch changes (see
        :class:`~repro.index.index_store.StoreState`).
        """
        state = snapshot.state
        return self._with_paths(lambda path: path.bound_to(state), snapshot)

    def _with_paths(self, rebind, snapshot) -> "QueryPlan":
        operators = [
            dataclasses.replace(
                operator,
                legs=[
                    dataclasses.replace(leg, access_path=rebind(leg.access_path))
                    for leg in operator.legs
                ],
            )
            if isinstance(operator, (ExtendIntersect, MultiExtend))
            else operator
            for operator in self.operators
        ]
        plan = QueryPlan(
            self.query,
            operators,
            self.estimated_cost,
            self.estimated_cardinality,
            store_snapshot=snapshot,
        )
        plan._factorized_start = self._factorized_start
        return plan

    # ------------------------------------------------------------------
    # sink capability (factorized aggregate pushdown)
    # ------------------------------------------------------------------
    def factorized_suffix_start(self) -> int:
        """Index of the first operator of the factorizable terminal suffix.

        The suffix is the longest run of trailing extension operators whose
        combinations can stay *unexpanded* for aggregate-only sinks: the
        match count is then the per-prefix-row product of the suffix
        operators' cardinalities.  Returns ``len(self.operators)`` when no
        suffix qualifies (the plan is flat-only).

        An operator joins the suffix only when its combinations are
        mutually independent of every later suffix operator given the
        prefix:

        * it is an :class:`~repro.query.operators.ExtendIntersect`
          or :class:`~repro.query.operators.MultiExtend` with a TRUE post
          predicate (a post predicate filters combinations, breaking the
          pure cardinality product);
        * a MULTI-EXTEND's legs bind pairwise-distinct target vertices
          (shared targets need per-combination reconciliation);
        * nothing it produces (targets, tracked edge variables) is *read*
          by a later suffix operator (a leg's
          :meth:`~repro.query.operators.ExtensionLeg.key_vars`) —
          so every suffix operator's inputs come from the flat prefix and
          the per-operator cardinalities are independent given a prefix
          row.
        """
        if self._factorized_start is None:
            self._factorized_start = self._analyze_factorized_suffix()
        return self._factorized_start

    def _analyze_factorized_suffix(self) -> int:
        operators = self.operators
        start = len(operators)
        reads_by_suffix: Set[str] = set()
        for index in range(len(operators) - 1, 0, -1):
            operator = operators[index]
            if not isinstance(operator, (ExtendIntersect, MultiExtend)):
                break
            if not operator.post_predicate.is_true:
                break
            if isinstance(operator, MultiExtend):
                if len(operator.target_vars) != len(operator.legs):
                    break
                produced = set(operator.target_vars)
            else:
                produced = {operator.target_var}
            produced.update(
                leg.edge_var for leg in operator.legs if leg.track_edge
            )
            reads: Set[str] = set()
            for leg in operator.legs:
                reads.update(leg.key_vars())
            # An already-accepted (later) suffix operator consuming this
            # operator's output would make the cardinalities dependent:
            # this operator must stay in the flat prefix, ending the walk.
            if produced & reads_by_suffix:
                break
            reads_by_suffix |= reads
            start = index
        return start

    def merge_points(self) -> Dict[int, Tuple[str, ...]]:
        """Where a count-only pipeline merges a flat stage's output rows.

        Maps the index of a flat operator (before
        :meth:`factorized_suffix_start`) to the bound variables kept after
        it: those a later operator reads — its legs'
        :meth:`~repro.query.operators.ExtensionLeg.key_vars`, its post
        predicate's and a :class:`~repro.query.operators.Filter`'s
        variables.  Rows that agree on them extend to the same matches, so
        the pipeline merges them into one weighted row
        (:func:`~repro.query.operators.merge_rows`).  A stage is a merge
        point only when

        * it drops at least one variable its output batches carry (else
          there is nothing to project away);
        * every kept variable may repeat (:meth:`may_repeat`) — rows
          distinct on one of them never merge;
        * the next operator is a flat stage too — the suffix already does
          its work once per distinct key of each leg, so a merge feeding it
          adds one more grouping and saves nothing (merging before the
          suffix measured SQ6 and MR2 5-10 % slower on ``sq_primary`` /
          ``tuned_secondary``, SQ2 and SQ9 no faster).

        Empty for a plan without a factorizable suffix: only a count-only
        pipeline merges.  A batch is merged only when its kept rows repeat
        (``_SHARE_MIN_REPEAT``, checked per batch).
        """
        if self._merge_points is None:
            self._merge_points = self._analyze_merge_points()
        return self._merge_points

    def _analyze_merge_points(self) -> Dict[int, Tuple[str, ...]]:
        operators = self.operators
        suffix_start = self.factorized_suffix_start()
        if suffix_start >= len(operators):
            return {}
        points: Dict[int, Tuple[str, ...]] = {}
        carried: List[str] = []
        for index, operator in enumerate(operators[: suffix_start - 1]):
            carried.extend(var for var in self._binds(operator) if var not in carried)
            later = operators[index + 1 :]
            if index == 0:
                continue
            read = set().union(*(self._reads(op) for op in later))
            kept = tuple(var for var in carried if var in read)
            if (
                kept
                and len(kept) < len(carried)
                and all(self.may_repeat(var, later[0]) for var in kept)
            ):
                points[index] = kept
                carried = list(kept)
        return points

    @staticmethod
    def _reads(operator: PhysicalOperator) -> Set[str]:
        """The variables ``operator`` reads of the batches it is fed."""
        if isinstance(operator, Filter):
            return set(operator.predicate.variables())
        reads = set(operator.post_predicate.variables())
        for leg in operator.legs:
            reads.update(leg.key_vars())
        return reads

    @staticmethod
    def _binds(operator: PhysicalOperator) -> List[str]:
        """The variables ``operator`` adds to a batch."""
        if isinstance(operator, ScanVertices):
            return [operator.var]
        if isinstance(operator, Filter):
            return []
        targets = (
            operator.target_vars
            if isinstance(operator, MultiExtend)
            else [operator.target_var]
        )
        return list(targets) + [leg.edge_var for leg in operator.legs if leg.track_edge]

    @property
    def supports_factorized_count(self) -> bool:
        """True when an aggregate sink may skip combo expansion on a suffix."""
        return self.factorized_suffix_start() < len(self.operators)

    def may_repeat(self, var: str, operator: PhysicalOperator) -> bool:
        """Whether two rows of the batches ``operator`` reads can agree on ``var``.

        The static half of the count-only suffix's key sharing
        (:meth:`~repro.query.operators.ExtendIntersect.count_factorized`):
        an operator whose key cannot repeat has nothing to share and takes
        the per-row path without probing its batches.  Two facts are
        tracked along the flat stages that feed ``operator`` (every suffix
        operator reads the same prefix, the output of the stages before
        ``factorized_suffix_start()``):

        * a scan emits every vertex once, so the scan variable is
          repeat-free until an extension multiplies the rows;
        * a single-leg extension from a repeat-free *vertex* that tracks its
          edge makes that edge repeat-free — an edge sits in exactly one
          vertex's list of an index, once — and everything else may repeat
          from then on.  (An edge-partitioned leg does not qualify: two
          bound edges into one vertex list the same adjacent edges.)

        Filters and post-predicates only drop rows and change nothing.
        """
        position = next(
            index for index, other in enumerate(self.operators) if other is operator
        )
        repeat_free: Set[str] = set()
        for feeding in self.operators[: min(position, self.factorized_suffix_start())]:
            if isinstance(feeding, ScanVertices):
                repeat_free = {feeding.var}
            elif isinstance(feeding, ExtendIntersect) and len(feeding.legs) == 1:
                leg = feeding.legs[0]
                if (
                    leg.track_edge
                    and leg.bound_var in repeat_free
                    and not leg.access_path.uses_bound_edge
                ):
                    repeat_free = {leg.edge_var}
                else:
                    repeat_free = set()
            elif not isinstance(feeding, Filter):
                repeat_free = set()
        return var not in repeat_free

    def suffix_keys_may_repeat(self, operator: ExtendIntersect) -> bool:
        """The ``keys_may_repeat`` verdict ``operator`` counts under.

        One repeat-free leg is enough to rule sharing out: the rows' key
        tuples are then all distinct, and that leg alone reads as many lists
        as there are rows.
        """
        return all(self.may_repeat(leg.bound_var, operator) for leg in operator.legs)

    def shares_suffix_keys(self) -> bool:
        """True when a count-only suffix operator may work per distinct key."""
        return any(
            isinstance(operator, ExtendIntersect)
            and not (len(operator.legs) == 1 and operator.legs[0].is_unfiltered)
            and self.suffix_keys_may_repeat(operator)
            for operator in self.operators[self.factorized_suffix_start() :]
        )

    def describe(self) -> str:
        lines = [f"Plan for {self.query.name!r} (i-cost≈{self.estimated_cost:,.0f}):"]
        for position, operator in enumerate(self.operators, 1):
            lines.append(f"  {position}. {operator.describe()}")
        suffix_start = self.factorized_suffix_start()
        if suffix_start < len(self.operators):
            sharing = (
                "; suffix counts per distinct key" if self.shares_suffix_keys() else ""
            )
            # Imported here: the pipeline module imports this one.
            from .pipeline import stage_label

            merges = "".join(
                f"; rows merged on ({', '.join(kept)}) after "
                f"{stage_label(index, self.operators[index])}"
                for index, kept in sorted(self.merge_points().items())
            )
            lines.append(
                f"  sink capability: factorized count "
                f"(operators {suffix_start + 1}..{len(self.operators)} stay "
                f"unexpanded for aggregate sinks{sharing}{merges})"
            )
        else:
            lines.append("  sink capability: flat only")
        # Imported here: the executor module imports this one.
        from .executor import describe_execution

        lines.append(f"  execution: {describe_execution(self)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
