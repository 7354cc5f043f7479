"""Predicate AST: comparisons, conjunctions, evaluation, and subsumption.

Predicates appear in three places in the reproduction:

* in **query patterns** (WHERE clauses of the workload queries),
* in **1-hop / 2-hop view definitions** of secondary A+ indexes, and
* in the **INDEX STORE**'s matching logic, which checks whether the predicate
  an index materializes *subsumes* the predicate a query needs
  (Section IV-A: conjunctive-component subsumption and range subsumption).

A predicate is a conjunction of comparisons.  Each comparison compares a
property reference (``var.prop``) against either a constant or another
property reference; cross-variable comparisons (``a2.city = a4.city``,
``e1.date < e2.date``) are what drive MULTI-EXTEND plans and edge-partitioned
indexes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from .errors import QueryParseError
from .graph.graph import PropertyGraph
from .graph.types import NULL_CATEGORY, NULL_INT, PropertyType


class CompareOp(enum.Enum):
    """Comparison operators supported in predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def flipped(self) -> "CompareOp":
        """Operator with operands swapped (a < b  <=>  b > a)."""
        mapping = {
            CompareOp.EQ: CompareOp.EQ,
            CompareOp.NE: CompareOp.NE,
            CompareOp.LT: CompareOp.GT,
            CompareOp.LE: CompareOp.GE,
            CompareOp.GT: CompareOp.LT,
            CompareOp.GE: CompareOp.LE,
        }
        return mapping[self]

    def apply(self, left, right) -> bool:
        if left is None or right is None:
            return False
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if self is CompareOp.LT:
            return left < right
        if self is CompareOp.LE:
            return left <= right
        if self is CompareOp.GT:
            return left > right
        return left >= right

    def apply_bulk(self, left: np.ndarray, right) -> np.ndarray:
        if self is CompareOp.EQ:
            return left == right
        if self is CompareOp.NE:
            return left != right
        if self is CompareOp.LT:
            return left < right
        if self is CompareOp.LE:
            return left <= right
        if self is CompareOp.GT:
            return left > right
        return left >= right


# ----------------------------------------------------------------------
# operands
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertyRef:
    """A reference to a property of a query/view variable.

    ``prop`` may be a declared property name, ``"label"`` (the label code), or
    ``"ID"`` (the element's own ID).
    """

    var: str
    prop: str

    def renamed(self, mapping: Mapping[str, str]) -> "PropertyRef":
        return PropertyRef(mapping.get(self.var, self.var), self.prop)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.var}.{self.prop}"


@dataclass(frozen=True)
class Constant:
    """A literal constant operand."""

    value: Union[int, float, str]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


Operand = Union[PropertyRef, Constant]

#: A raw-column provider for one bulk-evaluation variable: called with a
#: property name, returns the coded value column for the variable's rows, or
#: ``None`` to defer to the graph's own columns.
ColumnProvider = Callable[[str], Optional[np.ndarray]]


def _raw_scalar(
    graph: PropertyGraph, kind: str, element_id: int, prop: str
) -> Optional[Union[int, float, str]]:
    """Raw (coded) property value of one element; None when null."""
    if prop == "ID":
        return element_id
    if prop == "label":
        if kind == "vertex":
            return int(graph.vertex_labels[element_id])
        return int(graph.edge_labels[element_id])
    store = graph.vertex_props if kind == "vertex" else graph.edge_props
    value = store.raw_value(element_id, prop)
    if value is None or isinstance(value, str):  # a string column
        return value
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    value = int(value)
    if value == NULL_INT or value == NULL_CATEGORY and _is_categorical(graph, kind, prop):
        return None
    return value


def _is_categorical(graph: PropertyGraph, kind: str, prop: str) -> bool:
    schema = graph.schema
    if prop in ("ID", "label"):
        return False
    if kind == "vertex":
        return (
            schema.has_vertex_property(prop)
            and schema.vertex_property(prop).ptype is PropertyType.CATEGORICAL
        )
    return (
        schema.has_edge_property(prop)
        and schema.edge_property(prop).ptype is PropertyType.CATEGORICAL
    )


def raw_column(
    graph: PropertyGraph, kind: str, element_ids: np.ndarray, prop: str
) -> np.ndarray:
    """Vectorized raw property values for many elements."""
    if prop == "ID":
        return np.asarray(element_ids, dtype=np.int64)
    if prop == "label":
        labels = graph.vertex_labels if kind == "vertex" else graph.edge_labels
        return labels[element_ids].astype(np.int64)
    store = graph.vertex_props if kind == "vertex" else graph.edge_props
    return np.asarray(store.values_for(np.asarray(element_ids), prop))


def encode_constant(
    graph: PropertyGraph, ref: PropertyRef, kind: str, value
) -> Union[int, float]:
    """Encode a query-level constant for comparison against raw column values.

    Label names and categorical strings are mapped to their integer codes so
    that comparisons operate on the coded columns.
    """
    if not isinstance(value, str):
        return value
    if ref.prop == "label":
        if kind == "vertex":
            return graph.schema.vertex_label_code(value)
        return graph.schema.edge_label_code(value)
    schema = graph.schema
    if kind == "vertex" and schema.has_vertex_property(ref.prop):
        prop = schema.vertex_property(ref.prop)
    elif kind == "edge" and schema.has_edge_property(ref.prop):
        prop = schema.edge_property(ref.prop)
    else:
        raise QueryParseError(f"unknown property {ref.prop!r} on {kind} {ref.var!r}")
    if prop.ptype is PropertyType.CATEGORICAL:
        return prop.code_of(value)
    return value


# ----------------------------------------------------------------------
# comparisons and conjunctions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """A single comparison between two operands.

    ``offset`` supports the paper's fraud predicates of the form
    ``ei.amt < ej.amt + alpha``: it is added to the *right* operand's value
    before comparing and is only meaningful when the right operand is a
    :class:`PropertyRef`.
    """

    left: Operand
    op: CompareOp
    right: Operand
    offset: float = 0.0

    # -- structure ------------------------------------------------------
    def variables(self) -> Set[str]:
        names = set()
        if isinstance(self.left, PropertyRef):
            names.add(self.left.var)
        if isinstance(self.right, PropertyRef):
            names.add(self.right.var)
        return names

    def renamed(self, mapping: Mapping[str, str]) -> "Comparison":
        left = self.left.renamed(mapping) if isinstance(self.left, PropertyRef) else self.left
        right = (
            self.right.renamed(mapping) if isinstance(self.right, PropertyRef) else self.right
        )
        return Comparison(left, self.op, right, self.offset)

    def normalized(self) -> "Comparison":
        """Canonical form used for equality and subsumption checks.

        * constant-vs-reference comparisons put the reference on the left;
        * cross-variable comparisons order the two references lexicographically
          (flipping the operator and negating the offset), so that logically
          identical predicates written in either direction — e.g.
          ``eadj.amt < eb.amt`` and ``eb.amt > eadj.amt`` — compare equal.
        """
        if (
            isinstance(self.left, Constant)
            and isinstance(self.right, PropertyRef)
            and self.offset == 0.0
        ):
            return Comparison(self.right, self.op.flipped, self.left)
        if (
            isinstance(self.left, PropertyRef)
            and isinstance(self.right, PropertyRef)
            and (self.right.var, self.right.prop) < (self.left.var, self.left.prop)
        ):
            return Comparison(self.right, self.op.flipped, self.left, -self.offset)
        return self

    def shifted(self, right):
        """What the left operand is compared against: the right operand's
        value(s) plus ``offset``.  Scalar and bulk evaluation and the
        edge-partitioned build's range probes all compute it here."""
        if self.offset and isinstance(self.right, PropertyRef) and right is not None:
            return right + self.offset
        return right

    @property
    def is_cross_variable(self) -> bool:
        """True when the comparison references two different variables."""
        return (
            isinstance(self.left, PropertyRef)
            and isinstance(self.right, PropertyRef)
            and self.left.var != self.right.var
        )

    @property
    def is_constant_comparison(self) -> bool:
        """True when exactly one side is a constant."""
        return isinstance(self.left, PropertyRef) and isinstance(self.right, Constant)

    # -- evaluation ------------------------------------------------------
    def _operand_value(
        self,
        operand: Operand,
        graph: PropertyGraph,
        binding: Mapping[str, Tuple[str, int]],
        reference: Optional[PropertyRef] = None,
    ):
        if isinstance(operand, Constant):
            if reference is not None and isinstance(operand.value, str):
                kind = binding[reference.var][0]
                return encode_constant(graph, reference, kind, operand.value)
            return operand.value
        kind, element_id = binding[operand.var]
        return _raw_scalar(graph, kind, element_id, operand.prop)

    def evaluate(
        self, graph: PropertyGraph, binding: Mapping[str, Tuple[str, int]]
    ) -> bool:
        """Evaluate against a full binding of every referenced variable.

        ``binding`` maps variable name to ``(kind, element_id)`` where kind is
        ``"vertex"`` or ``"edge"``.  Comparisons involving nulls are False.
        """
        comp = self.normalized()
        reference = comp.left if isinstance(comp.left, PropertyRef) else None
        left = comp._operand_value(comp.left, graph, binding, None)
        right = comp.shifted(comp._operand_value(comp.right, graph, binding, reference))
        return comp.op.apply(left, right)

    def evaluate_bulk(
        self,
        graph: PropertyGraph,
        fixed: Mapping[str, Tuple[str, int]],
        arrays: Mapping[str, Tuple[str, np.ndarray]],
        overrides: Optional[Mapping[str, "ColumnProvider"]] = None,
    ) -> np.ndarray:
        """Vectorized evaluation.

        Variables in ``arrays`` range over aligned arrays of element IDs (all
        the same length); variables in ``fixed`` are scalar bindings.  Returns
        a boolean mask of the common array length.

        ``overrides`` optionally maps a variable name to a *column provider*,
        a callable ``prop -> Optional[ndarray]`` returning the raw (coded)
        value column of that property for the variable's rows, or ``None`` to
        fall back to the graph columns.  This is how not-yet-materialized
        elements (e.g. the pending edges of a columnar maintenance buffer)
        are evaluated once per batch: the provider serves the buffered
        columns while the other variables keep reading the graph.
        """
        comp = self.normalized()
        length = len(next(iter(arrays.values()))[1]) if arrays else 1

        def operand_values(operand: Operand, reference: Optional[PropertyRef]):
            if isinstance(operand, Constant):
                value = operand.value
                if reference is not None and isinstance(value, str):
                    if reference.var in arrays:
                        kind = arrays[reference.var][0]
                    else:
                        kind = fixed[reference.var][0]
                    value = encode_constant(graph, reference, kind, value)
                return value, True
            if overrides is not None and operand.var in overrides:
                column = overrides[operand.var](operand.prop)
                if column is not None:
                    return np.asarray(column), False
            if operand.var in arrays:
                kind, ids = arrays[operand.var]
                return raw_column(graph, kind, ids, operand.prop), False
            kind, element_id = fixed[operand.var]
            return _raw_scalar(graph, kind, element_id, operand.prop), True

        reference = comp.left if isinstance(comp.left, PropertyRef) else None
        left, left_scalar = operand_values(comp.left, None)
        right, right_scalar = operand_values(comp.right, reference)
        left_raw, right_raw = left, right
        right = comp.shifted(right)

        if left_scalar and right_scalar:
            result = comp.op.apply(left, right)
            return np.full(length, result, dtype=bool)
        if left_scalar:
            if left is None:
                return np.zeros(length, dtype=bool)
            left = np.full(length, left)
            left_raw = left
        if right_scalar:
            if right is None:
                return np.zeros(length, dtype=bool)
            right = np.full(length, right)
            right_raw = right
        # Null handling: raw null codes never satisfy a comparison.
        mask = np.ones(length, dtype=bool)
        for side, side_ref in ((left_raw, comp.left), (right_raw, comp.right)):
            if isinstance(side_ref, PropertyRef):
                side_arr = np.asarray(side)
                kind = side_arr.dtype.kind
                if kind == "O":  # a string column, where None is null
                    mask &= side_arr != None  # noqa: E711 - elementwise
                elif kind == "f":
                    mask &= ~np.isnan(side_arr)
                elif kind in "iu":
                    mask &= side_arr != NULL_INT
                    if _is_categorical(
                        graph,
                        arrays.get(side_ref.var, fixed.get(side_ref.var, ("vertex", 0)))[0],
                        side_ref.prop,
                    ):
                        mask &= side_arr != NULL_CATEGORY
        left, right = np.asarray(left), np.asarray(right)
        if left.dtype.kind == "O" or right.dtype.kind == "O":
            # Python objects are compared only where neither side is null:
            # ``None < "x"`` raises.
            mask[mask] = comp.op.apply_bulk(left[mask], right[mask])
            return mask
        mask &= comp.op.apply_bulk(left, right)
        return mask

    def describe(self) -> str:
        offset = ""
        if self.offset:
            sign = "+" if self.offset > 0 else "-"
            offset = f" {sign} {abs(self.offset):g}"
        return f"{self.left} {self.op.value} {self.right}{offset}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


class Predicate:
    """A conjunction of :class:`Comparison` terms (possibly empty = TRUE)."""

    def __init__(self, comparisons: Iterable[Comparison] = ()) -> None:
        self._comparisons: List[Comparison] = list(comparisons)

    # -- constructors ----------------------------------------------------
    @classmethod
    def true(cls) -> "Predicate":
        return cls(())

    @classmethod
    def of(cls, *comparisons: Comparison) -> "Predicate":
        return cls(comparisons)

    def and_also(self, other: "Predicate") -> "Predicate":
        return Predicate(self._comparisons + other.conjuncts())

    # -- structure -------------------------------------------------------
    def conjuncts(self) -> List[Comparison]:
        return list(self._comparisons)

    @property
    def is_true(self) -> bool:
        return not self._comparisons

    def variables(self) -> Set[str]:
        names: Set[str] = set()
        for comparison in self._comparisons:
            names |= comparison.variables()
        return names

    def renamed(self, mapping: Mapping[str, str]) -> "Predicate":
        return Predicate(c.renamed(mapping) for c in self._comparisons)

    def restricted_to(self, variables: Set[str]) -> "Predicate":
        """Conjuncts that reference only the given variables."""
        return Predicate(
            c for c in self._comparisons if c.variables() <= set(variables)
        )

    def without(self, comparisons: Sequence[Comparison]) -> "Predicate":
        removed = list(comparisons)
        remaining = []
        for comparison in self._comparisons:
            if comparison in removed:
                removed.remove(comparison)
            else:
                remaining.append(comparison)
        return Predicate(remaining)

    # -- evaluation ------------------------------------------------------
    def evaluate(
        self, graph: PropertyGraph, binding: Mapping[str, Tuple[str, int]]
    ) -> bool:
        return all(c.evaluate(graph, binding) for c in self._comparisons)

    def evaluate_bulk(
        self,
        graph: PropertyGraph,
        fixed: Mapping[str, Tuple[str, int]],
        arrays: Mapping[str, Tuple[str, np.ndarray]],
        overrides: Optional[Mapping[str, ColumnProvider]] = None,
    ) -> np.ndarray:
        if not arrays:
            raise QueryParseError("evaluate_bulk requires at least one array variable")
        length = len(next(iter(arrays.values()))[1])
        mask = np.ones(length, dtype=bool)
        for comparison in self._comparisons:
            if not mask.any():
                break
            mask &= comparison.evaluate_bulk(graph, fixed, arrays, overrides)
        return mask

    def describe(self) -> str:
        if not self._comparisons:
            return "TRUE"
        return " AND ".join(c.describe() for c in self._comparisons)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()

    def __eq__(self, other) -> bool:
        return isinstance(other, Predicate) and self._comparisons == other._comparisons

    def __hash__(self) -> int:
        return hash(tuple(self._comparisons))


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def prop(var: str, name: str) -> PropertyRef:
    """Shorthand for :class:`PropertyRef`."""
    return PropertyRef(var, name)


def const(value) -> Constant:
    """Shorthand for :class:`Constant`."""
    return Constant(value)


def cmp(left: Operand, op: str, right, offset: float = 0.0) -> Comparison:
    """Build a comparison from an operator string (e.g. ``cmp(p, "<", 5)``).

    ``offset`` is added to the right operand before comparing (only meaningful
    when the right operand is a property reference), supporting predicates
    like ``e1.amt < e2.amt + alpha``.
    """
    if not isinstance(right, (PropertyRef, Constant)):
        right = Constant(right)
    op_map = {
        "=": CompareOp.EQ,
        "==": CompareOp.EQ,
        "<>": CompareOp.NE,
        "!=": CompareOp.NE,
        "<": CompareOp.LT,
        "<=": CompareOp.LE,
        ">": CompareOp.GT,
        ">=": CompareOp.GE,
    }
    if op not in op_map:
        raise QueryParseError(f"unknown comparison operator {op!r}")
    return Comparison(left, op_map[op], right, offset)


# ----------------------------------------------------------------------
# subsumption (Section IV-A)
# ----------------------------------------------------------------------
def comparison_subsumes(index_comp: Comparison, query_comp: Comparison) -> bool:
    """True if every tuple satisfying ``query_comp`` also satisfies ``index_comp``.

    Two forms are recognized, mirroring the paper's implementation:

    * **exact match** of the (normalized) comparisons, and
    * **range subsumption**: both compare the same property reference against
      a constant with range operators, and the index range is no tighter than
      the query range (e.g. index ``amt > 10000`` subsumes query
      ``amt > 15000``).
    """
    index_comp = index_comp.normalized()
    query_comp = query_comp.normalized()
    if index_comp == query_comp:
        return True
    if not (
        isinstance(index_comp.left, PropertyRef)
        and isinstance(query_comp.left, PropertyRef)
        and index_comp.left == query_comp.left
        and isinstance(index_comp.right, Constant)
        and isinstance(query_comp.right, Constant)
    ):
        return False
    index_value = index_comp.right.value
    query_value = query_comp.right.value
    if isinstance(index_value, str) or isinstance(query_value, str):
        # Categorical equality only subsumes on exact match (handled above).
        return False
    greater_ops = (CompareOp.GT, CompareOp.GE)
    less_ops = (CompareOp.LT, CompareOp.LE)
    if index_comp.op in greater_ops:
        if query_comp.op in greater_ops:
            if query_value > index_value:
                return True
            if query_value == index_value:
                return not (
                    index_comp.op is CompareOp.GT and query_comp.op is CompareOp.GE
                )
            return False
        if query_comp.op is CompareOp.EQ:
            return index_comp.op.apply(query_value, index_value)
        return False
    if index_comp.op in less_ops:
        if query_comp.op in less_ops:
            if query_value < index_value:
                return True
            if query_value == index_value:
                return not (
                    index_comp.op is CompareOp.LT and query_comp.op is CompareOp.LE
                )
            return False
        if query_comp.op is CompareOp.EQ:
            return index_comp.op.apply(query_value, index_value)
        return False
    return False


def predicate_subsumes(index_pred: Predicate, query_pred: Predicate) -> bool:
    """True if the index's predicate is implied by the query's predicate.

    Every conjunct of the index predicate must be subsumed by some conjunct of
    the query predicate; otherwise the index might be missing edges the query
    needs and cannot be used as an access path.
    """
    query_conjuncts = query_pred.conjuncts()
    return all(
        any(comparison_subsumes(ic, qc) for qc in query_conjuncts)
        for ic in index_pred.conjuncts()
    )


def residual_conjuncts(
    index_pred: Predicate, query_pred: Predicate
) -> List[Comparison]:
    """Query conjuncts that are not *exactly* guaranteed by the index lists.

    These must still be evaluated by a FILTER (or during the extension) even
    when the index is usable: e.g. an index on ``amt > 10000`` used for a
    query with ``amt > 15000`` leaves the ``amt > 15000`` check as residual.
    """
    index_conjuncts = [c.normalized() for c in index_pred.conjuncts()]
    residual = []
    for query_comp in query_pred.conjuncts():
        if query_comp.normalized() not in index_conjuncts:
            residual.append(query_comp)
    return residual
