"""Graph schema: label dictionaries and property definitions.

A :class:`GraphSchema` records, for vertices and edges separately:

* the label dictionary (label name -> small integer code), and
* the property catalog (property name -> :class:`PropertyDef`).

Labels and categorical properties are dictionary-coded because A+ index
partitioning levels require small integer key domains ("In our implementation
we allow integers or enums that are mapped to small number of integers as
categorical values", Section III-A1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import SchemaError
from .types import PropertyType


@dataclass(frozen=True)
class PropertyDef:
    """Definition of a vertex or edge property column.

    Attributes:
        name: property name as used in queries (e.g. ``"amt"``).
        ptype: the :class:`PropertyType` of the column.
        categories: for ``CATEGORICAL`` columns, the ordered list of category
            names; the integer code of a category is its position in this
            list.  Empty for non-categorical columns.
    """

    name: str
    ptype: PropertyType
    categories: tuple = field(default_factory=tuple)

    @property
    def is_categorical(self) -> bool:
        return self.ptype is PropertyType.CATEGORICAL

    @property
    def num_categories(self) -> int:
        if not self.is_categorical:
            raise SchemaError(f"property {self.name!r} is not categorical")
        return len(self.categories)

    def code_of(self, category: str) -> int:
        """Return the integer code of ``category``.

        Raises:
            SchemaError: if the category is unknown.
        """
        try:
            return self.categories.index(category)
        except ValueError as exc:
            raise SchemaError(
                f"unknown category {category!r} for property {self.name!r}; "
                f"known: {list(self.categories)}"
            ) from exc

    def category_of(self, code: int) -> str:
        """Return the category name for an integer ``code``."""
        if code < 0 or code >= len(self.categories):
            raise SchemaError(
                f"category code {code} out of range for property {self.name!r}"
            )
        return self.categories[code]


class _LabelDictionary:
    """A bidirectional mapping between label names and dense integer codes."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._name_to_code: Dict[str, int] = {}
        self._names: List[str] = []

    def add(self, name: str) -> int:
        """Register ``name`` (idempotent) and return its code."""
        if name in self._name_to_code:
            return self._name_to_code[name]
        code = len(self._names)
        self._name_to_code[name] = code
        self._names.append(name)
        return code

    def code(self, name: str) -> int:
        try:
            return self._name_to_code[name]
        except KeyError as exc:
            raise SchemaError(
                f"unknown {self._kind} label {name!r}; known: {self._names}"
            ) from exc

    def name(self, code: int) -> str:
        if code < 0 or code >= len(self._names):
            raise SchemaError(f"{self._kind} label code {code} out of range")
        return self._names[code]

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_code

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> List[str]:
        return list(self._names)


class GraphSchema:
    """Catalog of labels and properties for a property graph.

    The schema is mutable while the graph is being built and is shared by the
    finalized :class:`~repro.graph.graph.PropertyGraph`.
    """

    def __init__(self) -> None:
        self.vertex_labels = _LabelDictionary("vertex")
        self.edge_labels = _LabelDictionary("edge")
        self._vertex_props: Dict[str, PropertyDef] = {}
        self._edge_props: Dict[str, PropertyDef] = {}

    # ------------------------------------------------------------------
    # label helpers
    # ------------------------------------------------------------------
    def add_vertex_label(self, name: str) -> int:
        """Register a vertex label and return its integer code."""
        return self.vertex_labels.add(name)

    def add_edge_label(self, name: str) -> int:
        """Register an edge label and return its integer code."""
        return self.edge_labels.add(name)

    def vertex_label_code(self, name: str) -> int:
        return self.vertex_labels.code(name)

    def edge_label_code(self, name: str) -> int:
        return self.edge_labels.code(name)

    @property
    def num_vertex_labels(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_edge_labels(self) -> int:
        return len(self.edge_labels)

    # ------------------------------------------------------------------
    # property helpers
    # ------------------------------------------------------------------
    def add_vertex_property(
        self,
        name: str,
        ptype: PropertyType,
        categories: Optional[Iterable[str]] = None,
    ) -> PropertyDef:
        """Register a vertex property column definition."""
        return self._add_property(self._vertex_props, "vertex", name, ptype, categories)

    def add_edge_property(
        self,
        name: str,
        ptype: PropertyType,
        categories: Optional[Iterable[str]] = None,
    ) -> PropertyDef:
        """Register an edge property column definition."""
        return self._add_property(self._edge_props, "edge", name, ptype, categories)

    def _add_property(
        self,
        table: Dict[str, PropertyDef],
        kind: str,
        name: str,
        ptype: PropertyType,
        categories: Optional[Iterable[str]],
    ) -> PropertyDef:
        if name in table:
            existing = table[name]
            if existing.ptype is not ptype:
                raise SchemaError(
                    f"{kind} property {name!r} already registered with type "
                    f"{existing.ptype}, cannot re-register as {ptype}"
                )
            return existing
        cats = tuple(categories) if categories else tuple()
        if ptype is PropertyType.CATEGORICAL and not cats:
            raise SchemaError(
                f"categorical {kind} property {name!r} requires a category list"
            )
        if ptype is not PropertyType.CATEGORICAL and cats:
            raise SchemaError(
                f"{kind} property {name!r} of type {ptype} must not define categories"
            )
        prop = PropertyDef(name=name, ptype=ptype, categories=cats)
        table[name] = prop
        return prop

    def vertex_property(self, name: str) -> PropertyDef:
        try:
            return self._vertex_props[name]
        except KeyError as exc:
            raise SchemaError(f"unknown vertex property {name!r}") from exc

    def edge_property(self, name: str) -> PropertyDef:
        try:
            return self._edge_props[name]
        except KeyError as exc:
            raise SchemaError(f"unknown edge property {name!r}") from exc

    def has_vertex_property(self, name: str) -> bool:
        return name in self._vertex_props

    def has_edge_property(self, name: str) -> bool:
        return name in self._edge_props

    @property
    def edge_property_names(self) -> List[str]:
        return list(self._edge_props)

    def describe(self) -> str:
        """Return a short human-readable description of the schema."""
        lines = ["GraphSchema:"]
        lines.append(f"  vertex labels: {self.vertex_labels.names}")
        lines.append(f"  edge labels:   {self.edge_labels.names}")
        lines.append("  vertex properties:")
        for prop in self._vertex_props.values():
            lines.append(f"    {prop.name}: {prop.ptype.value}")
        lines.append("  edge properties:")
        for prop in self._edge_props.values():
            lines.append(f"    {prop.name}: {prop.ptype.value}")
        return "\n".join(lines)
