"""Columnar property storage for vertices and edges.

Properties are stored as one numpy column per property name.  Integer,
float and categorical columns use numpy arrays (categoricals hold dictionary
codes); string columns use a Python list because they never appear in the
performance-critical paths of the reproduction (they are dictionary-coded to
categorical columns whenever they are used for partitioning or sorting).

Missing values are represented by ``NULL_INT`` for integer columns, ``nan``
for float columns, ``NULL_CATEGORY`` for categorical columns, and ``None`` for
string columns, following the paper's convention that nulls form their own
partition and sort last.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import SchemaError
from .schema import GraphSchema, PropertyDef
from .types import NULL_CATEGORY, NULL_INT, PropertyType, PropertyValue


def raw_dtype_of(prop: PropertyDef):
    """Canonical numpy dtype of a property's raw column (None for strings)."""
    if prop.ptype is PropertyType.INT:
        return np.int64
    if prop.ptype is PropertyType.FLOAT:
        return np.float64
    if prop.ptype is PropertyType.CATEGORICAL:
        return np.int32
    return None


def raw_null_of(prop: PropertyDef):
    """Raw null marker of a property column (None for strings)."""
    if prop.ptype is PropertyType.INT:
        return NULL_INT
    if prop.ptype is PropertyType.FLOAT:
        return np.nan
    if prop.ptype is PropertyType.CATEGORICAL:
        return NULL_CATEGORY
    return None


def encode_raw_column(prop: PropertyDef, values: Sequence, count: int):
    """Code a sequence of user-level values into one raw column chunk.

    Numeric numpy inputs pass through with a dtype cast only; anything else
    (lists with ``None`` holes, categorical names) is coded value-by-value
    with a per-call category cache.  ``values`` of ``None`` yields an
    all-null column of length ``count``.
    """
    dtype = raw_dtype_of(prop)
    if dtype is None:  # STRING columns stay Python lists.
        if values is None:
            return [None] * count
        out = list(values)
        if len(out) != count:
            raise SchemaError(
                f"column chunk has {len(out)} values, expected {count}"
            )
        return out
    null = raw_null_of(prop)
    if values is None:
        return np.full(count, null, dtype=dtype)
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        column = values.astype(dtype, copy=False)
        if len(column) != count:
            raise SchemaError(
                f"column chunk has {len(column)} values, expected {count}"
            )
        return column
    column = np.full(count, null, dtype=dtype)
    if len(values) != count:
        raise SchemaError(f"column chunk has {len(values)} values, expected {count}")
    if prop.ptype is PropertyType.CATEGORICAL:
        codes = {}
        for position, value in enumerate(values):
            if value is None:
                continue
            if isinstance(value, str):
                code = codes.get(value)
                if code is None:
                    code = codes[value] = prop.code_of(value)
                column[position] = code
            else:
                column[position] = int(value)
        return column
    caster = float if prop.ptype is PropertyType.FLOAT else int
    for position, value in enumerate(values):
        if value is not None:
            column[position] = caster(value)
    return column


class PropertyStore:
    """Columnar store for the properties of one element kind (vertex or edge).

    Args:
        schema: the graph schema.
        kind: ``"vertex"`` or ``"edge"``; controls which half of the schema is
            consulted for property definitions.
    """

    def __init__(self, schema: GraphSchema, kind: str) -> None:
        if kind not in ("vertex", "edge"):
            raise SchemaError(f"kind must be 'vertex' or 'edge', got {kind!r}")
        self._schema = schema
        self._kind = kind
        self._columns: Dict[str, object] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # schema access
    # ------------------------------------------------------------------
    def _prop_def(self, name: str) -> PropertyDef:
        if self._kind == "vertex":
            return self._schema.vertex_property(name)
        return self._schema.edge_property(name)

    @property
    def count(self) -> int:
        """Number of elements whose properties are stored."""
        return self._count

    @property
    def property_names(self) -> List[str]:
        return list(self._columns)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def set_count(self, count: int) -> None:
        """Declare the number of elements; resizes existing columns."""
        if count < self._count:
            raise SchemaError("cannot shrink a property store")
        for name in list(self._columns):
            self._columns[name] = self._grow_column(name, self._columns[name], count)
        self._count = count

    def _null_value(self, prop: PropertyDef):
        if prop.ptype is PropertyType.INT:
            return NULL_INT
        if prop.ptype is PropertyType.FLOAT:
            return np.nan
        if prop.ptype is PropertyType.CATEGORICAL:
            return NULL_CATEGORY
        return None

    def _new_column(self, prop: PropertyDef, count: int):
        if prop.ptype is PropertyType.INT:
            return np.full(count, NULL_INT, dtype=np.int64)
        if prop.ptype is PropertyType.FLOAT:
            return np.full(count, np.nan, dtype=np.float64)
        if prop.ptype is PropertyType.CATEGORICAL:
            return np.full(count, NULL_CATEGORY, dtype=np.int32)
        return [None] * count

    def _grow_column(self, name: str, column, count: int):
        prop = self._prop_def(name)
        if isinstance(column, list):
            column.extend([None] * (count - len(column)))
            return column
        if len(column) == count:
            return column
        grown = self._new_column(prop, count)
        grown[: len(column)] = column
        return grown

    def _ensure_column(self, name: str):
        prop = self._prop_def(name)
        if name not in self._columns:
            self._columns[name] = self._new_column(prop, self._count)
        return self._columns[name]

    def set_value(self, element_id: int, name: str, value: PropertyValue) -> None:
        """Set one property value for one element."""
        if element_id < 0 or element_id >= self._count:
            raise SchemaError(
                f"{self._kind} id {element_id} out of range [0, {self._count})"
            )
        prop = self._prop_def(name)
        column = self._ensure_column(name)
        if value is None:
            column[element_id] = self._null_value(prop)
            return
        if prop.ptype is PropertyType.CATEGORICAL:
            if isinstance(value, str):
                value = prop.code_of(value)
            column[element_id] = int(value)
        elif prop.ptype is PropertyType.INT:
            column[element_id] = int(value)
        elif prop.ptype is PropertyType.FLOAT:
            column[element_id] = float(value)
        else:
            column[element_id] = value

    def set_column(self, name: str, values: Sequence) -> None:
        """Set an entire property column at once.

        Categorical columns may be given either as category names (strings)
        or as pre-coded integers.
        """
        prop = self._prop_def(name)
        if len(values) != self._count:
            raise SchemaError(
                f"column {name!r} has {len(values)} values, expected {self._count}"
            )
        if prop.ptype is PropertyType.STRING:
            self._columns[name] = list(values)
            return
        if prop.ptype is PropertyType.CATEGORICAL:
            coded = np.empty(self._count, dtype=np.int32)
            values = list(values)
            if values and isinstance(values[0], str):
                for i, value in enumerate(values):
                    coded[i] = NULL_CATEGORY if value is None else prop.code_of(value)
            else:
                coded[:] = np.asarray(
                    [NULL_CATEGORY if v is None else int(v) for v in values],
                    dtype=np.int32,
                )
            self._columns[name] = coded
            return
        if prop.ptype is PropertyType.INT:
            column = np.asarray(
                [NULL_INT if v is None else int(v) for v in values], dtype=np.int64
            )
        else:
            column = np.asarray(
                [np.nan if v is None else float(v) for v in values], dtype=np.float64
            )
        self._columns[name] = column

    def set_raw_column(self, name: str, column) -> None:
        """Install an already-coded column without per-value conversion.

        The columnar counterpart of :meth:`set_column`: ``column`` must hold
        raw values (dictionary codes for categoricals, null markers for
        missing values) in the property's canonical dtype, as produced by
        :meth:`column` or :func:`encode_raw_column`.  Used by the bulk
        maintenance merge to append delta columns with one concatenation
        instead of decoding and re-coding every value.
        """
        prop = self._prop_def(name)
        dtype = raw_dtype_of(prop)
        if dtype is None:
            if not isinstance(column, list):
                column = list(column)
            if len(column) != self._count:
                raise SchemaError(
                    f"column {name!r} has {len(column)} values, expected {self._count}"
                )
            self._columns[name] = column
            return
        column = np.asarray(column)
        if column.dtype.kind not in "iuf":
            raise SchemaError(
                f"set_raw_column expects a numeric coded column for {name!r}"
            )
        if len(column) != self._count:
            raise SchemaError(
                f"column {name!r} has {len(column)} values, expected {self._count}"
            )
        self._columns[name] = column.astype(dtype, copy=False)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the raw column for ``name`` (codes for categoricals).

        The column is created lazily (filled with nulls) if it was declared in
        the schema but never populated.
        """
        self._prop_def(name)
        return self._ensure_column(name)

    def value(self, element_id: int, name: str) -> PropertyValue:
        """Return the decoded property value for one element."""
        prop = self._prop_def(name)
        column = self._ensure_column(name)
        raw = column[element_id]
        if prop.ptype is PropertyType.CATEGORICAL:
            code = int(raw)
            return None if code == NULL_CATEGORY else prop.category_of(code)
        if prop.ptype is PropertyType.INT:
            raw = int(raw)
            return None if raw == NULL_INT else raw
        if prop.ptype is PropertyType.FLOAT:
            raw = float(raw)
            return None if np.isnan(raw) else raw
        return raw

    def raw_value(self, element_id: int, name: str):
        """Return the raw (coded) value; faster than :meth:`value`."""
        return self._ensure_column(name)[element_id]

    def values_for(self, element_ids: np.ndarray, name: str) -> np.ndarray:
        """Vectorized raw lookup of a property for many elements."""
        column = self.column(name)
        if isinstance(column, list):
            return np.asarray([column[int(i)] for i in element_ids], dtype=object)
        return column[element_ids]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate memory footprint of the stored columns in bytes."""
        total = 0
        for column in self._columns.values():
            if isinstance(column, np.ndarray):
                total += column.nbytes
            else:
                total += sum(len(v) if isinstance(v, str) else 8 for v in column)
        return total
