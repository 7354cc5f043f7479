"""Partial-match batches flowing between physical operators.

A :class:`MatchBatch` is a column-oriented set of partial matches: one numpy
int64 column per bound query variable (vertex or edge), all of equal length.
Operators consume and produce batches; representing matches columnar keeps the
per-tuple Python overhead of the interpreter-based executor manageable and
allows predicates to be evaluated vectorized.

A batch may carry int64 ``weights``: row ``i`` then stands for
``weights[i]`` equal partial matches.  Only a count-only pipeline builds such
batches — it merges a flat stage's output on the variables later operators
read (:func:`repro.query.operators.merge_rows`) — and every transformation
here carries the weights along, so :meth:`MatchBatch.match_count` stays the
number of partial matches the flat pipeline would hold.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from ..errors import ExecutionError

#: Default number of partial matches per batch.
DEFAULT_BATCH_SIZE = 1024


class MatchBatch:
    """A column-oriented batch of partial matches.

    ``weights`` (optional, int64, one per row) is how many partial matches
    each row stands for; ``None`` means one each.
    """

    def __init__(
        self, columns: Dict[str, np.ndarray], weights: Optional[np.ndarray] = None
    ) -> None:
        lengths = {len(col) for col in columns.values()}
        if weights is not None:
            lengths.add(len(weights))
        if len(lengths) > 1:
            raise ExecutionError(f"ragged match batch: column lengths {lengths}")
        self._columns = {
            name: np.asarray(col, dtype=np.int64) for name, col in columns.items()
        }
        self.weights = None if weights is None else np.asarray(weights, dtype=np.int64)
        self._length = lengths.pop() if lengths else 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, variables: Iterable[str]) -> "MatchBatch":
        return cls({name: np.empty(0, dtype=np.int64) for name in variables})

    @classmethod
    def single_column(cls, name: str, values: np.ndarray) -> "MatchBatch":
        return cls({name: np.asarray(values, dtype=np.int64)})

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def match_count(self) -> int:
        """Matches this batch contributes — ``len`` for an unweighted batch,
        the sum of the weights otherwise.

        Mirrors :meth:`repro.query.factorized.FactorizedBatch.match_count`
        so count sinks can treat both stream shapes uniformly.
        """
        if self.weights is None:
            return self._length
        return int(self.weights.sum())

    @property
    def variables(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError as exc:
            raise ExecutionError(f"variable {name!r} is not bound in this batch") from exc

    def row(self, index: int) -> Dict[str, int]:
        """Return one partial match as a plain dict (used by tests/debugging)."""
        return {name: int(col[index]) for name, col in self._columns.items()}

    def iter_rows(self) -> Iterator[Dict[str, int]]:
        for index in range(self._length):
            yield self.row(index)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def select(self, mask: np.ndarray) -> "MatchBatch":
        """Keep only the rows where ``mask`` is True."""
        return MatchBatch(
            {name: col[mask] for name, col in self._columns.items()},
            None if self.weights is None else self.weights[mask],
        )

    def repeat(self, counts: np.ndarray) -> "MatchBatch":
        """Repeat row ``i`` ``counts[i]`` times (the extend/explode step)."""
        return MatchBatch(
            {name: np.repeat(col, counts) for name, col in self._columns.items()},
            None if self.weights is None else np.repeat(self.weights, counts),
        )

    def with_columns(self, new_columns: Mapping[str, np.ndarray]) -> "MatchBatch":
        """Return a batch with additional bound variables."""
        merged = dict(self._columns)
        for name, col in new_columns.items():
            if name in merged:
                raise ExecutionError(f"variable {name!r} is already bound")
            merged[name] = np.asarray(col, dtype=np.int64)
        return MatchBatch(merged, self.weights)

    def concat(self, other: "MatchBatch") -> "MatchBatch":
        if set(self._columns) != set(other._columns):
            raise ExecutionError("cannot concatenate batches with different variables")
        weights = None
        if self.weights is not None or other.weights is not None:
            weights = np.concatenate([self._weights_or_ones(), other._weights_or_ones()])
        return MatchBatch(
            {
                name: np.concatenate([col, other._columns[name]])
                for name, col in self._columns.items()
            },
            weights,
        )

    def _weights_or_ones(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self._length, dtype=np.int64)
        return self.weights

    def split(self, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator["MatchBatch"]:
        """Yield consecutive sub-batches of at most ``batch_size`` rows."""
        if self._length <= batch_size:
            yield self
            return
        for start in range(0, self._length, batch_size):
            stop = start + batch_size
            yield MatchBatch(
                {name: col[start:stop] for name, col in self._columns.items()},
                None if self.weights is None else self.weights[start:stop],
            )

    def to_dicts(self) -> List[Dict[str, int]]:
        return list(self.iter_rows())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchBatch(vars={self.variables}, rows={self._length})"


def concat_batches(batches: List[MatchBatch]) -> Optional[MatchBatch]:
    """Concatenate a list of batches (None for an empty list)."""
    if not batches:
        return None
    result = batches[0]
    for batch in batches[1:]:
        result = result.concat(batch)
    return result
