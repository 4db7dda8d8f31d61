"""Request validation shared by the batcher and the engine.

The checks are split by cost, so the per-request path stays O(1):

* shape and dtype (:func:`require_integer_ids`) read only array metadata
  and run on every :meth:`~repro.serve.batcher.Batcher.submit`;
* the id range (:func:`out_of_range_rows`) reads every id, so it runs once
  over a stacked ``(B, L)`` batch — per flush in the batcher, per call in
  :meth:`~repro.serve.engine.InferenceEngine.validate_ids`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["InvalidRequest", "out_of_range_rows", "range_message", "require_integer_ids"]

_NO_ROWS = np.empty(0, dtype=np.intp)


class InvalidRequest(ValueError):
    """A request the serving plane refuses: a non-integer id dtype, or,
    for a queued request, an id outside ``[0, vocab_size)``."""


def require_integer_ids(ids: np.ndarray) -> None:
    """Raise :class:`InvalidRequest` unless ``ids`` holds integers.

    Floats, bools and objects are refused: they would index the tables
    (or fail to) with something other than the id the caller meant.
    """
    if ids.dtype.kind not in "iu":
        raise InvalidRequest(f"request ids must be integers, got dtype {ids.dtype}")


def out_of_range_rows(ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Indices of the rows of a 2-D id batch that hold an id outside
    ``[0, vocab_size)`` — empty when every row is in range.

    One min/max over the whole batch settles the common all-valid case;
    the per-row reductions run only when some id is out of range.
    """
    if not ids.size or (ids.min() >= 0 and ids.max() < vocab_size):
        return _NO_ROWS
    return np.flatnonzero((ids.min(axis=1) < 0) | (ids.max(axis=1) >= vocab_size))


def range_message(ids: np.ndarray, vocab_size: int) -> str:
    """The error text for ids found out of range."""
    return f"ids out of range [0, {vocab_size}): [{ids.min()}, {ids.max()}]"
