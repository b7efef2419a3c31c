"""Sparse linear-algebra helpers used by the SLIDE hot paths.

These helpers are intentionally tiny wrappers around NumPy fancy indexing;
the important property is that their cost is proportional to the number of
*active* indices, never to the full layer width.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray

__all__ = [
    "block_index",
    "gather_block",
    "normalize_rows",
    "random_sparse_matrix",
]


def block_index(
    shape: tuple[int, ...], rows: IntArray, cols: IntArray | None
) -> tuple:
    """Fancy index selecting the ``rows x cols`` block of an array of ``shape``.

    ``cols=None`` selects whole rows (one-dimensional parameters such as
    biases).  When one side of a 2-D block spans its whole axis (exactly
    ``arange(n)``, not merely ``n`` ids) the index is single-axis:
    ``(rows,)`` or ``(slice(None), cols)``, which NumPy gathers and
    scatters faster than the two-array ``np.ix_`` form used for every
    other block.  The index always holds an integer array, so a
    gather through it is a copy that callers may update in place.
    """
    if cols is None or _is_full_axis(cols, shape[1]):
        return (rows,)
    if _is_full_axis(rows, shape[0]):
        return (slice(None), cols)
    return np.ix_(rows, cols)


def gather_block(array: FloatArray, index: tuple) -> FloatArray:
    """C-ordered copy of the block a :func:`block_index` index selects.

    ``array[:, cols]`` comes back Fortran-ordered.  BLAS sums a product
    over such a block in a different order (so results would no longer be
    bitwise those of the ``np.ix_`` gather), and element-wise arithmetic
    mixing it with C-ordered operands is several times slower; ``np.take``
    gathers the columns into a C-ordered copy instead.  Scatter back with
    plain assignment, ``array[index] = block``.
    """
    if isinstance(index[0], slice):
        return np.take(array, index[1], axis=1)
    return array[index]


def _is_full_axis(ids: IntArray, n: int) -> bool:
    return ids.size == n and np.array_equal(ids, np.arange(n))


def normalize_rows(matrix: FloatArray, epsilon: float = 1e-12) -> FloatArray:
    """Return a copy of ``matrix`` with each row scaled to unit L2 norm."""
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, epsilon)


def random_sparse_matrix(
    rows: int,
    cols: int,
    density: float,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> FloatArray:
    """Generate a dense matrix whose entries are zero with prob ``1-density``.

    Used by tests and the synthetic dataset generator; small enough sizes that
    a dense representation is fine.
    """
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    values = rng.normal(scale=scale, size=(rows, cols))
    mask = rng.random((rows, cols)) < density
    return values * mask
