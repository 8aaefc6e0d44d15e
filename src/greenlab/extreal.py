"""Extended-real arithmetic helpers.

Potentials and energies live on [0, +inf]; these helpers pin down the
conventions once so every module agrees:

* powers: ``inf**t = inf`` for t > 0, ``1`` for t = 0, ``0`` for t < 0,
  and symmetrically ``0**t = inf`` for t < 0;
* products inside integrals: ``0 * inf = 0`` (a null weight or a null
  kernel value contributes no mass, whatever the other factor is);
* summation: fixed-order pairwise summation (``np.sum``), so results do
  not depend on scheduling or BLAS threading;
* overflow: a power, product or sum past the float range is +inf, the
  extended-real result, and numpy is not asked to warn about it.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")

# guards residual denominators; avoids 0/0 without distorting any ratio
TINY = 1e-300

# entries per row block of a dense row-wise computation (2 MB of float64)
_BLOCK_ENTRIES = 1 << 18


def ext_power(values, expo: float) -> np.ndarray:
    """Elementwise ``values**expo`` on [0, inf] with the conventions above."""
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(values, expo)


def masked_mul(a, b) -> np.ndarray:
    """Elementwise product where ``0 * inf`` is 0 (integration convention)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        out = a * b
    bad = np.isnan(out) & (np.isnan(a) == False) & (np.isnan(b) == False)  # noqa: E712
    if bad.any():
        out = np.where(bad, 0.0, out)
    return out


def weighted_sum(gram, weights) -> np.ndarray:
    """Sum ``gram * weights`` along the last axis with 0*inf masking.

    ``gram`` may contain +inf (singular kernel values) and ``weights`` may
    contain +inf (reweighted measures); a zero on either side kills the term.
    """
    contrib = masked_mul(gram, weights)
    with np.errstate(over="ignore"):
        return np.sum(contrib, axis=-1)


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices covering ``range(n_rows)`` in blocks of about 2**18 entries.

    Dense row-wise work done one block at a time keeps every temporary
    near 2 MB, so a request's memory is its long-lived arrays and does not
    depend on how the allocator placed earlier temporaries.  Each row is
    computed as it would be in one piece, so blocking changes no bit.
    """
    step = max(1, _BLOCK_ENTRIES // max(n_cols, 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def finite_row_sums(gram, v) -> np.ndarray:
    """``np.sum(gram * v, axis=-1)`` one block of rows at a time.

    For finite operands only: with no 0 * inf term the mask of
    ``weighted_sum`` cannot act, so this gives its bits.
    """
    with np.errstate(over="ignore"):
        if gram.size <= _BLOCK_ENTRIES:
            return np.sum(gram * v, axis=-1)
        out = np.empty(gram.shape[0])
        for rows in row_blocks(*gram.shape):
            out[rows] = np.sum(gram[rows] * v, axis=-1)
    return out


def sup_abs(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))
