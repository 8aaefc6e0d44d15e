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

Every scalar number read from an input file goes through one of two
rules, :func:`integer` or :func:`real`: a bool or a string is never a
number, an integer field never truncates, and a real field is finite.
"""

from __future__ import annotations

import numpy as np

INF = float("inf")

# guards residual denominators; avoids 0/0 without distorting any ratio
TINY = 1e-300

# entries per row block of a dense row-wise computation (2 MB of float64)
_BLOCK_ENTRIES = 1 << 18

_NUMBERS = (int, float, np.integer, np.floating)


def integer(value, name: str, least=None) -> int:
    """``value`` as an int: an int or an integral float, numpy scalars
    included, not a bool or a string (``int`` refuses inf and NaN)."""
    if (not isinstance(value, _NUMBERS) or isinstance(value, bool) or int(value) != value
            or (least is not None and value < least)):
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


def real(value, name: str, least=None) -> float:
    """``value`` as a finite float: an int or a float, numpy scalars
    included, not a bool or a string (a wrong type is a TypeError, as for
    ``float``); NaN, +inf and -inf are a ValueError."""
    if not isinstance(value, _NUMBERS) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if least is not None and not value >= least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def ext_power(values, expo: float) -> np.ndarray:
    """Elementwise ``values**expo`` on [0, inf] with the conventions above."""
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(values, expo)


def masked_mul(a, b) -> np.ndarray:
    """Elementwise product where ``0 * inf`` is 0 (integration convention);
    a product without NaN has no ``0 * inf`` and is returned as it is."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        out = a * b
    nan = np.isnan(out)
    if nan.any():
        out = np.where(nan & ~np.isnan(a) & ~np.isnan(b), 0.0, out)
    return out


def weighted_sum(gram, weights) -> np.ndarray:
    """Sum ``gram * weights`` along the last axis with 0*inf masking.

    ``gram`` may contain +inf (singular kernel values) and ``weights`` may
    contain +inf (reweighted measures); a zero on either side kills the term.
    The terms are summed in C order: numpy sums a C-ordered row pairwise,
    as it sums a 1-d array, but a column-major stack term by term, so a
    row of a stack gets the bits of its 1-d sum only in C order.
    """
    contrib = masked_mul(gram, weights)
    with np.errstate(over="ignore"):
        return np.sum(np.ascontiguousarray(contrib), axis=-1)


def row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices covering ``range(n_rows)`` in blocks of about 2**18 entries.

    Dense row-wise work done one block at a time keeps every temporary
    near 2 MB, so a request's memory is its long-lived arrays and does not
    depend on how the allocator placed earlier temporaries.  Each row is
    computed as it would be in one piece, so blocking changes no bit.
    """
    step = max(1, _BLOCK_ENTRIES // max(n_cols, 1))
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def gram_product(gram, v) -> np.ndarray:
    """``weighted_sum(gram, v)`` one block of rows at a time, each summed
    again with the mask only if one of its sums is NaN: a sum is NaN only
    if a term is, and the mask rewrites only NaN terms, so every row has
    ``weighted_sum``'s bits and no temporary is gram-sized.

    ``v`` may be a stack of vectors on leading axes; the products come out
    stacked the same way, and a block's temporary ``(..., rows, n)`` holds
    about 2**18 entries over the whole stack."""
    v = np.ascontiguousarray(v, dtype=float)[..., None, :]
    out = np.empty(v.shape[:-2] + gram.shape[:1])
    for rows in row_blocks(gram.shape[0], v.size):
        with np.errstate(invalid="ignore", over="ignore"):
            sums = np.sum(gram[rows] * v, axis=-1)
        out[..., rows] = weighted_sum(gram[rows], v) if np.isnan(sums).any() else sums
    return out


def sup_abs(values) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))
