"""Green operators f -> G(f d omega), and through them the potentials
G omega and iterated potentials G((G omega)^(s-1) d omega).

Atomic sources are exact weighted sums.  Grid sources use the midpoint
rule; the interval kernel is bounded on (0,1)^2 so no diagonal correction
is needed there, while a Riesz kernel on a grid gets its singular cell
(target inside the source cell) integrated by 16-fold local subdivision.

``green_operator`` forms the weighted density v = w f (0 * inf = 0) and
hands it to one of three operator paths, picked from its inputs with no
option or size threshold.  Each path also takes a stack of densities
(sites on the last axis) and gives every row the bits of its own 1-d
apply:

* interval prefix sums -- the interval kernel, any source and targets.
  G(x, y) = min(x,y)(1 - max(x,y)) is semiseparable, so
  G omega(t) = (1-t) sum_{s<=t} s v + t sum_{s>t} (1-s) v comes from two
  sequential prefix sums (``np.cumsum``) over the sorted sources:
  O(N log N) set-up, O(N) per apply, no gram.
* Riesz-grid FFT -- a dim-1 Riesz kernel, a grid source and targets equal
  to the grid's midpoints (the solver workspace and every check on one
  grid).  The quadrature is then Toeplitz in the integer cell offset
  |i - j|: one column (``lattice_column``), embedded in a circulant and
  applied by ``np.fft.rfft``/``irfft`` in O(N log N), no gram.  The
  column is positive and finite, so a non-finite weighted density gives
  its sum (+inf or NaN) at every target, as the masked product would.
* gram product -- every other matrix or Riesz case: the quadrature gram,
  built once, times the density in blocks of rows (``gram_product``), so
  no temporary is gram-sized, whether or not a factor holds +inf.

The masked product in one piece (``weighted_sum`` against
``quadrature_gram``) is the reference every path is tested against: the
gram product gives its bits, and the prefix-sum and FFT paths agree with
it to about 1e-12 relative, not bit for bit.  Everything here
is a pure function of its inputs and every sum has a fixed order (numpy's
FFT starts no threads), so results repeat bit for bit for the same inputs
and numpy build.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

import numpy as np

from .extreal import INF, ext_power, gram_product, masked_mul, row_blocks
from .kernels import INTERVAL, MATRIX, RIESZ, Kernel, estimate_quasi_symmetry
from .measures import GRID, Field, Measure, power_integral

Targets = Union[Measure, np.ndarray, list, None]

_SUBDIV = 16  # singular-cell refinement for Riesz-on-grid
BOYD_STEPS = 8  # most power steps in the norm-constant probe
BOYD_RISE = 1e-12  # a step whose ratio rises by less ends the iterates


def _check_compat(kernel: Kernel, omega: Measure) -> None:
    if omega.variant == GRID and kernel.variant == MATRIX:
        raise ValueError("grid measures need an interval1d or riesz kernel")
    if omega.variant == GRID and kernel.variant == RIESZ and kernel.dim != 1:
        raise ValueError("riesz-on-grid requires dim == 1")


def _target_sites(kernel: Kernel, omega: Measure, targets: Targets):
    """Resolve targets to (sites, measure-or-None for the returned Field)."""
    if targets is None:
        return omega.support_sites, omega
    if isinstance(targets, Measure):
        return targets.support_sites, targets
    return np.asarray(targets), None


def quadrature_gram(kernel: Kernel, target_sites, omega: Measure) -> np.ndarray:
    """Effective kernel matrix against omega's integration weights.

    For grid sources with a Riesz kernel, entries whose target falls inside
    the source cell are replaced by the mean kernel value over a 16-fold
    subdivision of that cell, which keeps the quadrature error of the
    singular cell bounded while the smooth part stays O(N^-2).
    """
    _check_compat(kernel, omega)
    gram = kernel.gram(target_sites, omega.support_sites)
    if omega.variant == GRID and kernel.variant == RIESZ:
        xs = np.asarray(target_sites, dtype=float).reshape(-1)
        n = omega.n_cells
        width = omega.cell_width
        # nearest-midpoint cell; the slack keeps edge-exact targets covered
        cell = np.clip(np.round(xs * n - 0.5).astype(int), 0, n - 1)
        rows = np.flatnonzero(np.abs(xs - (cell + 0.5) * width)
                              <= 0.5 * width * (1.0 + 1e-9))
        cols = cell[rows]
        sub_offsets = (np.arange(_SUBDIV) + 0.5) / _SUBDIV  # within one cell
        # one row of 16 sub-midpoints per hit target, as Kernel.gram computes them
        diff = xs[rows, None] - (cols[:, None] + sub_offsets) * width
        with np.errstate(divide="ignore"):
            sub_vals = np.power(np.sqrt(diff * diff), 2.0 * kernel.alpha - kernel.dim)
        gram[rows, cols] = np.mean(sub_vals, axis=-1)
    return gram


def _interval_operator(kernel: Kernel, target_sites, omega: Measure):
    """The interval kernel's v -> G v from two prefix sums, no gram.

    For a target t, sources s <= t contribute s (1 - t) v and sources
    s > t contribute t (1 - s) v.  The right-hand sum is a reversed
    cumsum, not total minus prefix, so a +inf weight cannot make inf - inf.
    Sorted sources are not permuted; targets that are the sorted sources
    (every grid) read the sums in place.
    """
    t = kernel._as_sites(target_sites)
    s = kernel._as_sites(omega.support_sites)
    order = np.argsort(s, kind="stable")
    s = s[order]
    k = np.searchsorted(s, t, side="right")  # sources at or left of each target
    permute = not np.array_equal(order, np.arange(len(s)))
    at = slice(1, None) if np.array_equal(k, np.arange(1, len(s) + 1)) else k

    def apply(v: np.ndarray) -> np.ndarray:
        if permute:
            v = np.take(v, order, axis=-1)
        zero = np.zeros(v.shape[:-1] + (1,))
        with np.errstate(over="ignore"):  # past the float range a sum is +inf
            left = np.concatenate((zero, np.cumsum(s * v, axis=-1)), axis=-1)
            right = np.concatenate(
                (np.cumsum(((1.0 - s) * v)[..., ::-1], axis=-1)[..., ::-1], zero), axis=-1)
            return (1.0 - t) * left[..., at] + t * right[..., at]

    return apply


def lattice_column(shape, spacings, expo: float) -> np.ndarray:
    """The ``toeplitz_operator`` column |k h|^expo of a lattice with
    ``shape`` points and ``spacings`` per axis, from exact integer offsets
    k (on one axis sqrt(x * x) = |x|, so it is (k h)^expo); the caller
    sets the entry at k = 0."""
    offsets = np.ix_(*(np.arange(L) * h for L, h in zip(shape, spacings)))
    with np.errstate(divide="ignore", over="ignore"):
        return np.power(np.sqrt(sum(x * x for x in offsets)), expo)


def toeplitz_operator(col: np.ndarray, lengths):
    """v -> T v for the symmetric multilevel Toeplitz matrix T whose
    entry between lattice points i and j is ``col[|i - j|]``, with ``col``
    shaped like the lattice and v shaped like it on its trailing axes:
    leading axes of v hold a stack of vectors, one product each.

    ``col`` sits in a circulant with ``lengths[c] >= 2 L_c - 1`` entries
    on axis c (offset -k wraps to ``lengths[c] - k``), whose spectrum is
    taken once by ``np.fft.rfftn``; an apply is one forward and one
    inverse real FFT over those lengths.  Over one axis these are
    ``rfft``/``irfft``.  v must be finite; a product past the float range
    is taken again on v / 2^e, with 2^e >= max|v| of that one vector, and
    scaled back, so a value past the range is +inf, not NaN, and numpy
    does not warn.
    """
    shape, axes = col.shape, tuple(range(-col.ndim, 0))
    padded = np.pad(col, [(0, 1)] * col.ndim)  # index L_c reads a zero
    index = []
    for L, M in zip(shape, lengths):
        j = np.arange(M)
        index.append(np.where(j < L, j, np.where(j > M - L, M - j, L)))
    with np.errstate(over="ignore", invalid="ignore"):  # a column past the range: NaN out
        spec = np.fft.rfftn(padded[np.ix_(*index)])
    corner = (Ellipsis,) + tuple(slice(0, L) for L in shape)

    def product(v: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec * np.fft.rfftn(v, lengths, axes), lengths, axes)[corner]

    def apply(v: np.ndarray) -> np.ndarray:
        stack = v.reshape((-1,) + shape)
        with np.errstate(over="ignore", invalid="ignore"):
            out = product(stack)
            bad = ~np.isfinite(out).all(axis=axes)
            if bad.any():
                e = np.frexp(np.max(np.abs(stack[bad]), axis=axes, keepdims=True))[1]
                out[bad] = np.ldexp(product(np.ldexp(stack[bad], -e)), e)
        return out.reshape(v.shape)

    return apply


def _riesz_grid_operator(kernel: Kernel, omega: Measure):
    """The Riesz-on-grid v -> G v at the midpoints by circulant embedding.

    The column is ``lattice_column`` with ``col[0]``, the singular cell
    shared by every cell, the mean over 16 sub-midpoints.  It sits in a
    circulant of length m, the next power of two >= 2N - 1
    (``toeplitz_operator``).  No N x N array is built.
    """
    n, width, expo = omega.n_cells, omega.cell_width, 2.0 * kernel.alpha - 1.0
    col = lattice_column((n,), (width,), expo)
    col[0] = np.mean(np.power(np.abs((np.arange(_SUBDIV) + 0.5) / _SUBDIV - 0.5) * width, expo))
    toeplitz = toeplitz_operator(col, (1 << (2 * n - 2).bit_length(),))

    def apply(v: np.ndarray) -> np.ndarray:
        stack = v.reshape(-1, n)
        finite = np.isfinite(stack).all(axis=-1)
        if finite.all():
            return toeplitz(v)
        out = np.empty(stack.shape)  # positive finite column: every entry is sum(v)
        out[~finite] = np.sum(stack[~finite], axis=-1, keepdims=True)
        out[finite] = toeplitz(stack[finite])
        return out.reshape(v.shape)

    return apply


def green_operator(kernel: Kernel, target_sites, omega: Measure):
    """G(f d omega) at the targets, as a function of the density f.

    The returned ``apply(f=None)`` takes one value of f per support site
    of omega (0 * inf = 0 in the integrand) and gives G omega when f is
    omitted.  It weights f by omega's integration weights here, once, and
    applies one of three paths to that density (see the module
    docstring): prefix sums for the interval kernel, an FFT for a dim-1
    Riesz kernel on a grid at its midpoints, and otherwise omega's gram,
    built once, in blocks of rows.  f may be a stack of densities, sites
    on the last axis; the values come out stacked the same way, each row
    with the bits of its own 1-d apply.
    """
    if kernel.variant == INTERVAL:
        product = _interval_operator(kernel, target_sites, omega)
    elif (kernel.variant == RIESZ and kernel.dim == 1 and omega.variant == GRID
            and np.array_equal(target_sites, omega.midpoints)):
        product = _riesz_grid_operator(kernel, omega)
    else:
        gram = quadrature_gram(kernel, target_sites, omega)
        product = partial(gram_product, gram)
    w = omega.integration_weights

    def apply(f=None) -> np.ndarray:
        return product(w if f is None else masked_mul(w, f))

    return apply


def adjoint_operator(kernel: Kernel, omega: Measure, apply):
    """g -> G^T(g d omega) on omega's sites, the adjoint of ``apply`` (omega's
    operator there) in L^2(omega): ``apply`` itself where the kernel is
    symmetric (``estimate_quasi_symmetry`` on omega's sites is 1), else the
    transposed matrix's operator."""
    if estimate_quasi_symmetry(kernel, omega.support_sites) == 1.0:
        return apply
    return green_operator(Kernel.matrix(kernel.values.T), omega.support_sites, omega)


def _unit(v: np.ndarray) -> np.ndarray:
    """v over its largest entry when that is positive and finite: a ratio
    is homogeneous, and a largest entry of 1 stays 1 under any power."""
    top = np.max(v)
    return v / top if 0.0 < top < INF else v


def max_norm_ratio(apply, adjoint, w: np.ndarray, g_omega: np.ndarray, p: float,
                   r: float) -> float:
    """Largest ||G(f d omega)||_r / ||f||_p over the densities f = (G omega)^t
    on a small exponent grid and Boyd's power iterates from the last of
    them, given omega's operator A on its own sites, its adjoint A*
    (``adjoint_operator``), its weights and G omega there.

    Boyd's step f <- (A*((A f)^(r-1)))^(1/(p-1)) (Linear Algebra Appl. 9,
    1974; Higham, Numer. Math. 62, 1992) takes two applies, as A f carries
    over, and scales each base to a largest entry of 1 before its power.
    It stops after ``BOYD_STEPS`` steps or when a ratio rises by less than
    ``BOYD_RISE`` relative.  A fixed point is a critical point of the
    ratio, and every iterate is a realized ratio, so the maximum stays a
    lower bound on C.

    ``apply`` takes a stack of densities, one per row: the structured ones
    go in blocks of ``row_blocks(5, 16 N)`` rows, about 2**14 entries
    (128 KB), which stay in cache and under malloc's default mmap
    threshold, and each iterate is a stack of one.  Every row keeps the
    bits of its own 1-d apply and integrals, so the blocks change no bit.
    """

    def block_max(f: np.ndarray, af: np.ndarray) -> float:
        """The largest ratio over the rows of f, given af = apply(f), or 0.
        A row whose ||f||_p is 0 or NaN, whose norms are both +inf, or whose
        ratio is NaN does not count; a ratio past the float range is +inf."""
        den = ext_power(power_integral(f, p, w), 1.0 / p)
        num = ext_power(power_integral(af, r, w), 1.0 / r)
        keep = (den != 0.0) & ~np.isnan(den) & ~(np.isinf(num) & np.isinf(den))
        with np.errstate(over="ignore"):
            ratio = num[keep] / den[keep]
        return float(np.max(ratio, initial=0.0, where=~np.isnan(ratio)))

    exponents = (0.0, 0.5, 1.0, 2.0, r / (p - r))
    best = 0.0
    for rows in row_blocks(len(exponents), 16 * len(w)):
        f = np.stack([ext_power(g_omega, t) for t in exponents[rows]])
        af = apply(f)
        best = max(best, block_max(f, af))
    af = af[-1:]  # the candidate t = r/(p-r) starts the iterates
    last = block_max(f[-1:], af)
    for _ in range(BOYD_STEPS):
        f = ext_power(_unit(adjoint(ext_power(_unit(af), r - 1.0))), 1.0 / (p - 1.0))
        af = apply(f)
        value = block_max(f, af)
        best = max(best, value)
        if not value > last * (1.0 + BOYD_RISE):
            break
        last = value
    return float(best)


def potential(kernel: Kernel, omega: Measure, targets: Targets = None) -> Field:
    """The potential of omega evaluated at the given targets.

    ``targets`` may be another measure (evaluate on its support), an
    explicit site array, or None for omega's own support.  Values live in
    [0, +inf]; +inf appears only through singular Riesz diagonals.
    """
    sites, ref = _target_sites(kernel, omega, targets)
    return Field(ref, green_operator(kernel, sites, omega)())


def iterated_potential(kernel: Kernel, omega: Measure, s: float,
                       targets: Targets = None) -> Field:
    """G((G omega)^(s-1) d omega) at the targets.

    The base potential is computed on omega's own support first; the
    reweighted measure may carry +inf weights (for s > 1 against a
    singular kernel), which propagate through extended-real sums instead
    of erroring.
    """
    if not s > 0:
        raise ValueError("s must be > 0")
    op = green_operator(kernel, omega.support_sites, omega)
    base = op()
    sites, ref = _target_sites(kernel, omega, targets)
    if not np.array_equal(sites, omega.support_sites):
        op = green_operator(kernel, sites, omega)
    return Field(ref, op(ext_power(base, s - 1.0)))


def domain_sites(kernel: Kernel, *meas: Optional[Measure]):
    """The natural evaluation set standing in for the whole domain, and
    where each measure sits in it.

    Matrix kernels: every matrix site.  Grid measures: the common grid's
    midpoints.  Coordinate atoms: the (sorted, deduplicated) union of all
    atom sites, the only points available.  Returns ``(sites, positions)``
    with one index array per measure (None for an absent one), so that
    ``sites[positions[i]]`` are the support sites of the i-th measure.
    """
    present = [m for m in meas if m is not None]
    for m in present:
        _check_compat(kernel, m)
    if kernel.variant == MATRIX:
        sites = np.arange(kernel.n_sites)
        pos = [kernel._as_sites(m.sites) for m in present]
    elif not present:
        raise ValueError("need at least one measure to infer the site set")
    elif any(m.variant == GRID for m in present):
        n = present[0].n_cells
        if any(m.variant != GRID or m.n_cells != n for m in present):
            raise ValueError("all measures must share one grid")
        sites, pos = present[0].midpoints, [np.arange(n)] * len(present)
    else:
        stacked = np.concatenate([np.asarray(m.sites, dtype=float) for m in present], axis=0)
        sites, inverse = np.unique(stacked, return_inverse=True,
                                   axis=0 if stacked.ndim > 1 else None)
        pos = np.split(inverse.reshape(-1), np.cumsum([m.size for m in present])[:-1])
    found = iter(pos)
    return sites, [None if m is None else next(found) for m in meas]
