"""Green operators f -> G(f d omega), and through them the potentials
G omega and iterated potentials G((G omega)^(s-1) d omega).

Atomic sources are exact weighted sums.  Grid sources use the midpoint
rule; the interval kernel is bounded on (0,1)^2 so no diagonal correction
is needed there, while a Riesz kernel on a grid gets its singular cell
(target inside the source cell) integrated by 16-fold local subdivision.

``green_operator`` picks one of four operator paths from its inputs, with
no option or size threshold:

* interval prefix sums -- the interval kernel, any source and targets.
  G(x, y) = min(x,y)(1 - max(x,y)) is semiseparable, so
  G omega(t) = (1-t) sum_{s<=t} s v + t sum_{s>t} (1-s) v comes from two
  sequential prefix sums (``np.cumsum``) over the sorted sources:
  O(N log N) set-up, O(N) per apply, no gram.
* Riesz-grid FFT -- a dim-1 Riesz kernel, a grid source and targets equal
  to the grid's midpoints (the solver workspace and every check on one
  grid).  The quadrature is then Toeplitz in the integer cell offset
  |i - j|: one column, built from exact offsets, embedded in a circulant
  and applied by ``np.fft.rfft``/``irfft`` in O(N log N), no gram.  The
  column is positive and finite, so a non-finite weighted density gives
  its sum (+inf or NaN) at every target, as the masked product would.
* dense mask-free -- every other matrix or Riesz case whose gram and
  weighted density are finite: the quadrature gram, built once, times
  the density in blocks of rows (``finite_row_sums``), so no temporary is
  gram-sized.
* dense masked -- the same gram when either factor is not finite: the
  0 * inf = 0 product of ``weighted_sum``.  The two dense paths give the
  same bits: the mask only rewrites the NaNs of 0 * inf, and each row sums
  as it would in one piece.

The dense masked product (``weighted_sum`` against ``quadrature_gram``) is
the reference every path is tested against; the prefix-sum and FFT paths
agree with it to about 1e-12 relative, not bit for bit.  Everything here
is a pure function of its inputs and every sum has a fixed order (numpy's
FFT starts no threads), so results repeat bit for bit for the same inputs
and numpy build.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .extreal import ext_power, finite_row_sums, masked_mul, weighted_sum
from .kernels import INTERVAL, MATRIX, RIESZ, Kernel
from .measures import GRID, Field, Measure, power_integral

Targets = Union[Measure, np.ndarray, list, None]

_SUBDIV = 16  # singular-cell refinement for Riesz-on-grid


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
    """The interval kernel's operator from two prefix sums, no gram.

    For a target t, sources s <= t contribute s (1 - t) v and sources
    s > t contribute t (1 - s) v.  The right-hand sum is a reversed
    cumsum, not total minus prefix, so a +inf weight cannot make inf - inf.
    """
    t = kernel._as_sites(target_sites)
    s = kernel._as_sites(omega.support_sites)
    order = np.argsort(s, kind="stable")
    s = s[order]
    k = np.searchsorted(s, t, side="right")  # sources at or left of each target
    w = omega.integration_weights

    def apply(f=None) -> np.ndarray:
        v = (w if f is None else masked_mul(w, f))[order]
        left = np.concatenate(([0.0], np.cumsum(s * v)))
        right = np.concatenate((np.cumsum(((1.0 - s) * v)[::-1])[::-1], [0.0]))
        return (1.0 - t) * left[k] + t * right[k]

    return apply


def _riesz_column(kernel: Kernel, omega: Measure) -> np.ndarray:
    """The Riesz quadrature at omega's midpoints as a Toeplitz column.

    ``col[k]`` is the kernel at cell offset k, (k * width)^(2 alpha - 1),
    from the exact integer offset rather than a difference of rounded
    midpoints; ``col[0]`` is the singular-cell rule, the mean over 16
    sub-midpoints, shared by every cell.
    """
    expo = 2.0 * kernel.alpha - 1.0
    width = omega.cell_width
    sub = np.abs((np.arange(_SUBDIV) + 0.5) / _SUBDIV - 0.5) * width
    col = np.empty(omega.n_cells)
    col[0] = np.mean(np.power(sub, expo))
    col[1:] = np.power(np.arange(1, omega.n_cells) * width, expo)
    return col


def _riesz_grid_operator(kernel: Kernel, omega: Measure):
    """The Riesz-on-grid operator at the midpoints by circulant embedding.

    The column sits in a circulant of length m, the next power of two
    >= 2N - 1, whose spectrum is taken once; an apply is one forward and
    one inverse real FFT of length m.  No N x N array is built.
    """
    col = _riesz_column(kernel, omega)
    n = len(col)
    m = 1 << (2 * n - 2).bit_length()
    circ = np.zeros(m)
    circ[:n] = col
    circ[m - n + 1:] = col[:0:-1]  # negative offsets wrap to the end
    spec = np.fft.rfft(circ)
    w = omega.integration_weights

    def apply(f=None) -> np.ndarray:
        v = w if f is None else masked_mul(w, f)
        if not np.isfinite(v).all():  # positive finite column: every row sums to sum(v)
            return np.full(n, np.sum(v))
        return np.fft.irfft(spec * np.fft.rfft(v, m), m)[:n]

    return apply


def green_operator(kernel: Kernel, target_sites, omega: Measure):
    """G(f d omega) at the targets, as a function of the density f.

    The returned ``apply(f=None)`` takes one value of f per support site
    of omega (0 * inf = 0 in the integrand) and gives G omega when f is
    omitted.  Interval kernels use prefix sums and a dim-1 Riesz kernel on
    a grid, evaluated at its midpoints, an FFT; neither builds a gram.
    Other kernels build omega's gram once and skip the 0 * inf mask
    whenever both factors are finite (see the module docstring).
    """
    if kernel.variant == INTERVAL:
        return _interval_operator(kernel, target_sites, omega)
    if (kernel.variant == RIESZ and kernel.dim == 1 and omega.variant == GRID
            and np.array_equal(target_sites, omega.midpoints)):
        return _riesz_grid_operator(kernel, omega)
    gram = quadrature_gram(kernel, target_sites, omega)
    gram_finite = bool(np.isfinite(gram).all())
    w = omega.integration_weights

    def apply(f=None) -> np.ndarray:
        v = w if f is None else masked_mul(w, f)
        if gram_finite and np.isfinite(v).all():
            return finite_row_sums(gram, v)
        return weighted_sum(gram, v)

    return apply


def max_norm_ratio(apply, w: np.ndarray, g_omega: np.ndarray, p: float, r: float,
                   samples: int, seed: int) -> float:
    """Largest ||G(f d omega)||_r / ||f||_p over the densities f = (G omega)^t
    on a small exponent grid plus ``samples`` uniform(0,1] random ones, given
    omega's operator on its own sites, its weights and G omega there."""

    def ratio(f: np.ndarray) -> float:
        den = float(ext_power(power_integral(f, p, w), 1.0 / p))
        if den == 0.0 or np.isnan(den):
            return 0.0
        num = float(ext_power(power_integral(apply(f), r, w), 1.0 / r))
        if np.isinf(num) and np.isinf(den):
            return 0.0
        return num / den

    best = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, r / (p - r)):
        best = max(best, ratio(ext_power(g_omega, t)))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        best = max(best, ratio(1.0 - rng.random(len(w))))
    return float(best)


def potential_values(kernel: Kernel, omega: Measure, target_sites) -> np.ndarray:
    return green_operator(kernel, target_sites, omega)()


def potential(kernel: Kernel, omega: Measure, targets: Targets = None) -> Field:
    """The potential of omega evaluated at the given targets.

    ``targets`` may be another measure (evaluate on its support), an
    explicit site array, or None for omega's own support.  Values live in
    [0, +inf]; +inf appears only through singular Riesz diagonals.
    """
    sites, ref = _target_sites(kernel, omega, targets)
    vals = potential_values(kernel, omega, sites)
    return Field(ref, vals)


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
