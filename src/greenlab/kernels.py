"""Kernel variants and the structural constants attached to them.

Three positive kernels are supported:

* ``matrix`` -- a dense nonnegative matrix on a finite set of abstract
  sites (indices 0..n-1).  The discrete stand-in for a Green function.
* ``riesz`` -- ``G(x, y) = |x - y|**(2*alpha - dim)`` on R^dim with
  ``0 < alpha < dim/2``; the diagonal is +inf by convention, not an error.
* ``interval1d`` -- the Green function of ``-u''`` with zero boundary
  values on (0, 1): ``G(x, y) = min(x, y) * (1 - max(x, y))``.

Two constants govern every inequality downstream: the quasi-symmetry
constant ``a`` (``G(x,y) <= a*G(y,x)`` both ways) and the weak-maximum-
principle constant ``h`` (potentials bounded by 1 on the support of their
measure are bounded by ``h`` everywhere).  ``a`` is computed exactly for
matrices; for ``h`` only a certified lower bound is decidable by probing,
so a problem or a manifest entry may declare its own ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import gram_product, integer, real, row_blocks

MATRIX = "matrix"
RIESZ = "riesz"
INTERVAL = "interval1d"

_VARIANTS = (MATRIX, RIESZ, INTERVAL)


@dataclass
class Kernel:
    variant: str
    values: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    dim: Optional[int] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == MATRIX:
            if self.values is None:
                raise ValueError("matrix kernel needs a values array")
            values = np.ascontiguousarray(self.values, dtype=float)
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise ValueError("matrix kernel values must be square")
            if not np.all(np.isfinite(values)) or np.any(values < 0):
                raise ValueError("matrix kernel entries must be finite and >= 0")
            self.values = values
        elif self.variant == RIESZ:
            if self.alpha is None or self.dim is None:
                raise ValueError("riesz kernel needs alpha and dim")
            self.dim = integer(self.dim, "riesz dim", least=1)
            self.alpha = real(self.alpha, "riesz alpha")
            if not 0.0 < self.alpha < self.dim / 2.0:
                raise ValueError(
                    f"riesz alpha must lie in (0, dim/2); got alpha={self.alpha}, dim={self.dim}"
                )

    # -- constructors -------------------------------------------------

    @classmethod
    def matrix(cls, values) -> "Kernel":
        return cls(MATRIX, values=np.asarray(values, dtype=float))

    @classmethod
    def riesz(cls, alpha: float, dim: int) -> "Kernel":
        return cls(RIESZ, alpha=alpha, dim=dim)

    @classmethod
    def interval1d(cls) -> "Kernel":
        return cls(INTERVAL)

    # -- site handling ------------------------------------------------

    @property
    def n_sites(self) -> int:
        if self.variant != MATRIX:
            raise ValueError("n_sites is only defined for matrix kernels")
        return self.values.shape[0]

    def _as_sites(self, sites) -> np.ndarray:
        """Normalize and validate a site array for this variant."""
        if self.variant == MATRIX:
            idx = np.asarray(sites)
            if idx.ndim == 0:
                idx = idx[None]
            if idx.ndim != 1:
                raise ValueError("matrix sites must be a 1-d index array")
            if not np.issubdtype(idx.dtype, np.integer):
                as_float = idx.astype(float)
                if not np.all(as_float == np.round(as_float)):
                    raise ValueError("matrix sites must be integer indices")
                idx = as_float.astype(int)
            n = self.n_sites
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise IndexError(f"matrix site index out of range 0..{n - 1}")
            return idx
        if self.variant == RIESZ:
            pts = np.asarray(sites, dtype=float)
            if pts.ndim == 1:
                if self.dim == 1:
                    pts = pts[:, None]
                elif pts.size == self.dim:
                    pts = pts[None, :]
                else:
                    raise ValueError(
                        f"riesz sites must have {self.dim} coordinates per point"
                    )
            if pts.ndim != 2 or pts.shape[1] != self.dim:
                raise ValueError(
                    f"riesz sites must have shape (m, {self.dim})"
                )
            return pts
        # interval1d
        xs = np.asarray(sites, dtype=float)
        if xs.ndim == 0:
            xs = xs[None]
        if xs.ndim != 1:
            raise ValueError("interval sites must be scalars in (0, 1)")
        if xs.size and (xs.min() <= 0.0 or xs.max() >= 1.0):
            raise ValueError("interval coordinates must lie strictly inside (0, 1)")
        return xs

    # -- evaluation ---------------------------------------------------

    def gram(self, targets, sources) -> np.ndarray:
        """Matrix of kernel values G(x_i, y_j), +inf only on a Riesz diagonal;
        a read-only view of a matrix's ``values`` on all its sites in order."""
        t = self._as_sites(targets)
        s = self._as_sites(sources)
        if self.variant == MATRIX:
            every = np.arange(self.n_sites)
            if np.array_equal(t, every) and np.array_equal(s, every):
                view = self.values.view()
                view.flags.writeable = False
                return view
            return self.values[np.ix_(t, s)]
        if self.variant == RIESZ:
            out = np.empty((len(t), len(s)))
            for rows, block in distance_powers(t, s, 2.0 * self.alpha - self.dim):
                out[rows] = block
            return out
        return np.minimum.outer(t, s) - np.outer(t, s)

    def eval(self, x, y) -> float:
        """G(x, y); +inf is a legal value only for Riesz at x == y."""
        return float(self.gram([x], [y])[0, 0])

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        out = {"variant": self.variant}
        if self.variant == MATRIX:
            out["values"] = self.values
        if self.variant == RIESZ:
            out["alpha"] = self.alpha
            out["dim"] = self.dim
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Kernel":
        if not isinstance(data, dict):
            raise ValueError(f"a kernel must be an object, got {type(data).__name__}")
        for key in ("declared_h", "declared_a"):  # refused: ignoring one changes verdicts
            if key in data:
                raise ValueError(f"a kernel's {key!r} is no longer read: give 'h' in the "
                                 "problem or manifest entry; a is computed exactly")
        variant = data.get("variant")
        if variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {variant!r}")
        return cls(
            variant,
            values=np.asarray(data["values"], dtype=float) if variant == MATRIX else None,
            alpha=data.get("alpha"),
            dim=data.get("dim"),
        )


def distance_powers(targets: np.ndarray, sources: np.ndarray, expo: float):
    """Yield ``(rows, |x_i - y_j|**expo)`` by blocks of target rows (+inf at
    distance 0 for expo < 0).  The squared differences are summed one
    coordinate at a time, in coordinate order, so no (m, n, dim) temporary
    exists; below 8 terms that is the order ``np.sum`` adds in."""
    for rows in row_blocks(len(targets), len(sources)):
        t = targets[rows]
        sq = np.zeros((len(t), len(sources)))
        for c in range(t.shape[1]):
            diff = np.subtract.outer(t[:, c], sources[:, c])
            diff *= diff
            sq += diff
        with np.errstate(divide="ignore"):
            yield rows, np.power(np.sqrt(sq, out=sq), expo, out=sq)


def _differing_pairs(G: np.ndarray, idx: np.ndarray, rows: slice, every: bool):
    """The (upper, lower) entries of the differing pairs above the diagonal
    of G on ``idx`` in the block ``rows`` of its rows.  A function of its
    own, so a block's gathers are freed before the next block is taken."""
    if every:
        upper, lower = G[rows], G[:, rows].T
    else:
        upper, lower = G[np.ix_(idx[rows], idx)], G[np.ix_(idx, idx[rows])].T
    differ = upper != lower
    if not differ.any():
        return np.empty(0), np.empty(0)
    differ &= np.arange(len(idx)) > np.arange(rows.start, rows.stop)[:, None]
    return upper[differ], lower[differ]


def estimate_quasi_symmetry(kernel: Kernel, sites=None) -> float:
    """Smallest a >= 1 with a**-1 * G(y,x) <= G(x,y) <= a * G(y,x), exactly,
    over the pairs of ``sites`` (all sites in order when None).

    Riesz and interval kernels are symmetric by construction, so they
    return 1.  A matrix is compared with its transpose a block of rows at
    a time (views on all sites in order), so no n x n temporary exists;
    only differing pairs are divided, upper over lower entry (an equal pair
    gives 1), and a zero facing a positive entry gives +inf.  So a is 1
    exactly when the matrix is symmetric on the sites.
    """
    if kernel.variant != MATRIX:
        return 1.0
    G = kernel.values
    idx = np.arange(len(G)) if sites is None else kernel._as_sites(sites)
    every = np.array_equal(idx, np.arange(len(G)))
    a = 1.0
    for rows in row_blocks(len(idx), len(idx)):
        upper, lower = _differing_pairs(G, idx, rows, every)
        if np.any(upper == 0.0) or np.any(lower == 0.0):
            return float("inf")
        with np.errstate(over="ignore", divide="ignore"):  # past the float range: +inf
            ratio = upper / lower
            a = max(a, float(np.max(ratio, initial=1.0)), float(np.max(1.0 / ratio, initial=1.0)))
    return a


def estimate_wmp_constant(kernel: Kernel, samples: int = 64, seed: int = 0) -> float:
    """Certified lower bound on the best weak-maximum-principle constant h.

    Green-type variants (riesz, interval1d) satisfy the strong maximum
    principle and return 1 without sampling.  For matrices the bound is
    the maximum of

    * a single-atom scan: ``h >= max_j G(j, i) / G(i, i)`` for every site i,
    * ``samples`` randomized nonnegative measures, each rescaled so the
      potential is 1 on its support, taking the sup over all sites,

    floored at 1.  Deterministic given ``seed``, and nondecreasing in
    ``samples`` for a fixed seed (probes are drawn sequentially from one
    stream, so extra probes only add to the running max).  The probes are
    drawn first and applied in stacks of ``row_blocks(samples, 16 N)``
    rows, each with the bits of its own product.
    """
    if kernel.variant != MATRIX:
        return 1.0
    G = kernel.values
    n = G.shape[0]
    diag = np.diag(G)
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise ValueError(
            f"WMP scan undefined: zero diagonal entry at site {int(zero[0])}"
        )
    with np.errstate(over="ignore"):  # a quotient past the float range is +inf
        h = float(max(1.0, (G.max(axis=0) / diag).max()))  # max_i G[i, j] / G[j, j]
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    probes = np.empty((samples, n))
    for w in probes:
        mask = rng.random(n) < 0.5
        w[:] = np.where(mask, rng.random(n), 0.0)
        if not w.any():
            w[int(rng.integers(n))] = 1.0
    for rows in row_blocks(samples, 16 * n):
        # finite entries and probes: no NaN, no mask
        for w, pot in zip(probes[rows], gram_product(G, probes[rows])):
            on_supp = float(pot[w > 0.0].max())
            if on_supp > 0.0 and np.isfinite(on_supp):
                h = max(h, float(pot.max()) / on_supp)
    return h


def resolve_h(kernel: Kernel) -> float:
    """WMP constant of a kernel when none is declared: the probed lower bound."""
    return estimate_wmp_constant(kernel)
