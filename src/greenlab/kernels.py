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
so the kernel also carries optional declared overrides.
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
    declared_h: Optional[float] = None
    declared_a: Optional[float] = None

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
        for name in ("declared_h", "declared_a"):
            if getattr(self, name) is not None:  # checked, and kept as given
                real(getattr(self, name), name, least=1)

    # -- constructors -------------------------------------------------

    @classmethod
    def matrix(cls, values, declared_h=None, declared_a=None) -> "Kernel":
        return cls(MATRIX, values=np.asarray(values, dtype=float),
                   declared_h=declared_h, declared_a=declared_a)

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
        if self.declared_h is not None:
            out["declared_h"] = self.declared_h
        if self.declared_a is not None:
            out["declared_a"] = self.declared_a
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Kernel":
        if not isinstance(data, dict):
            raise ValueError(f"a kernel must be an object, got {type(data).__name__}")
        variant = data.get("variant")
        if variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {variant!r}")
        return cls(
            variant,
            values=np.asarray(data["values"], dtype=float) if variant == MATRIX else None,
            alpha=data.get("alpha"),
            dim=data.get("dim"),
            declared_h=data.get("declared_h"),
            declared_a=data.get("declared_a"),
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


def estimate_quasi_symmetry(kernel: Kernel) -> float:
    """Smallest a >= 1 with a**-1 * G(y,x) <= G(x,y) <= a * G(y,x), exactly.

    Riesz and interval kernels are symmetric by construction, so they
    return 1.  For matrices the off-diagonal pairs are scanned; a pair
    with one zero and one positive entry makes the constant +inf.
    """
    if kernel.variant != MATRIX:
        return 1.0
    G = kernel.values
    n = G.shape[0]
    if n < 2:
        return 1.0
    iu = np.triu_indices(n, k=1)
    a_vals = G[iu]
    b_vals = G.T[iu]
    zero_mismatch = (a_vals == 0.0) != (b_vals == 0.0)
    if zero_mismatch.any():
        return float("inf")
    both = (a_vals > 0.0) & (b_vals > 0.0)
    if not both.any():
        return 1.0
    ratio = a_vals[both] / b_vals[both]
    return float(max(ratio.max(), (1.0 / ratio).max(), 1.0))


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
    """WMP constant to use for a kernel: declared, else 1 for Green-type
    variants, else the probed lower bound."""
    if kernel.declared_h is not None:
        return real(kernel.declared_h, "declared_h", least=1)
    if kernel.variant != MATRIX:
        return 1.0
    return estimate_wmp_constant(kernel)


def resolve_quasi_symmetry(kernel: Kernel) -> float:
    if kernel.declared_a is not None:
        return real(kernel.declared_a, "declared_a", least=1)
    return estimate_quasi_symmetry(kernel)
