"""Independent oracles and instance generators shared across the tests.

Everything here is deliberately naive: direct ODE matching, bisection,
dense grid searches, plain vector iteration.  The oracles never call into
the code paths they are used to check.
"""

from __future__ import annotations

import sys

import numpy as np

from greenlab import Kernel, Measure


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection; assumes one sign change on [lo, hi]."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0:
        raise ValueError("no sign change on the bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def interval_green_oracle(x: float, c: float) -> float:
    """Green function of -u'' on (0,1) with zero boundary data, from the
    ODE matching conditions (continuity at c, unit flux jump), not from
    the closed-form min/max expression."""
    # u = a*x left of c, u = b*(1-x) right of c
    a, b = np.linalg.solve(np.array([[c, -(1.0 - c)], [1.0, 1.0]]),
                           np.array([0.0, 1.0]))
    return float(a * x if x <= c else b * (1.0 - x))


def scalar_fixed_point(g: float, s_weight: float, m: float, q: float) -> float:
    """Positive fixed point of u = g*s*u^q + m by bisection to ~1e-14."""

    def f(u):
        return u - g * s_weight * u ** q - m

    hi = max(2.0, (2.0 * g * s_weight) ** (1.0 / (1.0 - q)) + 2.0 * m + 2.0)
    return bisect_root(f, 1e-12, hi)


def vector_fixed_point(G: np.ndarray, w_sigma: np.ndarray, gmu: np.ndarray,
                       q: float, iters: int = 20000, tol: float = 1e-13) -> np.ndarray:
    """Brute-force fixed point of u = G((u^q) w) + gmu by plain iteration."""
    u = np.asarray(gmu, dtype=float) + G @ w_sigma  # any positive start
    for _ in range(iters):
        nxt = G @ (u ** q * w_sigma) + gmu
        if np.max(np.abs(nxt - u)) < tol:
            return nxt
        u = nxt
    return u


def random_green_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Inverse of a random symmetric strictly diagonally dominant M-matrix.

    These are discrete Green matrices: entrywise positive, symmetric, and
    they satisfy the strong maximum principle (h = 1), which the
    single-atom scan then certifies exactly.
    """
    if n == 1:
        return np.array([[rng.uniform(0.5, 2.0)]])
    B = rng.uniform(0.1, 1.0, (n, n))
    B = 0.5 * (B + B.T)
    np.fill_diagonal(B, 0.0)
    excess = 1.0 + rng.uniform(0.1, 1.0)
    L = np.diag(B.sum(axis=1) * excess) - B
    return np.linalg.inv(L)


def random_weights(rng: np.random.Generator, n: int, allow_zero: bool = True,
                   lo: float = 0.1, hi: float = 1.0) -> np.ndarray:
    w = rng.uniform(lo, hi, n)
    if allow_zero:
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        w = np.where(mask, w, 0.0)
    if not w.any():
        w[0] = lo
    return w


def brute_force_norm_constant(G: np.ndarray, w: np.ndarray, p: float, r: float,
                              grid: int = 200) -> float:
    """Exhaustive grid search for the best (p, r) weighted-norm constant.

    The ratio is scale-invariant, so f ranges over the unit simplex on the
    support of w, discretized with ``grid`` points per free direction.
    Only sizes 1..3 are supported; beyond that the search space explodes.
    """
    supp = np.flatnonzero(w > 0)
    m = len(supp)
    if m == 0:
        raise ValueError("degenerate weight vector")
    ws = w[supp]
    Gs = G[np.ix_(supp, supp)]

    def ratio_many(F: np.ndarray) -> float:
        den = (F ** p @ ws) ** (1.0 / p)
        gf = (F * ws[None, :]) @ Gs.T
        num = (gf ** r @ ws) ** (1.0 / r)
        good = den > 0
        return float(np.max(num[good] / den[good])) if good.any() else 0.0

    if m == 1:
        return ratio_many(np.array([[1.0]]))
    ticks = np.linspace(0.0, 1.0, grid + 1)
    if m == 2:
        F = np.stack([ticks, 1.0 - ticks], axis=1)
        return ratio_many(F[F.sum(axis=1) > 0])
    t1, t2 = np.meshgrid(ticks, ticks, indexing="ij")
    f3 = 1.0 - t1 - t2
    keep = f3 >= -1e-15
    F = np.stack([t1[keep], t2[keep], np.maximum(f3[keep], 0.0)], axis=1)
    return ratio_many(F[F.sum(axis=1) > 0])


def certified_problem(rng: np.random.Generator, n: int, q: float,
                      with_mu: bool = False):
    """Random atomic problem on a discrete Green matrix (true h = 1)."""
    from greenlab import Problem

    G = random_green_matrix(rng, n)
    sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
    mu = None
    if with_mu:
        mu = Measure.atomic(np.arange(n), random_weights(rng, n, lo=0.05, hi=0.8))
    kernel = Kernel.matrix(G)
    gamma = float(rng.uniform(0.3, 2.0))
    return Problem(kernel=kernel, sigma=sigma, mu=mu, q=q, gamma=gamma, h=1.0)


def count_gram_builds(monkeypatch) -> list:
    """Patch a counting quadrature_gram into every greenlab module that
    imported it; returns the list that grows by one per build."""
    from greenlab import potentials

    original = potentials.quadrature_gram
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("greenlab") and getattr(mod, "quadrature_gram", None) is original:
            monkeypatch.setattr(mod, "quadrature_gram", counting)
    return calls
