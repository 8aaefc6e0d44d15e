"""Independent oracles and instance generators shared across the tests.

Everything here is deliberately naive: direct ODE matching, bisection,
dense grid searches, plain vector iteration.  The oracles never call into
the code paths they are used to check.
"""

from __future__ import annotations

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


def count_calls(monkeypatch, name: str) -> list:
    """Patch a counting wrapper over ``greenlab.potentials.<name>``; returns
    the list that grows by one per call."""
    from greenlab import potentials

    original = getattr(potentials, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(potentials, name, counting)
    return calls


def count_gram_builds(monkeypatch) -> list:
    """Count quadrature_gram calls in greenlab.potentials, where every
    operator is built."""
    return count_calls(monkeypatch, "quadrature_gram")


def count_fft_setups(monkeypatch) -> list:
    """Count the Riesz-grid FFT operators greenlab.potentials sets up."""
    return count_calls(monkeypatch, "_riesz_grid_operator")


def norm_ratio_reference(apply, adjoint, w: np.ndarray, g_omega: np.ndarray, p: float,
                         r: float, samples: int, seed: int) -> float:
    """The norm-constant probe one density at a time: every density goes
    through its own 1-d apply and power integrals, then Boyd's power
    iterates from the last structured density, each step one adjoint
    apply of (A f)^(r-1) and one apply of the new f, then ``samples``
    random densities drawn by ``rng.random(N)`` one after the other.  With
    no samples the blocked ``potentials.max_norm_ratio`` must equal it bit
    for bit; with them it is the reference the probe must not fall below."""
    from greenlab.extreal import ext_power
    from greenlab.measures import power_integral
    from greenlab.potentials import BOYD_RISE, BOYD_STEPS

    def ratio(f: np.ndarray):
        """(the ratio of f or 0, A f)"""
        af = apply(f)
        den = float(ext_power(power_integral(f, p, w), 1.0 / p))
        if den == 0.0 or np.isnan(den):
            return 0.0, af
        num = float(ext_power(power_integral(af, r, w), 1.0 / r))
        if np.isinf(num) and np.isinf(den) or np.isnan(num):
            return 0.0, af
        return num / den, af

    best = 0.0
    for t in (0.0, 0.5, 1.0, 2.0, r / (p - r)):
        last, af = ratio(ext_power(g_omega, t))
        best = max(best, last)
    for _ in range(BOYD_STEPS):
        top = float(np.max(af))
        g = adjoint(ext_power(af / top if 0.0 < top < np.inf else af, r - 1.0))
        top = float(np.max(g))
        f = ext_power(g / top if 0.0 < top < np.inf else g, 1.0 / (p - 1.0))
        value, af = ratio(f)
        best = max(best, value)
        if not value > last * (1.0 + BOYD_RISE):
            break
        last = value
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        best = max(best, ratio(1.0 - rng.random(len(w)))[0])
    return float(best)
