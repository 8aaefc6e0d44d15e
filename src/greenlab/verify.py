"""Inequality and equivalence checks on concrete kernel/measure instances.

Each check turns one statement of the underlying theory into numbers:
lhs, rhs, the constant actually used, and a pass flag with its margin.
Constants are assembled from the exact iterated-inequality factors
s * h^(s-1) (Hoelder steps contribute 1; every transpose of the kernel
under Fubini contributes one quasi-symmetry factor, which is 1 for
symmetric kernels), and each report lists its pieces so the numbers can
be audited.

All checks are deterministic given their inputs.  A check
whose hypothesis fails on the given instance reports status
"hypothesis-fail" and does not pass: it made no claim about the
conclusion, and a verification harness should not count it as verified.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .energy import grid_derivative
from .extreal import TINY, ext_power, integer, masked_mul, weighted_sum
from .kernels import Kernel, distance_powers, estimate_quasi_symmetry, resolve_h
from .measures import GRID, Field, Measure, lp_norm, power_integral, total_mass
from .potentials import (adjoint_operator, domain_sites, green_operator, lattice_column,
                         max_norm_ratio, potential, toeplitz_operator)
from .serialize import digest
from .solver import DEFAULT_TOL_ATOMIC, Problem, solve

REL_TOL_ATOMIC = 1e-12
REL_TOL_CHAIN = 1e-9


@dataclass
class VerifyReport:
    check_name: str
    instance_digest: str
    lhs: float
    rhs: float
    constant_used: float
    passed: bool
    margin: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _digest_inputs(**kwargs) -> str:
    """The instance digest of a check: ``serialize.digest`` of its parsed
    inputs, a kernel or measure by its ``to_dict``, a field by its values
    and a scalar or string as it is."""
    return digest({key: val.to_dict() if isinstance(val, (Kernel, Measure))
                   else val.values if isinstance(val, Field) else val
                   for key, val in kwargs.items()})


def _power(x, expo: float) -> float:
    """x ** expo on [0, inf]: +inf past the float range, where ``**`` raises."""
    return float(ext_power(x, expo))


def _le(lhs, rhs, rel: float) -> np.ndarray:
    """Elementwise lhs <= rhs up to relative slack; inf <= inf counts."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    both_inf = np.isinf(lhs) & np.isinf(rhs)
    return both_inf | (lhs <= rhs * (1.0 + rel) + TINY)


def check_lower_bound(kernel: Kernel, omega: Measure, q: float, u, h: float) -> VerifyReport:
    """Pointwise bound u >= (1-q)^(1/(1-q)) h^(-q/(1-q)) (G omega)^(1/(1-q)).

    u is a Field, its values on omega's support, or None for the
    homogeneous solution with sigma = omega.  u must be >= 0 and not NaN at
    every site (+inf is allowed).  The hypothesis u >= G(u^q d omega) is
    checked first (within 1e-9); if it fails the report carries status
    "hypothesis-fail" instead of a verdict on the conclusion.  A solve that
    does not converge reports status "solve-failed" with its diagnostic.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if u is None:
        # solved below the hypothesis slack of 1e-9: the monotone iterate
        # is a sub-solution, short of u >= G(u^q d omega) by about tol
        report = solve(Problem(kernel=kernel, sigma=omega, q=q, h=h), tol=DEFAULT_TOL_ATOMIC)
        if not report.converged:  # its last iterate is no sub-solution to check
            return VerifyReport(
                "lower_bound", _digest_inputs(check="lower_bound", kernel=kernel, omega=omega,
                                              q=q, h=h),
                0.0, 0.0, 0.0, False, 0.0,
                {"status": "solve-failed", "diagnostic": report.diagnostic})
        u = report.u_on_sigma()
    elif not isinstance(u, Field):
        u = Field(omega, u)
    if not np.all(u.values >= 0.0):
        raise ValueError("u must be >= 0 and not NaN at every site")
    dig = _digest_inputs(check="lower_bound", kernel=kernel, omega=omega, q=q,
                         u=u, h=h)
    vals = u.values
    if len(vals) != omega.size:
        raise ValueError("u must be sampled on omega's support")
    op = green_operator(kernel, omega.support_sites, omega)
    pot_uq = op(ext_power(vals, q))
    scale = max(1.0, float(np.max(vals[np.isfinite(vals)], initial=0.0)))
    hyp_gap = float(np.min(vals - pot_uq)) if len(vals) else 0.0
    if not hyp_gap >= -1e-9 * scale:
        return VerifyReport("lower_bound", dig, hyp_gap, 0.0, 0.0, False, hyp_gap,
                            {"status": "hypothesis-fail",
                             "note": "u does not dominate G(u^q d omega)"})
    const = (1.0 - q) ** (1.0 / (1.0 - q)) * h ** (-q / (1.0 - q))
    bound = const * ext_power(op(), 1.0 / (1.0 - q))
    gap = vals - bound
    gap = np.where(np.isinf(vals) & np.isinf(bound), 0.0, gap)
    idx = int(np.argmin(gap)) if len(gap) else 0
    margin = float(gap[idx]) if len(gap) else 0.0
    passed = bool(margin >= -1e-9 * scale)
    return VerifyReport("lower_bound", dig,
                        float(vals[idx]) if len(gap) else 0.0,
                        float(bound[idx]) if len(gap) else 0.0,
                        const, passed, margin, {"status": "checked"})


def check_iterated(kernel: Kernel, omega: Measure, s: float, h: float) -> VerifyReport:
    """Pointwise comparison of (G omega)^s against s h^(s-1) G((G omega)^(s-1) d omega).

    Direction <= for s >= 1, >= for s <= 1, equality at s = 1; verified on
    the natural evaluation set of the kernel (all matrix sites / all grid
    cells / the atoms themselves for coordinate kernels).
    """
    if not s > 0:
        raise ValueError("s must be > 0")
    dig = _digest_inputs(check="iterated", kernel=kernel, omega=omega, s=s, h=h)
    targets, (pos,) = domain_sites(kernel, omega)
    op = green_operator(kernel, targets, omega)
    pot = op()
    lhs = ext_power(pot, s)
    factor = s * _power(h, s - 1.0)
    # G((G omega)^(s-1) d omega): the base is the same potential at omega's sites
    rhs = masked_mul(factor, op(ext_power(pot[pos], s - 1.0)))
    upper_ok = bool(np.all(_le(lhs, rhs, REL_TOL_ATOMIC)))
    lower_ok = bool(np.all(_le(rhs, lhs, REL_TOL_ATOMIC)))
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    denom = np.maximum(np.where(finite, np.abs(rhs), 1.0), TINY)
    with np.errstate(invalid="ignore"):  # inf - inf on masked-out entries
        rel_gap = np.where(finite, (rhs - lhs) / denom, 0.0)
    if not len(rel_gap):
        rel_gap = np.zeros(1)
        lhs = rhs = np.zeros(1)
    if s > 1.0:
        passed, margin = upper_ok, float(rel_gap.min())
    elif s < 1.0:
        passed, margin = lower_ok, float((-rel_gap).min())
    else:
        passed = upper_ok and lower_ok
        margin = float(np.abs(rel_gap).max())
    worst = int(np.argmax(-rel_gap if s >= 1.0 else rel_gap))
    return VerifyReport("iterated", dig, float(lhs[worst]), float(rhs[worst]),
                        factor, passed, margin,
                        {"status": "checked", "s": s, "h": h,
                         "direction": "<=" if s > 1 else (">=" if s < 1 else "==")})


def _self_operator(kernel: Kernel, omega: Measure, p: float, r: float):
    """Check the (p, r) exponents; return omega's operator on its own
    sites, that operator's adjoint, its weights and its potential there."""
    if not p > 1.0:
        raise ValueError("p must be > 1")
    if not 0.0 < r < p:
        raise ValueError("r must lie in (0, p)")
    if total_mass(omega) <= 0.0:
        raise ValueError("omega is degenerate (zero mass)")
    op = green_operator(kernel, omega.support_sites, omega)
    return op, adjoint_operator(kernel, omega, op), omega.integration_weights, op()


def estimate_norm_constant(kernel: Kernel, omega: Measure, p: float, r: float) -> float:
    """Certified lower bound on the best constant C in the (p, r) weighted
    norm inequality ||G(f d omega)||_{L^r(omega)} <= C ||f||_{L^p(omega)}.

    Maximizes the ratio over structured candidates f = (G omega)^t on a
    small exponent grid and Boyd's power iterates started from the last
    of them, each step through the operator's adjoint
    (``max_norm_ratio``); t = r/(p-r) realizes the known lower-bound
    direction of the energy characterization, so the estimate never falls
    below the theory-motivated test function.  No density is random.
    """
    return max_norm_ratio(*_self_operator(kernel, omega, p, r), p, r)


def check_norm_constant(kernel: Kernel, omega: Measure, p: float, r: float) -> VerifyReport:
    """:func:`estimate_norm_constant` as a report: lhs, rhs and the
    constant are the estimate, which passes, as an estimate makes no claim."""
    dig = _digest_inputs(check="norm_constant", kernel=kernel, omega=omega, p=p, r=r)
    c = estimate_norm_constant(kernel, omega, p, r)
    return VerifyReport("norm_constant", dig, c, c, c, True, 0.0, {"status": "estimated"})


def check_norm_equivalence(kernel: Kernel, omega: Measure, p: float, r: float,
                           h: Optional[float] = None) -> VerifyReport:
    """Finiteness of the energy integral of exponent e = p*r/(p-r) versus
    the observed norm constant.

    Finite branch: the structured candidate f = (G omega)^(r/(p-r)) plus
    the iterated inequality force C >= c0 * ||G omega||_{L^e(omega)} with
    c0 = (p-r) / (p * h^(r/(p-r))), so the estimated constant must clear
    that floor.  Infinite branch, G omega = +inf where omega has mass: no
    finite constant can exist and the estimator must blow up as well.
    """
    dig = _digest_inputs(check="norm_equivalence", kernel=kernel, omega=omega, p=p, r=r)
    if h is None:
        h = resolve_h(kernel)
    op, adjoint, w, g_omega = _self_operator(kernel, omega, p, r)  # checks (p, r) first
    e = p * r / (p - r)
    energy = power_integral(g_omega, e, w)
    c_lower = max_norm_ratio(op, adjoint, w, g_omega, p, r)
    s_exp = r / (p - r)
    c0 = 1.0 / ((s_exp + 1.0) * _power(h, s_exp))
    if np.isposinf(g_omega[w > 0.0]).any():
        passed = bool(np.isinf(c_lower))
        return VerifyReport("norm_equivalence", dig, c_lower, float("inf"),
                            c0, passed, 0.0,
                            {"status": "checked", "branch": "infinite-energy",
                             "energy": energy, "h": h})
    floor = float(masked_mul(c0, lp_norm(Field(omega, g_omega), e)))  # 0 * inf = 0
    passed = bool(np.isfinite(c_lower) and c_lower >= floor * (1.0 - REL_TOL_CHAIN))
    return VerifyReport("norm_equivalence", dig, float(c_lower), float(floor),
                        c0, passed, float(c_lower - floor),
                        {"status": "checked", "branch": "finite-energy",
                         "energy": energy, "h": h})


# each case of the relation chain: its constant c, the exponents of
# I_cross (lhs), I_mu and I_sigma (rhs = c I_mu^e I_sigma^e'), its factors
def _relation_case1(q, gamma, h, aqs):
    s1 = gamma + q
    c1 = s1 * _power(h, s1 - 1.0)
    s2 = gamma / (1.0 - q)
    c2 = s2 * _power(h, s2 - 1.0)
    c = c1 * aqs * _power(c2 * aqs, (1.0 - q) / gamma)
    expos = (1.0 - (1.0 - q) / (gamma * (gamma + q)), (gamma + q - 1.0) / gamma,
             (gamma + q - 1.0) * (1.0 - q) / (gamma * (gamma + q)))
    return c, expos, {"iterated_mu": c1, "iterated_sigma": c2, "quasi_symmetry": aqs}


def _relation_case2(q, gamma, h, aqs):
    s3 = gamma / (1.0 - q)
    c3 = (1.0 / s3) * _power(h, 1.0 - s3)
    s4 = gamma + q
    c4 = (1.0 / s4) * _power(h, 1.0 - s4)
    c = _power(aqs * c3, gamma + q) * _power(aqs * c4, gamma * (gamma + q) / (1.0 - q))
    expos = (1.0 - gamma * (gamma + q) / (1.0 - q),
             (1.0 - gamma - q) * (gamma + q) / (1.0 - q), 1.0 - gamma - q)
    return c, expos, {"iterated_sigma": c3, "iterated_mu": c4, "quasi_symmetry": aqs}


def _relation_case3(q, gamma, h, aqs):
    # gamma + q = 1; a is the midpoint of the admissible window (1/(2-q), 1)
    a = 0.5 * (1.0 / (2.0 - q) + 1.0)
    s5 = 1.0 / a
    c5 = s5 * _power(h, s5 - 1.0)
    s6 = (a * (2.0 - q) - 1.0) / (a * (1.0 - q))
    c6 = (1.0 / s6) * _power(h, 1.0 - s6)
    c = _power(c5 * aqs * c6, a) * _power(aqs, (a * (2.0 - q) - 1.0) / (1.0 - q))
    expos = (1.0 - (a * (2.0 - q) - 1.0) / (1.0 - q), (1.0 - a) / (1.0 - q), 1.0 - a)
    return c, expos, {"a": a, "iterated_mu": c5, "iterated_sigma": c6, "quasi_symmetry": aqs}


_RELATION_CASES = {1: _relation_case1, 2: _relation_case2, 3: _relation_case3}


def check_relation_chain(kernel: Kernel, sigma: Measure, mu: Measure, q: float,
                         gamma: float, h: float) -> VerifyReport:
    """Case-split chain inequality tying the two condition integrals to the
    cross integral, with the constants assembled factor by factor.

    Case 1: gamma+q > 1, Case 2: gamma+q < 1, Case 3: gamma+q = 1 (with
    the midpoint choice of the free Hoelder split).  Passing additionally
    requires the conclusion I_cross < inf.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not gamma > 0.0:
        raise ValueError("gamma must be > 0")
    dig = _digest_inputs(check="relation_chain", kernel=kernel, sigma=sigma,
                         mu=mu, q=q, gamma=gamma, h=h)
    i_sigma = power_integral(green_operator(kernel, sigma.support_sites, sigma)(),
                             (gamma + q) / (1.0 - q), sigma.integration_weights)
    # one mu operator gives G mu for I_mu and I_cross: on mu's sites alone
    # when sigma shares them (one grid takes the FFT path there), else on
    # mu's sites followed by sigma's; a target's value is the same either way
    mu_sites = kernel._as_sites(mu.support_sites)
    sigma_sites = kernel._as_sites(sigma.support_sites)
    if np.array_equal(mu_sites, sigma_sites):
        g_mu_on_mu = g_mu_on_sigma = green_operator(kernel, mu.support_sites, mu)()
    else:
        g_mu = green_operator(kernel, np.concatenate([mu_sites, sigma_sites]), mu)()
        g_mu_on_mu, g_mu_on_sigma = g_mu[:len(mu_sites)], g_mu[len(mu_sites):]
    i_mu = power_integral(g_mu_on_mu, gamma, mu.integration_weights)
    i_cross = power_integral(g_mu_on_sigma, gamma + q, sigma.integration_weights)
    if not (np.isfinite(i_sigma) and np.isfinite(i_mu)):
        return VerifyReport("relation_chain", dig, float("nan"), float("nan"),
                            float("nan"), False, float("nan"),
                            {"status": "hypothesis-fail",
                             "I_sigma": i_sigma, "I_mu": i_mu})
    gq = gamma + q
    case = 3 if abs(gq - 1.0) <= 1e-12 else (1 if gq > 1.0 else 2)
    c, (e_cross, e_mu, e_sigma), factors = _RELATION_CASES[case](
        q, gamma, h, estimate_quasi_symmetry(kernel))
    lhs = _power(i_cross, e_cross)
    rhs = float(masked_mul(masked_mul(c, _power(i_mu, e_mu)), _power(i_sigma, e_sigma)))
    passed = bool(np.isfinite(i_cross) and bool(_le(lhs, rhs, REL_TOL_CHAIN)))
    return VerifyReport("relation_chain", dig, float(lhs), float(rhs), float(c),
                        passed, float(rhs - lhs),
                        {"status": "checked", "case": case, "factors": factors,
                         "I_sigma": i_sigma, "I_mu": i_mu, "I_cross": i_cross})


def check_hardy(kernel: Kernel, omega: Measure, phi="sin_pi") -> VerifyReport:
    """Hardy-type quotients for the grid potential u = G omega.

    phi is "sin_pi" (sin(pi x)), "potential" (u itself) or its values on
    omega's cells.  lhs and rhs are the two left-hand integrals divided by
    the Dirichlet integral of phi (0 when that integral is 0, flagged
    "zero_denominator").  The comparison constant is not specified by the
    theory, so the check passes when both are finite; refinement stability
    is for the caller to compare.  phi must vanish at the interval's
    endpoints (checked against the first and last cells, with slack for
    midpoint sampling).
    """
    if omega.variant != GRID:
        raise ValueError("hardy quotients need grid-sampled inputs")
    u = potential(kernel, omega).values
    if isinstance(phi, str) and phi in ("sin_pi", "potential"):
        phi_values = np.sin(np.pi * omega.midpoints) if phi == "sin_pi" else u
    else:
        phi = Field(omega, phi)  # a digest names it by its values
        phi_values = phi.values
    dig = _digest_inputs(check="hardy", kernel=kernel, omega=omega, phi=phi)
    n = omega.n_cells
    width = omega.cell_width
    phi_scale = float(np.max(np.abs(phi_values), initial=0.0))
    if phi_scale > 0.0:
        edge = max(abs(phi_values[0]), abs(phi_values[-1]))
        if edge > 0.05 * phi_scale:
            raise ValueError("phi must vanish at both endpoints of (0, 1)")
    du = grid_derivative(u, n)
    dphi = grid_derivative(phi_values, n)
    den = float(np.sum(dphi ** 2) * width)
    pos = u > 0.0
    lhs_a = float(np.sum(phi_values[pos] ** 2 * (du[pos] / u[pos]) ** 2) * width)
    lhs_b = float(np.sum(phi_values[pos] ** 2 * omega.integration_weights[pos] / u[pos]))
    ratio_a, ratio_b = (lhs_a / den, lhs_b / den) if den != 0.0 else (0.0, 0.0)
    return VerifyReport("hardy", dig, ratio_a, ratio_b, 0.0,
                        bool(ratio_a < np.inf and ratio_b < np.inf), 0.0,
                        {"status": "checked", "ratio_a": ratio_a, "ratio_b": ratio_b,
                         "zero_denominator": den == 0.0, "dirichlet": den})


def exponent_table(n: int, p: float, q: float) -> dict:
    """Exponent bookkeeping for the Sobolev-scale corollaries.

    gamma is chosen so that membership in the p-Dirichlet space follows;
    (r, s) are the Green-energy exponents for (sigma, mu); (r2, s2) the
    plain Lebesgue exponents sufficient for them; p_of_gamma round-trips
    gamma back to p, an exact algebraic identity.
    """
    n = integer(n, "n", least=3)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not (n / (n - 1.0) < p <= 2.0):
        raise ValueError(f"p must lie in (n/(n-1), 2] = ({n / (n - 1.0)}, 2]")
    gamma = (p * (n - 1.0) - n) / (n - p)
    return {
        "gamma": gamma,
        "r": p * (n - 2.0) / ((1.0 - q) * (n - p)) - 1.0,
        "s": gamma,
        "r2": n * p / ((n - p) * (1.0 - q) + 2.0 * p),
        "s2": n * p / (n + p),
        "p_of_gamma": n * (1.0 + gamma) / (n + gamma - 1.0),
    }


def _lattice(pts: np.ndarray):
    """``(shape, spacings, index)`` when the points fill a uniform lattice,
    else None; ``index`` is each point's flat position in the lattice.

    On each axis with L distinct coordinates, every one must lie within
    4 eps max|coordinate| of ``ax[0] + i h``, h = (ax[-1] - ax[0])/(L - 1),
    and the product of the L's must be the number of points (sites are
    distinct, so every lattice point then holds exactly one).
    """
    shape, spacings, multi = [], [], []
    for coord in pts.T:
        ax, inverse = np.unique(coord, return_inverse=True)
        L = len(ax)
        h = (ax[-1] - ax[0]) / (L - 1) if L > 1 else 0.0
        slack = 4.0 * np.finfo(float).eps * np.max(np.abs(ax))
        if np.any(np.abs(ax - (ax[0] + np.arange(L) * h)) > slack):
            return None
        shape.append(L)
        spacings.append(h)
        multi.append(inverse.reshape(-1))
    if int(np.prod(shape)) != len(pts):
        return None
    return tuple(shape), spacings, np.ravel_multi_index(multi, shape)


def _lattice_potential(pts: np.ndarray, w: np.ndarray, expo: float):
    """sum over j != i of w_j |x_i - x_j|^expo at every point x_i of a
    uniform lattice (``_lattice``), else None.

    It is a multilevel Toeplitz product by FFT (``toeplitz_operator``,
    2 L points per axis) of ``lattice_column``, 0 at k = 0.  Its rounding
    error is about eps times the largest potential, so it is kept only
    when it is finite and every atom of positive weight sees at least
    1/128 of the largest potential.
    """
    lattice = _lattice(pts)
    if lattice is None:
        return None
    shape, spacings, index = lattice
    v = np.empty(len(w))
    v[index] = w
    col = lattice_column(shape, spacings, expo)
    col.flat[0] = 0.0  # self-interaction dropped
    pot = toeplitz_operator(col, [2 * L for L in shape])(v.reshape(shape))
    pot = np.maximum(pot.reshape(-1)[index], 0.0)  # a zero potential may round below 0
    if np.isfinite(pot).all() and pot[w > 0].min(initial=np.inf) >= pot.max(initial=0.0) / 128:
        return pot
    return None


def check_hls_condition(alpha: float, n: int, beta: float,
                        omega: Measure) -> VerifyReport:
    """Riesz-scale sufficient condition: s = n(beta+1)/(n+2*alpha*beta) > 1
    and joint finiteness of the energy of exponent beta and the L^s norm.

    The measure stands in for a bounded compactly supported density:
    atoms in R^n (or a 1-d grid used as a lattice proxy).  Atomic
    self-interaction under the Riesz kernel is dropped (off-diagonal sum);
    the report flags this deviation from the continuous integral.  On a
    uniform lattice the potential is an FFT product (``_lattice_potential``),
    which agrees with the block sum to about 1e-15 relative, not bit for
    bit; any other input, or a lattice whose FFT it does not trust, takes
    the block sum.
    """
    n = integer(n, "n", least=1)
    if not 0.0 < alpha < n / 2.0:
        raise ValueError("alpha must lie in (0, n/2)")
    if not beta > 0.0:
        raise ValueError("beta must be > 0")
    dig = _digest_inputs(check="hls", alpha=alpha, n=n, beta=beta, omega=omega)
    s = n * (beta + 1.0) / (n + 2.0 * alpha * beta)
    if omega.variant == GRID:
        pts = omega.midpoints[:, None]
        w = omega.integration_weights
        vol = np.full(omega.size, omega.cell_width)
    else:
        pts = np.asarray(omega.sites, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = omega.weights
        spans = pts.max(axis=0) - pts.min(axis=0)
        box = float(np.prod(spans[spans > 0])) if np.any(spans > 0) else 1.0
        vol = np.full(omega.size, box / max(omega.size, 1))
    expo = 2.0 * alpha - n
    pot = _lattice_potential(pts, w, expo)
    if pot is None:  # the block sum: rows of the gram, none of it held whole
        m = len(pts)
        pot = np.empty(m)
        for rows, gram in distance_powers(pts, pts, expo):
            own = np.arange(rows.start, min(rows.stop, m))
            gram[own - rows.start, own] = 0.0  # self-interaction dropped
            pot[rows] = weighted_sum(gram, w)
    energy = power_integral(pot, beta, w)
    density = np.where(vol > 0, w / vol, 0.0)
    ls_norm = float(ext_power(power_integral(density, s, vol), 1.0 / s))
    passed = bool(s > 1.0 and np.isfinite(energy) and np.isfinite(ls_norm))
    return VerifyReport("hls", dig, energy, ls_norm, s, passed, s - 1.0,
                        {"status": "checked", "s": s,
                         "self_interaction": "dropped",
                         "energy": energy, "ls_norm": ls_norm})
