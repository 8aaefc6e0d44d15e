"""Inequality and equivalence checks on concrete kernel/measure instances.

Each check turns one statement of the underlying theory into numbers:
lhs, rhs, the constant actually used, and a pass flag with its margin.
Constants are assembled from the exact iterated-inequality factors
s * h^(s-1) (Hoelder steps contribute 1; every transpose of the kernel
under Fubini contributes one quasi-symmetry factor, which is 1 for
symmetric kernels), and each report lists its pieces so the numbers can
be audited.

All checks are deterministic given their inputs and a seed.  A check
whose hypothesis fails on the given instance reports status
"hypothesis-fail" and does not pass: it made no claim about the
conclusion, and a verification harness should not count it as verified.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .energy import grid_derivative
from .extreal import TINY, ext_power, weighted_sum
from .kernels import Kernel, distance_powers, resolve_h, resolve_quasi_symmetry
from .measures import GRID, Field, Measure, power_integral, total_mass
from .potentials import domain_sites, green_operator, max_norm_ratio
from .serialize import digest

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
    payload = {}
    for key, val in kwargs.items():
        if isinstance(val, (Kernel, Measure)):
            payload[key] = val.to_dict()
        elif isinstance(val, Field):
            payload[key] = val.values
        else:
            payload[key] = val  # arrays are listed by ``digest``
    return digest(payload)


def _le(lhs, rhs, rel: float) -> np.ndarray:
    """Elementwise lhs <= rhs up to relative slack; inf <= inf counts."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    both_inf = np.isinf(lhs) & np.isinf(rhs)
    return both_inf | (lhs <= rhs * (1.0 + rel) + TINY)


def check_lower_bound(kernel: Kernel, omega: Measure, q: float, u: Field,
                      h: float) -> VerifyReport:
    """Pointwise bound u >= (1-q)^(1/(1-q)) h^(-q/(1-q)) (G omega)^(1/(1-q)).

    The hypothesis u >= G(u^q d omega) is checked first (within 1e-9); if
    it fails the report carries status "hypothesis-fail" instead of a
    verdict on the conclusion.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
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
    factor = s * h ** (s - 1.0)
    # G((G omega)^(s-1) d omega): the base is the same potential at omega's sites
    rhs = factor * op(ext_power(pot[pos], s - 1.0))
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
    sites, its weights and its potential there."""
    if not p > 1.0:
        raise ValueError("p must be > 1")
    if not 0.0 < r < p:
        raise ValueError("r must lie in (0, p)")
    if total_mass(omega) <= 0.0:
        raise ValueError("omega is degenerate (zero mass)")
    op = green_operator(kernel, omega.support_sites, omega)
    return op, omega.integration_weights, op()


def estimate_norm_constant(kernel: Kernel, omega: Measure, p: float, r: float,
                           samples: int = 200, seed: int = 0) -> float:
    """Certified lower bound on the best constant C in the (p, r) weighted
    norm inequality ||G(f d omega)||_{L^r(omega)} <= C ||f||_{L^p(omega)}.

    Maximizes the ratio over ``samples`` i.i.d. uniform(0,1] random
    densities plus structured candidates f = (G omega)^t on a small
    exponent grid; t = r/(p-r) realizes the known lower-bound direction of
    the energy characterization, so the estimate never falls below the
    theory-motivated test function.
    """
    return max_norm_ratio(*_self_operator(kernel, omega, p, r), p, r, samples, seed)


def check_norm_equivalence(kernel: Kernel, omega: Measure, p: float, r: float,
                           samples: int = 200, seed: int = 0,
                           h: Optional[float] = None) -> VerifyReport:
    """Finiteness of the energy integral of exponent p*r/(p-r) versus the
    observed norm constant.

    Finite branch: the structured candidate f = (G omega)^(r/(p-r)) plus
    the iterated inequality force C >= c0 * energy^((p-r)/(p*r)) with
    c0 = (p-r) / (p * h^(r/(p-r))), so the estimated constant must clear
    that floor.  Infinite branch: no finite constant can exist and the
    estimator must blow up as well.
    """
    dig = _digest_inputs(check="norm_equivalence", kernel=kernel, omega=omega,
                         p=p, r=r, samples=samples, seed=seed)
    if h is None:
        h = resolve_h(kernel)
    expo = p * r / (p - r)
    op, w, g_omega = _self_operator(kernel, omega, p, r)
    energy = power_integral(g_omega, expo, w)
    c_lower = max_norm_ratio(op, w, g_omega, p, r, samples, seed)
    s_exp = r / (p - r)
    c0 = 1.0 / ((s_exp + 1.0) * h ** s_exp)
    if np.isinf(energy):
        passed = bool(np.isinf(c_lower))
        return VerifyReport("norm_equivalence", dig, c_lower, float("inf"),
                            c0, passed, 0.0,
                            {"status": "checked", "branch": "infinite-energy",
                             "energy": energy, "h": h})
    floor = c0 * energy ** ((p - r) / (p * r))
    passed = bool(np.isfinite(c_lower) and c_lower >= floor * (1.0 - REL_TOL_CHAIN))
    return VerifyReport("norm_equivalence", dig, float(c_lower), float(floor),
                        c0, passed, float(c_lower - floor),
                        {"status": "checked", "branch": "finite-energy",
                         "energy": energy, "h": h})


def _relation_case1(i_sigma, i_mu, i_cross, q, gamma, h, aqs):
    s1 = gamma + q
    c1 = s1 * h ** (s1 - 1.0)
    s2 = gamma / (1.0 - q)
    c2 = s2 * h ** (s2 - 1.0)
    c = c1 * aqs * (c2 * aqs) ** ((1.0 - q) / gamma)
    lhs = i_cross ** (1.0 - (1.0 - q) / (gamma * (gamma + q)))
    rhs = c * i_mu ** ((gamma + q - 1.0) / gamma) \
        * i_sigma ** ((gamma + q - 1.0) * (1.0 - q) / (gamma * (gamma + q)))
    factors = {"iterated_mu": c1, "iterated_sigma": c2, "quasi_symmetry": aqs}
    return lhs, rhs, c, factors


def _relation_case2(i_sigma, i_mu, i_cross, q, gamma, h, aqs):
    s3 = gamma / (1.0 - q)
    c3 = (1.0 / s3) * h ** (1.0 - s3)
    s4 = gamma + q
    c4 = (1.0 / s4) * h ** (1.0 - s4)
    c = (aqs * c3) ** (gamma + q) * (aqs * c4) ** (gamma * (gamma + q) / (1.0 - q))
    lhs = i_cross ** (1.0 - gamma * (gamma + q) / (1.0 - q))
    rhs = c * i_mu ** ((1.0 - gamma - q) * (gamma + q) / (1.0 - q)) \
        * i_sigma ** (1.0 - gamma - q)
    factors = {"iterated_sigma": c3, "iterated_mu": c4, "quasi_symmetry": aqs}
    return lhs, rhs, c, factors


def _relation_case3(i_sigma, i_mu, i_cross, q, gamma, h, aqs):
    # gamma + q = 1; a is the midpoint of the admissible window (1/(2-q), 1)
    a = 0.5 * (1.0 / (2.0 - q) + 1.0)
    s5 = 1.0 / a
    c5 = s5 * h ** (s5 - 1.0)
    s6 = (a * (2.0 - q) - 1.0) / (a * (1.0 - q))
    c6 = (1.0 / s6) * h ** (1.0 - s6)
    c = (c5 * aqs * c6) ** a * aqs ** ((a * (2.0 - q) - 1.0) / (1.0 - q))
    lhs = i_cross ** (1.0 - (a * (2.0 - q) - 1.0) / (1.0 - q))
    rhs = c * i_mu ** ((1.0 - a) / (1.0 - q)) * i_sigma ** (1.0 - a)
    factors = {"a": a, "iterated_mu": c5, "iterated_sigma": c6,
               "quasi_symmetry": aqs}
    return lhs, rhs, c, factors


def check_relation_chain(kernel: Kernel, sigma: Measure, mu: Measure, q: float,
                         gamma: float, h: float,
                         a_qs: Optional[float] = None) -> VerifyReport:
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
    if a_qs is None:
        a_qs = resolve_quasi_symmetry(kernel)
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
    if abs(gq - 1.0) <= 1e-12:
        case, fn = 3, _relation_case3
    elif gq > 1.0:
        case, fn = 1, _relation_case1
    else:
        case, fn = 2, _relation_case2
    lhs, rhs, c, factors = fn(i_sigma, i_mu, i_cross, q, gamma, h, a_qs)
    passed = bool(np.isfinite(i_cross) and bool(_le(lhs, rhs, REL_TOL_CHAIN)))
    return VerifyReport("relation_chain", dig, float(lhs), float(rhs), float(c),
                        passed, float(rhs - lhs),
                        {"status": "checked", "case": case, "factors": factors,
                         "I_sigma": i_sigma, "I_mu": i_mu, "I_cross": i_cross})


def check_hardy(u: Field, omega: Measure, phi: Field) -> dict:
    """Hardy-type quotients for a grid potential u = G omega.

    Returns the two left-hand integrals divided by the Dirichlet integral
    of phi.  The comparison constant is not specified by the theory, so
    the harness only asserts finiteness and refinement stability; phi must
    vanish at the interval's endpoints (checked against the first and last
    cells, with slack for midpoint sampling).
    """
    m = omega
    if m.variant != GRID or u.measure_ref is None or u.measure_ref.variant != GRID:
        raise ValueError("hardy quotients need grid-sampled inputs")
    if phi.measure_ref is None or phi.measure_ref.size != m.size:
        raise ValueError("phi must be sampled on the same grid")
    n = m.n_cells
    width = m.cell_width
    phi_scale = float(np.max(np.abs(phi.values), initial=0.0))
    if phi_scale > 0.0:
        edge = max(abs(phi.values[0]), abs(phi.values[-1]))
        if edge > 0.05 * phi_scale:
            raise ValueError("phi must vanish at both endpoints of (0, 1)")
    du = grid_derivative(u.values, n)
    dphi = grid_derivative(phi.values, n)
    den = float(np.sum(dphi ** 2) * width)
    pos = u.values > 0.0
    lhs_a = float(np.sum(phi.values[pos] ** 2 * (du[pos] / u.values[pos]) ** 2) * width)
    lhs_b = float(np.sum(phi.values[pos] ** 2
                         * m.integration_weights[pos] / u.values[pos]))
    if den == 0.0:
        return {"ratio_a": 0.0, "ratio_b": 0.0, "zero_denominator": True,
                "dirichlet": 0.0}
    return {"ratio_a": lhs_a / den, "ratio_b": lhs_b / den,
            "zero_denominator": False, "dirichlet": den}


def exponent_table(n: int, p: float, q: float) -> dict:
    """Exponent bookkeeping for the Sobolev-scale corollaries.

    gamma is chosen so that membership in the p-Dirichlet space follows;
    (r, s) are the Green-energy exponents for (sigma, mu); (r2, s2) the
    plain Lebesgue exponents sufficient for them; p_of_gamma round-trips
    gamma back to p, an exact algebraic identity.
    """
    n = int(n)
    if n < 3:
        raise ValueError("n must be an integer >= 3")
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


def check_hls_condition(alpha: float, n: int, beta: float,
                        omega: Measure) -> VerifyReport:
    """Riesz-scale sufficient condition: s = n(beta+1)/(n+2*alpha*beta) > 1
    and joint finiteness of the energy of exponent beta and the L^s norm.

    The measure stands in for a bounded compactly supported density:
    atoms in R^n (or a 1-d grid used as a lattice proxy).  Atomic
    self-interaction under the Riesz kernel is dropped (off-diagonal sum);
    the report flags this deviation from the continuous integral.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
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
    # the potential by blocks of rows, so no (m, m) gram is ever held
    m = len(pts)
    pot = np.empty(m)
    for rows, gram in distance_powers(pts, pts, 2.0 * alpha - n):
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
