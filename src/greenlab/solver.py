"""Monotone fixed-point iteration for u = G(u^q d sigma) + G mu, 0 < q < 1.

One path serves both cases; only the start differs.  With mu = 0 the
iteration starts from u0 = kappa * (G sigma)^(1/(1-q)) with

    kappa = (1-q)^(1/(1-q)) * h^(-q/(1-q)^2),

the largest prefactor for which the iterated pointwise inequality (with
WMP constant h) guarantees u1 >= u0, so the sweep is monotone from the
first step without trial and error.  Otherwise it starts from u0 = G mu,
which is monotone unconditionally.

Sublinearity makes the contraction rate near the fixed point roughly q,
so the default iteration budget is generous.  Divergence (infinite
condition integral, or iterates escaping to 1e300) is reported as a
non-converged result with a diagnostic, never raised: by the converse
half of the existence theory, no solution exists there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .energy import power_integral
from .extreal import TINY, ext_power, masked_mul, sup_abs, weighted_sum
from .kernels import Kernel, resolve_h
from .measures import GRID, Field, Measure, lp_norm, total_mass
from .potentials import domain_sites, quadrature_gram, site_positions

DEFAULT_TOL_ATOMIC = 1e-10
DEFAULT_TOL_GRID = 1e-7
DEFAULT_MAX_ITER = 10_000

MONOTONE_SLACK = 1e-12
DIVERGENCE_CAP = 1e300
A_PRIORI_SAMPLES = 32  # random densities in the a priori norm-constant probe


@dataclass
class Problem:
    kernel: Kernel
    sigma: Measure
    mu: Optional[Measure] = None
    q: float = 0.5
    gamma: float = 1.0
    h: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be > 0")
        if total_mass(self.sigma) <= 0.0:
            raise ValueError("sigma must not vanish identically")
        if self.h is None:
            self.h = resolve_h(self.kernel)
        if not self.h >= 1.0:
            raise ValueError("h must be >= 1")

    @property
    def mu_is_zero(self) -> bool:
        return self.mu is None or total_mass(self.mu) == 0.0

    def default_tol(self) -> float:
        grid = self.sigma.variant == GRID
        return DEFAULT_TOL_GRID if grid else DEFAULT_TOL_ATOMIC

    def to_dict(self) -> dict:
        out = {"kernel": self.kernel.to_dict(), "sigma": self.sigma.to_dict(),
               "q": self.q, "gamma": self.gamma, "h": self.h}
        if self.mu is not None:
            out["mu"] = self.mu.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Problem":
        mu = data.get("mu")
        return cls(
            kernel=Kernel.from_dict(data["kernel"]),
            sigma=Measure.from_dict(data["sigma"]),
            mu=Measure.from_dict(mu) if mu else None,
            q=float(data["q"]),
            gamma=float(data.get("gamma", 1.0)),
            h=float(data["h"]) if data.get("h") is not None else None,
        )


@dataclass
class SolveReport:
    problem: Problem
    converged: bool
    iterations: int
    u_values: np.ndarray
    eval_sites: np.ndarray
    residual_sup: float
    monotone_ok: bool
    condition_integrals: dict
    sigma_pos: np.ndarray
    mu_pos: Optional[np.ndarray] = None
    gmu_values: Optional[np.ndarray] = None
    diagnostic: Optional[str] = None
    a_priori: Optional[dict] = None
    history: list = field(default_factory=list)
    # the operators the run used, for the probes; never serialized
    workspace: Optional["_Workspace"] = field(default=None, repr=False, compare=False)

    def u_on_sigma(self) -> Field:
        return Field(self.problem.sigma, self.u_values[self.sigma_pos])

    def u_on_mu(self) -> Optional[Field]:
        if self.mu_pos is None or self.problem.mu is None:
            return None
        return Field(self.problem.mu, self.u_values[self.mu_pos])

    def gmu_on_sigma(self) -> Field:
        vals = (self.gmu_values[self.sigma_pos] if self.gmu_values is not None
                else np.zeros(len(self.sigma_pos)))
        return Field(self.problem.sigma, vals)

    def norms(self) -> dict:
        p = self.problem
        out = {"L_gamma_plus_q_sigma": lp_norm(self.u_on_sigma(), p.gamma + p.q, p.sigma)}
        if not p.mu_is_zero:
            out["L_gamma_mu"] = lp_norm(self.u_on_mu(), p.gamma, p.mu)
        return out

    def to_dict(self, include_field: bool = True) -> dict:
        out = {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "monotone_ok": self.monotone_ok,
            "condition_integrals": dict(self.condition_integrals),
            "diagnostic": self.diagnostic,
            "a_priori": self.a_priori,
        }
        if self.converged:
            out["norms"] = self.norms()
        if include_field:
            out["sites"] = np.asarray(self.eval_sites).tolist()
            out["u"] = self.u_values.tolist()
        if self.history:
            out["history"] = self.history
        return out


class _Workspace:
    """The one place a problem's operators are built.

    Holds the evaluation set, the sigma gram on it, and the potentials
    G sigma and G mu there.  The sweep, the condition integrals, the a
    priori probe and the minimality probe all read from it.
    """

    def __init__(self, problem: Problem):
        p = problem
        if p.sigma.variant == GRID or (p.mu is not None and p.mu.variant == GRID):
            if p.sigma.variant != GRID or (p.mu is not None and p.mu.variant != GRID):
                raise ValueError("sigma and mu must share one discretization")
        self.problem = p
        self.eval_sites = domain_sites(p.kernel, p.sigma, p.mu)
        self.sigma_pos = site_positions(self.eval_sites, p.sigma.support_sites)
        self.gram_sigma = quadrature_gram(p.kernel, self.eval_sites, p.sigma)
        self.w_sigma = p.sigma.integration_weights
        self.gsigma = weighted_sum(self.gram_sigma, self.w_sigma)
        if p.mu is not None:
            self.mu_pos = site_positions(self.eval_sites, p.mu.support_sites)
        else:
            self.mu_pos = None
        if not p.mu_is_zero:
            gram_mu = quadrature_gram(p.kernel, self.eval_sites, p.mu)
            self.gmu = weighted_sum(gram_mu, p.mu.integration_weights)
        else:
            self.gmu = np.zeros(len(self.eval_sites))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """One sweep: G(u^q d sigma) + G mu on the evaluation set."""
        p = self.problem
        w = masked_mul(self.w_sigma, ext_power(u[self.sigma_pos], p.q))
        return weighted_sum(self.gram_sigma, w) + self.gmu

    def sigma_rows(self) -> np.ndarray:
        """The sigma gram on sigma's own sites; no copy when those are the
        whole evaluation set in order."""
        pos = self.sigma_pos
        if np.array_equal(pos, np.arange(len(self.eval_sites))):
            return self.gram_sigma
        return self.gram_sigma[pos]

    def conditions(self) -> dict:
        """The three condition integrals, read off G sigma and G mu."""
        p = self.problem
        i_sigma = power_integral(self.gsigma[self.sigma_pos],
                                 (p.gamma + p.q) / (1.0 - p.q), self.w_sigma)
        if p.mu_is_zero:
            return {"I_sigma": i_sigma, "I_mu": 0.0, "I_cross": 0.0}
        return {
            "I_sigma": i_sigma,
            "I_mu": power_integral(self.gmu[self.mu_pos], p.gamma,
                                   p.mu.integration_weights),
            "I_cross": power_integral(self.gmu[self.sigma_pos], p.gamma + p.q,
                                      self.w_sigma),
        }


def check_conditions(problem: Problem) -> dict:
    """The three condition integrals controlling existence, as extended reals."""
    return _Workspace(problem).conditions()


def _iterate(ws: _Workspace, u0: np.ndarray, tol: float, max_iter: int,
             keep_history: bool):
    """Run the sweep until the sup change is below tol absolutely and
    relatively; returns (u, converged, iterations, residual, monotone_ok,
    diagnostic, history).

    On convergence the reported u is the last iterate whose fixed-point
    residual sup|u - G(u^q d sigma) - G mu| was actually measured, so the
    residual field is exact for the field returned.
    """
    p = ws.problem
    u = np.asarray(u0, dtype=float)
    monotone_ok = True
    history = []
    diagnostic = None
    converged = False
    residual = float("inf")
    iterations = 0
    if not np.all(np.isfinite(u)):
        return u, False, 0, residual, monotone_ok, "necessary condition violated: starting iterate is not finite", history
    for it in range(1, max_iter + 1):
        v = ws.apply(u)
        iterations = it
        if not np.all(np.isfinite(v)) or (v.size and v.max() > DIVERGENCE_CAP):
            diagnostic = "necessary condition violated: iterates unbounded"
            u = v
            break
        if np.any(v < u - MONOTONE_SLACK):
            monotone_ok = False
        diff = sup_abs(v - u)
        if keep_history:
            r_exp = p.gamma + p.q
            norm = float(ext_power(
                float(weighted_sum(ext_power(v[ws.sigma_pos], r_exp), ws.w_sigma)),
                1.0 / r_exp))
            history.append({"iteration": it, "sup_change": diff,
                            "sup_value": float(v.max()) if v.size else 0.0,
                            "norm_sigma": norm})
        scale = max(sup_abs(v), TINY)
        if diff <= tol and diff / scale <= tol:
            converged = True
            residual = diff
            break
        u = v
    if not converged and diagnostic is None:
        diagnostic = f"max_iter={max_iter} exceeded without meeting tol={tol}"
    return u, converged, iterations, residual, monotone_ok, diagnostic, history


def solve(problem: Problem, tol: Optional[float] = None,
          max_iter: int = DEFAULT_MAX_ITER, keep_history: bool = False,
          c_est: Optional[float] = None) -> SolveReport:
    """Iterate u_{j+1} = G(u_j^q d sigma) + G mu from a monotone start:
    u0 = kappa * (G sigma)^(1/(1-q)) when mu vanishes, else u0 = G mu.

    When mu does not vanish and the run converges, the a priori norm bound
    is evaluated with ``c_est`` (an estimate of the weighted-norm
    constant; probed on the workspace's sigma rows if not supplied).
    """
    p = problem
    tol = p.default_tol() if tol is None else tol
    ws = _Workspace(p)
    conditions = ws.conditions()
    if p.mu_is_zero:
        expo = 1.0 / (1.0 - p.q)
        kappa = (1.0 - p.q) ** expo * p.h ** (-p.q * expo * expo)
        start, u0 = ws.gsigma, kappa * ext_power(ws.gsigma, expo)
        blocked, why = np.isinf(conditions["I_sigma"]), "I_sigma is infinite"
    else:
        start, u0 = ws.gmu, ws.gmu.copy()
        blocked = np.isinf(conditions["I_sigma"]) or not np.all(np.isfinite(ws.gmu))
        why = "I_sigma or G mu is infinite"
    common = dict(problem=p, eval_sites=ws.eval_sites, condition_integrals=conditions,
                  sigma_pos=ws.sigma_pos, mu_pos=ws.mu_pos, gmu_values=ws.gmu,
                  workspace=ws)
    if blocked:
        return SolveReport(converged=False, iterations=0, u_values=start,
                           residual_sup=float("inf"), monotone_ok=True,
                           diagnostic="necessary condition violated: " + why, **common)
    u, conv, its, resid, mono, diag, hist = _iterate(ws, u0, tol, max_iter, keep_history)
    report = SolveReport(converged=conv, iterations=its, u_values=u, residual_sup=resid,
                         monotone_ok=mono, diagnostic=diag, history=hist, **common)
    if report.converged and not p.mu_is_zero:
        if c_est is None:
            from .verify import _max_norm_ratio  # local import keeps module deps one-way

            c_est = _max_norm_ratio(ws.sigma_rows(), ws.w_sigma, ws.gsigma[ws.sigma_pos],
                                    p=(p.gamma + p.q) / p.q, r=p.gamma + p.q,
                                    samples=A_PRIORI_SAMPLES, seed=0)
        report.a_priori = a_priori_check(p, report, c_est)
    return report


def a_priori_check(problem: Problem, report: SolveReport, c_est: float) -> dict:
    """Check the explicit iterate bound in L^(gamma+q)(sigma).

    norm(u) <= (C*c)^(1/(1-q)) + c/(1-q) * norm(G mu), where
    c = max(1, 2^((1-gamma-q)/(gamma+q))) comes from the quasi-triangle
    inequality of the norm; gamma+q >= 1 forces c = 1.
    """
    if not report.converged:
        raise ValueError("a priori bound is only meaningful for a converged run")
    p = problem
    r_exp = p.gamma + p.q
    c = max(1.0, 2.0 ** ((1.0 - r_exp) / r_exp))
    norm_u = lp_norm(report.u_on_sigma(), r_exp, p.sigma)
    norm_gmu = lp_norm(report.gmu_on_sigma(), r_exp, p.sigma)
    bound = (c_est * c) ** (1.0 / (1.0 - p.q)) + c / (1.0 - p.q) * norm_gmu
    return {
        "bound_value": float(bound),
        "norm_value": float(norm_u),
        "satisfied": bool(norm_u <= bound * (1.0 + 1e-9)),
        "c_est": float(c_est),
        "c": float(c),
    }


def minimality_probe(problem: Problem, report: SolveReport, v0_scale: float,
                     tol: Optional[float] = None,
                     max_iter: int = DEFAULT_MAX_ITER) -> dict:
    """Restart the iteration from a strict supersolution and compare limits.

    An empirical probe of minimality/uniqueness, not a proof: from
    v0 = v0_scale * (u + 1) the sweep decreases toward some fixed point;
    ``agrees`` records whether it lands back on the computed solution.
    """
    if not v0_scale > 1.0:
        raise ValueError("v0_scale must exceed 1")
    if not report.converged:
        raise ValueError("probe needs a converged base solution")
    p = problem
    tol = p.default_tol() if tol is None else tol
    ws = report.workspace or _Workspace(p)
    v0 = v0_scale * (report.u_values + 1.0)
    v, conv, its, resid, _, diag, _ = _iterate(ws, v0, tol, max_iter, False)
    gap = sup_abs(v - report.u_values) if conv else float("inf")
    return {
        "agrees": bool(conv and gap < 10.0 * tol),
        "gap_sup": float(gap),
        "probe_converged": bool(conv),
        "iterations": its,
        "diagnostic": diag,
    }
