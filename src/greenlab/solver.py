"""Monotone fixed-point iteration for u = G(u^q d sigma) + G mu, 0 < q < 1.

One path serves both cases; only the start differs.  With mu = 0 the
iteration starts from u0 = kappa * (G sigma)^(1/(1-q)) with

    kappa = (1-q)^(1/(1-q)) * h^(-q/(1-q)^2),

the largest prefactor for which the iterated pointwise inequality (with
WMP constant h) guarantees u1 >= u0, so the sweep is monotone from the
first step without trial and error.  Otherwise it starts from u0 = G mu,
which is monotone unconditionally.

Sublinearity makes the contraction rate near the fixed point roughly q,
so the default iteration budget is generous.  A run that cannot finish
(infinite condition integral, non-finite start, or iterates escaping to
1e300) is reported as a non-converged result with a diagnostic, never
raised.  When G sigma or G mu holds +inf, the converse half of the
existence theory says no solution exists, and the diagnostic says so.
Otherwise every potential is finite, a discrete solution exists, and the
diagnostic says that it lies outside the float range.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .extreal import TINY, ext_power, sup_abs
from .kernels import Kernel, resolve_h
from .measures import GRID, Field, Measure, lp_norm, power_integral, total_mass
from .potentials import domain_sites, green_operator, max_norm_ratio

DEFAULT_TOL_ATOMIC = 1e-10
DEFAULT_TOL_GRID = 1e-7
DEFAULT_MAX_ITER = 10_000

MONOTONE_SLACK = 1e-12
DIVERGENCE_CAP = 1e300
A_PRIORI_SAMPLES = 32  # random densities in the a priori norm-constant probe
HISTORY_COLUMNS = ("iteration", "sup_change", "sup_value", "norm_sigma")  # one row per sweep


@dataclass
class Problem:
    kernel: Kernel
    sigma: Measure
    mu: Optional[Measure] = None
    q: float = 0.5
    gamma: float = 1.0
    h: InitVar[Optional[float]] = None  # declared WMP constant; read back as ``Problem.h``

    def __post_init__(self, h):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be > 0")
        if total_mass(self.sigma) <= 0.0:
            raise ValueError("sigma must not vanish identically")
        if h is not None and not h >= 1.0:
            raise ValueError("h must be >= 1")
        self._h = h

    @property
    def mu_is_zero(self) -> bool:
        return self.mu is None or total_mass(self.mu) == 0.0

    def default_tol(self) -> float:
        grid = self.sigma.variant == GRID
        return DEFAULT_TOL_GRID if grid else DEFAULT_TOL_ATOMIC

    def to_dict(self) -> dict:
        out = {"kernel": self.kernel.to_dict(), "sigma": self.sigma.to_dict(),
               "q": self.q, "gamma": self.gamma, "h": self._h}
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


def _problem_h(self: Problem) -> float:
    """The declared WMP constant, else ``resolve_h(kernel)``, run on first read and kept."""
    if self._h is None:
        self._h = resolve_h(self.kernel)
    return self._h


# set once the dataclass is built, so ``h=None`` stays the __init__ default
Problem.h = property(_problem_h)


@dataclass
class SolveReport:
    """The iterate of one solve and the workspace (sites, positions, G mu) it was computed on."""

    converged: bool
    iterations: int
    u_values: np.ndarray
    residual_sup: float
    monotone_ok: bool
    condition_integrals: dict
    workspace: "_Workspace" = field(repr=False, compare=False)
    diagnostic: Optional[str] = None
    history: list = field(default_factory=list)

    @property
    def problem(self) -> Problem:
        return self.workspace.problem

    def u_on_sigma(self) -> Field:
        return Field(self.problem.sigma, self.u_values[self.workspace.sigma_pos])

    def u_on_mu(self) -> Optional[Field]:
        pos = self.workspace.mu_pos
        return None if pos is None else Field(self.problem.mu, self.u_values[pos])

    def norms(self) -> dict:
        p = self.problem
        out = {"L_gamma_plus_q_sigma": lp_norm(self.u_on_sigma(), p.gamma + p.q, p.sigma)}
        if not p.mu_is_zero:
            out["L_gamma_mu"] = lp_norm(self.u_on_mu(), p.gamma, p.mu)
        return out

    def to_dict(self) -> dict:
        out = {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_sup": self.residual_sup,
            "monotone_ok": self.monotone_ok,
            "condition_integrals": dict(self.condition_integrals),
            "diagnostic": self.diagnostic,
        }
        if self.converged:
            out["norms"] = self.norms()
        out["sites"] = self.workspace.eval_sites
        out["u"] = self.u_values
        if self.history:
            out["history"] = self.history
        return out


class _Workspace:
    """The one place a problem's operators are built.

    Holds the evaluation set, sigma's operator f -> G(f d sigma) there,
    and G sigma and G mu (mu's operator is applied once, then dropped).
    The sweep, the condition integrals and the probes all read from it.
    """

    def __init__(self, problem: Problem):
        self.problem = p = problem
        self.eval_sites, (self.sigma_pos, self.mu_pos) = domain_sites(p.kernel, p.sigma, p.mu)
        self.op_sigma = green_operator(p.kernel, self.eval_sites, p.sigma)
        self.w_sigma = p.sigma.integration_weights
        self.gsigma = self.op_sigma()
        if not p.mu_is_zero:
            self.gmu = green_operator(p.kernel, self.eval_sites, p.mu)()
        else:
            self.gmu = np.zeros(len(self.eval_sites))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """One sweep: G(u^q d sigma) + G mu on the evaluation set."""
        return self.op_sigma(ext_power(u[self.sigma_pos], self.problem.q)) + self.gmu

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


def _failure(ws: _Workspace, what: str) -> str:
    """The diagnostic of a run that cannot finish: a violated necessary
    condition only if G sigma or G mu holds +inf, else a finite problem
    whose solution the floats cannot hold."""
    if np.isposinf(ws.gsigma).any() or np.isposinf(ws.gmu).any():
        return "necessary condition violated: " + what
    return "float range exceeded: " + what


def _iterate(ws: _Workspace, u0: np.ndarray, conditions: dict, tol: float,
             max_iter: int, keep_history: bool) -> SolveReport:
    """Run the sweep from u0 until the sup change is below tol absolutely
    and relatively.

    On convergence the reported u is the last iterate whose fixed-point
    residual sup|u - G(u^q d sigma) - G mu| was actually measured, so the
    residual field is exact for the field returned.
    """
    p = ws.problem
    u = np.asarray(u0, dtype=float)
    report = SolveReport(converged=False, iterations=0, u_values=u,
                         residual_sup=float("inf"), monotone_ok=True,
                         condition_integrals=conditions, workspace=ws)
    if not np.all(np.isfinite(u)):
        report.diagnostic = _failure(ws, "starting iterate is not finite")
        return report
    for it in range(1, max_iter + 1):
        v = ws.apply(u)
        report.iterations = it
        if not np.all(np.isfinite(v)) or (v.size and v.max() > DIVERGENCE_CAP):
            report.u_values, report.diagnostic = v, _failure(ws, "iterates unbounded")
            return report
        if np.any(v < u - MONOTONE_SLACK):
            report.monotone_ok = False
        diff = sup_abs(v - u)
        if keep_history:
            norm = lp_norm(Field(p.sigma, v[ws.sigma_pos]), p.gamma + p.q, p.sigma)
            sup = float(v.max()) if v.size else 0.0
            report.history.append(dict(zip(HISTORY_COLUMNS, (it, diff, sup, norm))))
        scale = max(sup_abs(v), TINY)
        if diff <= tol and diff / scale <= tol:
            report.converged, report.residual_sup = True, diff
            return report
        report.u_values = u = v
    report.diagnostic = f"max_iter={max_iter} exceeded without meeting tol={tol}"
    return report


def solve(problem: Problem, tol: Optional[float] = None,
          max_iter: int = DEFAULT_MAX_ITER, keep_history: bool = False) -> SolveReport:
    """Iterate u_{j+1} = G(u_j^q d sigma) + G mu from a monotone start:
    u0 = kappa * (G sigma)^(1/(1-q)) when mu vanishes, else u0 = G mu.

    Only the homogeneous start reads ``problem.h``.  No a priori bound is
    evaluated here: ``a_priori_check`` does that on the report's workspace.
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
    if blocked:
        return SolveReport(converged=False, iterations=0, u_values=start,
                           residual_sup=float("inf"), monotone_ok=True,
                           condition_integrals=conditions, workspace=ws,
                           diagnostic=_failure(ws, why))
    return _iterate(ws, u0, conditions, tol, max_iter, keep_history)


def _same_problem(problem: Problem, report: SolveReport) -> None:
    if problem is not report.problem:
        raise ValueError("problem is not the problem the report was solved for")


def a_priori_check(problem: Problem, report: SolveReport,
                   c_est: Optional[float] = None) -> dict:
    """Check the explicit iterate bound in L^(gamma+q)(sigma).

    norm(u) <= (C*c)^(1/(1-q)) + c/(1-q) * norm(G mu), where
    c = max(1, 2^((1-gamma-q)/(gamma+q))) comes from the quasi-triangle
    inequality of the norm; gamma+q >= 1 forces c = 1.  ``c_est`` estimates
    the ((gamma+q)/q, gamma+q) weighted-norm constant C of sigma; if omitted,
    it is probed on the report's workspace, building no operator: sigma's
    operator on sigma's sites, ``A_PRIORI_SAMPLES`` densities, seed 0.
    ``problem`` must be ``report.problem``.
    """
    _same_problem(problem, report)
    if not report.converged:
        raise ValueError("a priori bound is only meaningful for a converged run")
    p, ws = problem, report.workspace
    r_exp = p.gamma + p.q
    if c_est is None:
        c_est = max_norm_ratio(lambda f: ws.op_sigma(f)[ws.sigma_pos], ws.w_sigma,
                               ws.gsigma[ws.sigma_pos], p=r_exp / p.q, r=r_exp,
                               samples=A_PRIORI_SAMPLES, seed=0)
    c = max(1.0, 2.0 ** ((1.0 - r_exp) / r_exp))
    norm_u = lp_norm(report.u_on_sigma(), r_exp, p.sigma)
    norm_gmu = lp_norm(Field(p.sigma, ws.gmu[ws.sigma_pos]), r_exp, p.sigma)
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
    ``problem`` must be ``report.problem``.
    """
    _same_problem(problem, report)
    if not v0_scale > 1.0:
        raise ValueError("v0_scale must exceed 1")
    if not report.converged:
        raise ValueError("probe needs a converged base solution")
    tol = problem.default_tol() if tol is None else tol
    v0 = v0_scale * (report.u_values + 1.0)
    probe = _iterate(report.workspace, v0, report.condition_integrals, tol, max_iter, False)
    conv = probe.converged
    gap = sup_abs(probe.u_values - report.u_values) if conv else float("inf")
    return {
        "agrees": bool(conv and gap < 10.0 * tol),
        "gap_sup": float(gap),
        "probe_converged": bool(conv),
        "iterations": probe.iterations,
        "diagnostic": probe.diagnostic,
    }
