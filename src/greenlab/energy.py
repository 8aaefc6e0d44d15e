"""Green energies, gradient-form energies, and the identity tying them.

``green_energy`` integrates (G omega)^gamma against omega itself;
``cross_energy`` is the same with a second measure on the outside, which
is the shape of every condition integral in the solver.  On the interval
fixture, ``ibp_check`` compares the Green energy with gamma times the
discrete Dirichlet-type energy of u = G omega and reports the relative
residual of the identity together with the observed equivalence ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .extreal import TINY, ext_power
from .kernels import INTERVAL, Kernel
from .measures import GRID, Field, Measure, power_integral
from .potentials import green_operator

FLOOR_EPS = 1e-12  # cells where u is below this are left out of the gradient energy


@dataclass
class EnergyReport:
    gamma: float
    green_energy: float
    gradient_energy: Optional[float] = None
    ibp_relative_residual: Optional[float] = None
    equivalence_ratio: Optional[float] = None
    excluded_mass: float = 0.0
    n_cells: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


def cross_energy(kernel: Kernel, source: Measure, expo: float,
                 against: Measure) -> float:
    """Integral of (G source)^expo with respect to ``against``; may be +inf."""
    pot = green_operator(kernel, against.support_sites, source)()
    return power_integral(pot, expo, against.integration_weights)


def green_energy(kernel: Kernel, omega: Measure, gamma: float) -> float:
    """Generalized Green energy: integral of (G omega)^gamma d omega."""
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    return cross_energy(kernel, omega, gamma, omega)


def grid_derivative(values: np.ndarray, n_cells: int) -> np.ndarray:
    """Cell derivatives: central differences inside, one-sided at the ends."""
    if n_cells < 3:
        raise ValueError("need at least 3 grid cells to differentiate")
    width = 1.0 / n_cells
    dv = np.empty(n_cells)
    dv[1:-1] = (values[2:] - values[:-2]) / (2.0 * width)
    dv[0] = (values[1] - values[0]) / width
    dv[-1] = (values[-1] - values[-2]) / width
    return dv


def gradient_energy(u: Field, gamma: float):
    """Discrete integral of |u'|^2 u^(gamma-1) dx on the grid.

    Cells where u < FLOOR_EPS are dropped from the sum (the integrand
    u^(gamma-1) blows up near the boundary for gamma < 1) and the total
    width of the dropped cells is returned as ``excluded_mass`` so the
    approximation stays auditable.
    """
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    m = u.measure_ref
    if m is None or m.variant != GRID:
        raise ValueError("gradient_energy needs a field sampled on a grid")
    n = m.n_cells
    du = grid_derivative(u.values, n)
    keep = u.values >= FLOOR_EPS
    integrand = du[keep] ** 2 * ext_power(u.values[keep], gamma - 1.0)
    value = float(np.sum(integrand) * m.cell_width)
    excluded = float(np.count_nonzero(~keep) * m.cell_width)
    return value, excluded


def ibp_check(kernel: Kernel, omega: Measure, gamma: float) -> EnergyReport:
    """Compare E_gamma[omega] with gamma times the gradient energy of G omega;
    ``excluded_mass`` is the width of the cells ``gradient_energy`` drops."""
    if kernel.variant != INTERVAL or omega.variant != GRID:
        raise ValueError("ibp_check runs on the interval kernel with a grid measure")
    u = Field(omega, green_operator(kernel, omega.midpoints, omega)())
    e_green = power_integral(u.values, gamma, omega.integration_weights)
    e_grad, excluded = gradient_energy(u, gamma)
    report = EnergyReport(gamma=gamma, green_energy=e_green,
                          gradient_energy=e_grad, excluded_mass=excluded,
                          n_cells=omega.n_cells)
    if np.isfinite(e_green) and np.isfinite(e_grad):
        report.ibp_relative_residual = abs(e_green - gamma * e_grad) / max(e_green, TINY)
        report.equivalence_ratio = e_grad / max(e_green, TINY)
    return report
