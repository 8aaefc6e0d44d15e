"""greenlab: a desk-scale laboratory for sublinear Green-potential equations.

Construct solutions to u = G(u^q d sigma) + G mu by monotone iteration,
compute generalized Green and gradient energies, and verify the pointwise
and integral inequalities the theory guarantees, exactly on discrete
kernels and by quadrature on the unit-interval Green function.
"""

from .energy import EnergyReport, cross_energy, gradient_energy, green_energy, ibp_check
from .kernels import Kernel, estimate_quasi_symmetry, estimate_wmp_constant, resolve_h
from .measures import Field, Measure, lp_norm, total_mass
from .potentials import domain_sites, iterated_potential, potential
from .solver import (
    Problem,
    SolveReport,
    a_priori_check,
    check_conditions,
    minimality_probe,
    solve,
)
from .verify import (
    VerifyReport,
    check_norm_equivalence,
    check_hardy,
    check_hls_condition,
    check_iterated,
    check_lower_bound,
    check_norm_constant,
    check_relation_chain,
    estimate_norm_constant,
    exponent_table,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyReport", "Field", "Kernel", "Measure", "Problem", "SolveReport",
    "VerifyReport", "a_priori_check", "check_conditions",
    "check_norm_equivalence", "check_hardy", "check_hls_condition",
    "check_iterated", "check_lower_bound", "check_norm_constant", "check_relation_chain",
    "cross_energy", "domain_sites", "estimate_norm_constant",
    "estimate_quasi_symmetry", "estimate_wmp_constant", "exponent_table",
    "gradient_energy", "green_energy", "ibp_check",
    "iterated_potential", "lp_norm", "minimality_probe", "potential",
    "resolve_h", "solve", "total_mass",
]
