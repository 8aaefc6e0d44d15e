import numpy as np
import pytest
from scipy.integrate import quad

from greenlab import (
    Field,
    Kernel,
    Measure,
    cross_energy,
    gradient_energy,
    green_energy,
    ibp_check,
)

INTERVAL = Kernel.interval1d()


def u_parabola(m: Measure) -> Field:
    x = m.midpoints
    return Field(m, x * (1 - x) / 2)


class TestGreenEnergy:
    def test_two_by_two(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        om = Measure.atomic([0, 1], [1.0, 1.0])
        assert green_energy(k, om, 1.0) == 6.0

    def test_single_atom(self):
        k = Kernel.matrix([[2.5]])
        om = Measure.atomic([0], [1.0])
        for gamma in (0.5, 1.0, 3.0):
            assert green_energy(k, om, gamma) == pytest.approx(2.5 ** gamma)

    def test_interval_lebesgue(self):
        # oracle: integral of x(1-x)/2 over (0,1)
        expected, _ = quad(lambda x: x * (1 - x) / 2, 0, 1)
        om = Measure.lebesgue(2000)
        assert green_energy(INTERVAL, om, 1.0) == pytest.approx(expected, abs=1e-5)

    def test_scaling_law_atomic_exact(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        om = Measure.atomic([0, 1], [1.0, 0.5])
        for gamma, c in ((1.0, 2.0), (2.0, 3.0), (0.5, 4.0)):
            base = green_energy(k, om, gamma)
            scaled = green_energy(k, om.scaled(c), gamma)
            assert scaled == pytest.approx(c ** (gamma + 1.0) * base, rel=1e-12)

    def test_scaling_law_grid(self):
        om = Measure.grid(128, np.linspace(0.2, 1.0, 128))
        base = green_energy(INTERVAL, om, 1.5)
        scaled = green_energy(INTERVAL, om.scaled(3.0), 1.5)
        assert scaled == pytest.approx(3.0 ** 2.5 * base, rel=1e-10)

    def test_riesz_atomic_energy_is_infinite(self):
        k = Kernel.riesz(1.0, 3)
        om = Measure.atomic([(0.0, 0.0, 0.0)], [1.0])
        assert green_energy(k, om, 1.0) == np.inf

    def test_cross_energy_mixed_measures(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        sigma = Measure.atomic([0, 1], [1.0, 1.0])
        mu = Measure.atomic([0], [2.0])
        # G(mu) = (4, 2); integral of (G mu)^2 d sigma = 16 + 4
        assert cross_energy(k, mu, 2.0, sigma) == 20.0


class TestGradientEnergy:
    def test_parabola_gamma_one(self):
        expected, _ = quad(lambda x: ((1 - 2 * x) / 2) ** 2, 0, 1)
        assert expected == pytest.approx(1 / 12)
        val, excl = gradient_energy(u_parabola(Measure.lebesgue(2000)), 1.0)
        assert val == pytest.approx(expected, abs=1e-4)
        assert excl == 0.0

    def test_parabola_gamma_two(self):
        expected, _ = quad(
            lambda x: ((1 - 2 * x) / 2) ** 2 * x * (1 - x) / 2, 0, 1)
        assert expected == pytest.approx(1 / 240)
        val, _ = gradient_energy(u_parabola(Measure.lebesgue(2000)), 2.0)
        assert val == pytest.approx(expected, abs=1e-4)

    def test_constant_field_has_zero_energy(self):
        m = Measure.lebesgue(100)
        val, excl = gradient_energy(Field(m, np.full(100, 3.7)), 1.0)
        assert val == 0.0 and excl == 0.0

    def test_floor_reports_excluded_mass(self):
        m = Measure.lebesgue(10)
        vals = np.array([0.0, 0.0, 1, 1, 1, 1, 1, 1, 0.5, 0.5])
        val, excl = gradient_energy(Field(m, vals), 0.5)
        assert excl == pytest.approx(0.2)
        assert np.isfinite(val)

    def test_needs_three_cells(self):
        m = Measure.lebesgue(2)
        with pytest.raises(ValueError):
            gradient_energy(Field(m, [1.0, 1.0]), 1.0)

    def test_needs_grid_sampling(self):
        m = Measure.atomic([0], [1.0])
        with pytest.raises(ValueError):
            gradient_energy(Field(m, [1.0]), 1.0)


class TestIbpIdentity:
    def test_lebesgue_gamma_one(self):
        rep = ibp_check(INTERVAL, Measure.lebesgue(2000), 1.0)
        assert rep.green_energy == pytest.approx(1 / 12, rel=1e-4)
        assert rep.gradient_energy == pytest.approx(1 / 12, rel=1e-3)
        assert rep.ibp_relative_residual <= 1e-3

    def test_lebesgue_gamma_two(self):
        rep = ibp_check(INTERVAL, Measure.lebesgue(2000), 2.0)
        assert rep.green_energy == pytest.approx(1 / 120, rel=1e-4)
        assert rep.gradient_energy == pytest.approx(1 / 240, rel=1e-3)
        assert rep.ibp_relative_residual <= 1e-3

    def test_residual_shrinks_under_refinement(self):
        for gamma in (1.0, 2.0):
            coarse = ibp_check(INTERVAL, Measure.lebesgue(250), gamma)
            fine = ibp_check(INTERVAL, Measure.lebesgue(2000), gamma)
            assert fine.ibp_relative_residual < coarse.ibp_relative_residual

    def test_gamma_below_one_converges_slowly(self):
        # u^(gamma-1) ~ x^(gamma-1) at the boundary caps the midpoint rate
        # at O(width^gamma); refinement must still help
        coarse = ibp_check(INTERVAL, Measure.lebesgue(250), 0.5)
        fine = ibp_check(INTERVAL, Measure.lebesgue(2000), 0.5)
        assert fine.ibp_relative_residual < coarse.ibp_relative_residual
        assert fine.ibp_relative_residual < 0.05
        assert fine.excluded_mass == 0.0  # parabola stays above the floor

    def test_near_atomic_single_cell(self):
        # oracle: for omega ~ delta_c the potential is the tent function
        # a*x / b*(1-x); both energies equal c(1-c) in the limit
        n = 2000
        values = np.zeros(n)
        values[n // 3] = float(n)  # unit mass in one cell
        rep = ibp_check(INTERVAL, Measure.grid(n, values), 1.0)
        c = (n // 3 + 0.5) / n
        assert rep.green_energy == pytest.approx(c * (1 - c), rel=1e-2)
        assert rep.ibp_relative_residual <= 2e-2

    def test_requires_interval_grid(self):
        with pytest.raises(ValueError):
            ibp_check(Kernel.matrix([[1.0]]), Measure.atomic([0], [1.0]), 1.0)

    def test_report_serializes(self):
        rep = ibp_check(INTERVAL, Measure.lebesgue(250), 1.0)
        d = rep.to_dict()
        assert d["n_cells"] == 250
        assert set(d) >= {"gamma", "green_energy", "gradient_energy",
                          "ibp_relative_residual", "equivalence_ratio"}
