import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (
    Kernel,
    Measure,
    Problem,
    a_priori_check,
    check_conditions,
    cross_energy,
    estimate_norm_constant,
    minimality_probe,
    solve,
)
from greenlab import potentials, solver
from greenlab.potentials import BOYD_STEPS, adjoint_operator, green_operator, max_norm_ratio
from tests.helpers import (
    brute_force_norm_constant,
    count_fft_setups,
    count_gram_builds,
    norm_ratio_reference,
    random_green_matrix,
    random_weights,
    scalar_fixed_point,
    vector_fixed_point,
)

SCALAR_ONE = Kernel.matrix([[1.0]])
ATOM = Measure.atomic([0], [1.0])


def scalar_problem(g=1.0, s=1.0, m=None, q=0.5, gamma=1.0):
    mu = Measure.atomic([0], [m]) if m is not None else None
    return Problem(kernel=Kernel.matrix([[g]]), sigma=Measure.atomic([0], [s]),
                   mu=mu, q=q, gamma=gamma)


class TestConditions:
    def test_all_ones_scalar(self):
        p = scalar_problem(m=1.0)
        assert check_conditions(p) == {"I_sigma": 1.0, "I_mu": 1.0, "I_cross": 1.0}

    def test_zero_mu(self):
        p = scalar_problem()
        cond = check_conditions(p)
        assert cond["I_mu"] == 0.0 and cond["I_cross"] == 0.0

    def test_two_by_two_exponent(self):
        p = Problem(kernel=Kernel.matrix([[2, 1], [1, 2]]),
                    sigma=Measure.atomic([0, 1], [1.0, 1.0]), q=0.5, gamma=1.0)
        # G(sigma) = (3,3); exponent (gamma+q)/(1-q) = 3
        assert check_conditions(p)["I_sigma"] == pytest.approx(54.0)


class TestHomogeneous:
    def test_scalar_closed_form(self):
        # u = (G*s)^(1/(1-q)): fixed point of u = 2*3*sqrt(u)
        expected = (2.0 * 3.0) ** 2
        rep = solve(scalar_problem(g=2.0, s=3.0))
        assert rep.converged and rep.iterations < 200
        assert rep.u_values[0] == pytest.approx(expected, abs=1e-9)
        assert rep.monotone_ok
        assert rep.residual_sup <= 1e-10

    def test_scalar_unit(self):
        rep = solve(scalar_problem())
        assert rep.u_values[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_by_two_against_vector_oracle(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = np.array([1.0, 1.0])
        oracle = vector_fixed_point(G, w, np.zeros(2), 0.5)
        assert np.allclose(oracle, [9.0, 9.0], atol=1e-10)
        p = Problem(kernel=Kernel.matrix(G),
                    sigma=Measure.atomic([0, 1], w), q=0.5)
        rep = solve(p)
        assert rep.converged and np.allclose(rep.u_values, oracle, atol=1e-9)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            Problem(kernel=SCALAR_ONE, sigma=Measure.atomic([0], [0.0]), q=0.5)

    def test_riesz_atomic_diverges_gracefully(self):
        # self-potential is infinite, so I_sigma = inf: no solution exists
        p = Problem(kernel=Kernel.riesz(1.0, 3),
                    sigma=Measure.atomic([(0.0, 0.0, 0.0)], [1.0]), q=0.5)
        rep = solve(p)
        assert not rep.converged
        assert "necessary condition" in rep.diagnostic
        assert np.isinf(rep.condition_integrals["I_sigma"])

    def test_monotone_iterates(self):
        rep = solve(scalar_problem(g=2.0, s=3.0), keep_history=True)
        changes = [h["sup_change"] for h in rep.history]
        assert rep.monotone_ok and len(changes) == rep.iterations


class TestRunsThatCannotFinish:
    """The four non-converged exits of the sweep.  A necessary condition is
    violated only when G sigma or G mu holds +inf where the kernel is
    infinite (Riesz atoms); a problem whose kernel is finite at every site
    and whose solution the floats cannot hold says that instead."""

    @staticmethod
    def assert_float_range(rep, what):
        assert not rep.converged
        assert rep.diagnostic == "float range exceeded: " + what
        assert np.all(np.isfinite(rep.workspace.gsigma))
        assert np.all(np.isfinite(rep.workspace.gmu))

    def test_starting_iterate_overflows(self):
        # u0 = kappa * (1e200)^(1/0.55) overflows; I_sigma = 1e200^(0.5/0.55)
        rep = solve(scalar_problem(g=1e200, q=0.45, gamma=0.05))
        self.assert_float_range(rep, "starting iterate is not finite")
        assert rep.iterations == 0
        assert rep.condition_integrals["I_sigma"] == pytest.approx(6.579e181, rel=1e-3)

    def test_condition_integral_overflows(self):
        # I_sigma = (1e140)^3 overflows, though the solution 1e280 is a float
        rep = solve(scalar_problem(g=1e140, q=0.5, gamma=1.0))
        self.assert_float_range(rep, "I_sigma is infinite")
        assert rep.iterations == 0 and np.isinf(rep.condition_integrals["I_sigma"])

    def test_iterates_overflow(self):
        # u = 1e31 (u^0.9 + 1) has its root near 1e310, past the largest float
        rep = solve(scalar_problem(g=1e31, m=1.0, q=0.9, gamma=0.05))
        self.assert_float_range(rep, "iterates unbounded")
        assert rep.iterations == 32
        assert all(np.isfinite(v) for v in rep.condition_integrals.values())

    def test_max_iter(self):
        rep = solve(scalar_problem(g=2.0, q=0.99), max_iter=5)
        assert not rep.converged and rep.iterations == 5
        assert rep.diagnostic == "max_iter=5 exceeded without meeting tol=1e-10"

    def test_infinite_potential_violates_a_necessary_condition(self):
        # the same exits keep their reading when a potential is +inf
        p = Problem(kernel=Kernel.riesz(1.0, 3),
                    sigma=Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0]),
                    mu=Measure.atomic([(1.0, 0.0, 0.0)], [1.0]), q=0.5)
        rep = solve(p)
        assert rep.diagnostic == "necessary condition violated: I_sigma or G mu is infinite"

    @pytest.mark.parametrize("kernel, sigma, mu", [
        (Kernel.matrix([[1e200]]), Measure.atomic([0], [1.0]), Measure.atomic([0], [1e200])),
        (Kernel.interval1d(), Measure.atomic([0.5], [1.0]),
         Measure.atomic(np.linspace(0.46, 0.54, 9), [1.7e308] * 9)),
        (Kernel.riesz(0.25, 1), Measure.lebesgue(4), Measure.grid(4, [1e308] * 4)),
    ], ids=["matrix", "interval", "riesz-grid"])
    def test_overflowing_potential_on_a_finite_kernel(self, kernel, sigma, mu):
        # G mu is +inf by overflow, not because the kernel is infinite
        rep = solve(Problem(kernel=kernel, sigma=sigma, mu=mu, q=0.5))
        assert np.isposinf(rep.workspace.gmu).any()
        assert rep.diagnostic == "float range exceeded: I_sigma or G mu is infinite"


class TestStopRule:
    """A sweep that moves u by at most ULP_FLOOR ulps of sup|u| has stopped,
    whatever tol asks for: the floats resolve u no finer."""

    def test_riesz_grid_near_2e11(self):
        # past about sweep 700 every sweep moves u by an ulp or two (3e-5);
        # an absolute tol of 1e-7 is never met there
        n = 4096
        x = (np.arange(n) + 0.5) / n
        p = Problem(kernel=Kernel.riesz(0.25, 1), sigma=Measure.grid(n, 1 + 0.5 * np.sin(3 * x)),
                    mu=Measure.grid(n, 1 + x), q=0.95)
        rep = solve(p, max_iter=2000)
        sup = rep.u_values.max()
        assert rep.converged and rep.monotone_ok and sup > 1e11
        assert rep.residual_sup <= solver.ULP_FLOOR * np.spacing(sup)
        # the probe's limit is as far off as the floats allow, not 10 tol
        probe = minimality_probe(p, rep, 2.0, max_iter=2000)
        assert probe["agrees"] and probe["gap_sup"] > 10 * p.default_tol()

    @pytest.mark.parametrize("nudge", [False, True], ids=["plain", "one-ulp-oscillation"])
    def test_matrix_near_1e12(self, monkeypatch, nudge):
        # u ~ 7e12, an ulp 1e-3; the nudged apply adds one ulp every other
        # sweep, so the iterates never freeze
        rng = np.random.default_rng(0)
        n, q = 12, 0.9
        a = rng.uniform(0.1, 1.0, (n, n))
        g = (a + a.T) / 2 + n * np.eye(n)
        w, m = rng.uniform(0.5, 1.0, n), 1e11 * rng.uniform(0.5, 1.0, n)
        if nudge:
            apply, calls = solver._Workspace.apply, []

            def nudged(ws, u):
                calls.append(1)
                v = apply(ws, u)
                return np.nextafter(v, np.inf) if len(calls) % 2 else v
            monkeypatch.setattr(solver._Workspace, "apply", nudged)
        rep = solve(Problem(kernel=Kernel.matrix(g), sigma=Measure.atomic(np.arange(n), w),
                            mu=Measure.atomic(np.arange(n), m), q=q), max_iter=1000)
        sup = rep.u_values.max()
        assert rep.converged and sup > 1e12
        assert rep.residual_sup <= solver.ULP_FLOOR * np.spacing(sup)
        np.testing.assert_allclose(rep.u_values, vector_fixed_point(g, w, g @ m, q), rtol=1e-12)


class TestInhomogeneous:
    def test_golden_ratio_squared(self):
        # oracle: bisection on u = sqrt(u) + 1
        oracle = scalar_fixed_point(1.0, 1.0, 1.0, 0.5)
        assert oracle == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-12)
        rep = solve(scalar_problem(m=1.0))
        assert rep.converged and rep.iterations < 200
        assert rep.u_values[0] == pytest.approx(oracle, abs=1e-9)

    def test_mu_four(self):
        # oracle: bisection on u = sqrt(u) + 4 (root (9+sqrt(17))/2)
        oracle = scalar_fixed_point(1.0, 1.0, 4.0, 0.5)
        assert oracle == pytest.approx((9 + np.sqrt(17)) / 2, abs=1e-12)
        rep = solve(scalar_problem(m=4.0))
        assert rep.u_values[0] == pytest.approx(oracle, abs=1e-9)

    def test_u_dominates_gmu(self):
        rep = solve(scalar_problem(g=1.5, s=0.7, m=2.0))
        assert np.all(rep.u_values >= rep.workspace.gmu - 1e-12)

    def test_dispatch(self):
        assert solve(scalar_problem()).converged
        assert solve(scalar_problem(m=1.0)).converged

    def test_norms_finite_on_convergence(self):
        rep = solve(scalar_problem(m=1.0, gamma=0.75))
        norms = rep.norms()
        assert np.isfinite(norms["L_gamma_plus_q_sigma"])
        assert np.isfinite(norms["L_gamma_mu"])


class TestAPriori:
    def test_scalar_bound_closed_form(self):
        p = scalar_problem(m=1.0)
        ap = a_priori_check(p, solve(p), c_est=1.0)
        # c = 1 (gamma + q = 1.5 >= 1); bound = 1 + 2 * ||G mu|| = 3
        assert ap["c"] == 1.0
        assert ap["bound_value"] == pytest.approx(3.0, rel=1e-12)
        assert ap["norm_value"] == pytest.approx((3 + np.sqrt(5)) / 2, rel=1e-9)
        assert ap["satisfied"]

    def test_homogeneous_path_reduces(self):
        p = scalar_problem()
        rep = solve(p)
        ap = a_priori_check(p, rep, c_est=1.0)
        # mu = 0: bound is (C*c)^(1/(1-q)) = 1, and ||u|| = 1
        assert ap["bound_value"] == pytest.approx(1.0)
        assert ap["norm_value"] == pytest.approx(1.0, abs=1e-9)
        assert ap["satisfied"]

    def test_c_is_one_when_gamma_plus_q_at_least_one(self):
        p = scalar_problem(m=1.0, q=0.5, gamma=0.5)  # gamma + q = 1
        assert a_priori_check(p, solve(p), c_est=1.0)["c"] == 1.0

    def test_c_above_one_otherwise(self):
        p = scalar_problem(m=1.0, q=0.25, gamma=0.25)  # gamma + q = 0.5
        ap = a_priori_check(p, solve(p), c_est=1.0)
        assert ap["c"] == pytest.approx(2.0 ** ((1 - 0.5) / 0.5))

    def test_c_past_the_float_range_is_inf(self):
        # gamma + q = 2e-5: 2^((1 - gamma - q)/(gamma + q)) = 2^49999 is
        # +inf, so the bound is +inf and holds, where it raised before
        p = scalar_problem(g=2.0, m=1.0, q=1e-5, gamma=1e-5)
        ap = a_priori_check(p, solve(p))
        assert (ap["c"], ap["bound_value"], ap["satisfied"]) == (np.inf, np.inf, True)

    def test_norms_whose_integrals_overflow_stay_finite(self):
        # u = 1e200: u^2 sigma and u^1.5 mu pass the float range, the norms
        # 1e170 and 1e200 * (1e100)^(2/3) do not, and the bound holds with
        # ||G mu|| = 1e170 and c_est = 1e25
        p = Problem(kernel=Kernel.matrix([[1e100]]), sigma=Measure.atomic([0], [1e-60]),
                    mu=Measure.atomic([0], [1e100]), q=0.5, gamma=1.5)
        rep = solve(p)
        assert rep.converged and rep.u_values[0] == pytest.approx(1e200, rel=1e-12)
        norms = rep.norms()
        assert norms["L_gamma_plus_q_sigma"] == pytest.approx(1e170, rel=1e-12)
        assert norms["L_gamma_mu"] == pytest.approx(1e200 * 1e100 ** (2.0 / 3.0), rel=1e-12)
        ap = a_priori_check(p, rep)
        assert ap["norm_value"] == norms["L_gamma_plus_q_sigma"]
        assert ap["bound_value"] == pytest.approx(1e50 + 2e170, rel=1e-12)
        assert ap["satisfied"]

    def test_refuses_another_problem(self):
        p = scalar_problem(m=1.0)
        rep = solve(p)
        # a problem that is not the report's, even an equal one, is refused
        for other in (scalar_problem(m=1.0, q=0.9, gamma=3.0), scalar_problem(m=1.0)):
            with pytest.raises(ValueError, match="not the problem"):
                a_priori_check(other, rep, c_est=1.0)
        assert a_priori_check(rep.problem, rep, c_est=1.0)["satisfied"]

    def test_requires_convergence(self):
        p = Problem(kernel=Kernel.riesz(1.0, 3),
                    sigma=Measure.atomic([(0.0, 0.0, 0.0)], [1.0]), q=0.5)
        rep = solve(p)
        with pytest.raises(ValueError):
            a_priori_check(p, rep, c_est=1.0)


class TestMinimalityProbe:
    def test_scalar_inhomogeneous(self):
        p = scalar_problem(m=1.0)
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=3.0)
        assert probe["probe_converged"] and probe["agrees"]
        assert probe["gap_sup"] < 1e-8

    def test_scalar_homogeneous_returns_to_one(self):
        p = scalar_problem()
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=2.0)
        assert probe["agrees"] and probe["gap_sup"] < 1e-8

    def test_tiny_scale(self):
        p = scalar_problem(m=1.0)
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=1.0 + 1e-9)
        assert probe["agrees"] and probe["gap_sup"] < 1e-8

    def test_two_by_two(self):
        p = Problem(kernel=Kernel.matrix([[2, 1], [1, 2]]),
                    sigma=Measure.atomic([0, 1], [1.0, 1.0]), q=0.5)
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=3.0)
        assert probe["agrees"]

    def test_refuses_another_problem(self):
        rep = solve(scalar_problem(m=1.0))
        with pytest.raises(ValueError, match="not the problem"):
            minimality_probe(scalar_problem(m=1.0, q=0.9), rep, v0_scale=2.0)

    def test_scale_must_exceed_one(self):
        p = scalar_problem()
        rep = solve(p)
        with pytest.raises(ValueError):
            minimality_probe(p, rep, v0_scale=1.0)


class TestSubsetSupports:
    def test_sigma_on_subset_of_matrix_sites(self):
        # sigma lives on sites {1, 3} of a 5-site kernel; the solution is
        # still evaluated on all five sites
        rng = np.random.default_rng(42)
        from tests.helpers import random_green_matrix

        G = random_green_matrix(rng, 5)
        sigma = Measure.atomic([1, 3], [0.8, 1.3])
        mu = Measure.atomic([0, 4], [0.2, 0.4])
        w_full = np.zeros(5)
        w_full[[1, 3]] = [0.8, 1.3]
        gmu_full = G @ np.array([0.2, 0, 0, 0, 0.4])
        oracle = vector_fixed_point(G, w_full, gmu_full, 0.5)
        p = Problem(kernel=Kernel.matrix(G), sigma=sigma, mu=mu, q=0.5, h=1.0)
        rep = solve(p)
        assert rep.converged and rep.monotone_ok
        assert np.allclose(rep.u_values, oracle, atol=1e-8)
        assert len(rep.u_on_sigma().values) == 2
        assert np.allclose(rep.u_on_sigma().values, oracle[[1, 3]], atol=1e-8)

    def test_interval_atoms_with_distinct_supports(self):
        # sigma = w1 * delta_{0.3}, mu = m1 * delta_{0.6}; oracle runs the
        # plain vector iteration on the sampled 2x2 kernel
        w1, m1, q = 0.7, 0.5, 0.5
        pts = np.array([0.3, 0.6])
        G = np.minimum.outer(pts, pts) - np.outer(pts, pts)
        oracle = vector_fixed_point(G, np.array([w1, 0.0]),
                                    G @ np.array([0.0, m1]), q)
        p = Problem(kernel=Kernel.interval1d(),
                    sigma=Measure.atomic([0.3], [w1]),
                    mu=Measure.atomic([0.6], [m1]), q=q)
        rep = solve(p)
        assert rep.converged
        assert np.allclose(np.sort(rep.workspace.eval_sites), pts)
        assert np.allclose(rep.u_values, oracle, atol=1e-9)


class TestGridSolve:
    def test_interval_lebesgue_converges_monotone(self):
        p = Problem(kernel=Kernel.interval1d(), sigma=Measure.lebesgue(200), q=0.5)
        rep = solve(p)
        assert rep.converged and rep.monotone_ok
        assert rep.residual_sup <= 1e-7
        assert np.all(rep.u_values > 0)

    def test_interval_inhomogeneous(self):
        n = 200
        p = Problem(kernel=Kernel.interval1d(), sigma=Measure.lebesgue(n),
                    mu=Measure.grid(n, np.full(n, 0.5)), q=0.5)
        rep = solve(p)
        assert rep.converged and rep.monotone_ok
        assert np.all(rep.u_values >= rep.workspace.gmu - 1e-12)

    def test_mixed_discretizations_rejected(self):
        with pytest.raises(ValueError):
            p = Problem(kernel=Kernel.interval1d(), sigma=Measure.lebesgue(8),
                        mu=Measure.atomic([0.5], [1.0]), q=0.5)
            solve(p)


class TestValidationAndReport:
    def test_q_range(self):
        for q in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                Problem(kernel=SCALAR_ONE, sigma=ATOM, q=q)

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            Problem(kernel=SCALAR_ONE, sigma=ATOM, q=0.5, gamma=0.0)

    def test_h_defaults_to_certified_one(self):
        p = Problem(kernel=Kernel.interval1d(), sigma=Measure.lebesgue(8), q=0.5)
        assert p.h == 1.0

    def test_declared_h_below_one_rejected(self):
        with pytest.raises(ValueError, match="h must be >= 1"):
            Problem(kernel=SCALAR_ONE, sigma=ATOM, q=0.5, h=0.5)

    def test_problem_json_round_trip(self):
        p = scalar_problem(g=2.0, s=3.0, m=1.0, q=0.25, gamma=1.5)
        p2 = Problem.from_dict(p.to_dict())
        assert p2.q == p.q and p2.gamma == p.gamma and p2.h == p.h
        assert np.array_equal(p2.kernel.values, p.kernel.values)

    def test_report_dict(self):
        rep = solve(scalar_problem(g=2.0, s=3.0), keep_history=True)
        d = rep.to_dict()
        assert d["converged"] is True
        assert "norms" in d and "history" in d and "u" in d
        assert "workspace" not in d

    def test_residual_contract(self):
        # converged => reported residual is the measured fixed-point gap
        p = scalar_problem(m=1.0)
        rep = solve(p, tol=1e-9)
        u = rep.u_values[0]
        direct = abs(u - (np.sqrt(u) + 1.0))
        assert direct == pytest.approx(rep.residual_sup, abs=1e-15)
        assert rep.residual_sup <= 1e-9


class TestLazyH:
    @staticmethod
    def count_wmp_scans(monkeypatch) -> list:
        from greenlab import kernels

        original, calls = kernels.estimate_wmp_constant, []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "estimate_wmp_constant", counting)
        return calls

    def test_inhomogeneous_solve_reads_no_h(self, monkeypatch):
        # a zero diagonal leaves the WMP scan undefined; the mu != 0 branch
        # never needs h, so it solves u = sqrt(u) + 1 at both sites
        scans = self.count_wmp_scans(monkeypatch)
        both = Measure.atomic([0, 1], [1.0, 1.0])
        p = Problem(kernel=Kernel.matrix([[0.0, 1.0], [1.0, 0.0]]), sigma=both, mu=both, q=0.5)
        rep = solve(p)
        assert a_priori_check(p, rep)["satisfied"]
        assert rep.u_values == pytest.approx([(3 + np.sqrt(5)) / 2] * 2, abs=1e-9)
        assert not scans and p.to_dict()["h"] is None

    def test_h_resolved_once_on_first_read(self, monkeypatch):
        scans = self.count_wmp_scans(monkeypatch)
        G = random_green_matrix(np.random.default_rng(2), 5)
        p = Problem(kernel=Kernel.matrix(G), sigma=Measure.atomic(np.arange(5), np.ones(5)), q=0.5)
        assert not scans and p.to_dict()["h"] is None
        assert solve(p).converged and p.h == p.h == 1.0
        assert len(scans) == 1 and p.to_dict()["h"] == 1.0


def test_lower_bound_constant_on_converged_solution():
    # converged u = 36 must dominate (1-q)^(1/(1-q)) (G sigma)^(1/(1-q)) = 9
    p = scalar_problem(g=2.0, s=3.0)
    rep = solve(p)
    g_sigma = 6.0
    bound = 0.25 * g_sigma ** 2
    assert bound == 9.0
    assert rep.u_values[0] >= bound


def grid_problem(n=64, with_mu=False, kernel=None):
    mu = Measure.grid(n, np.full(n, 0.5)) if with_mu else None
    return Problem(kernel=kernel or Kernel.interval1d(), sigma=Measure.lebesgue(n),
                   mu=mu, q=0.5)


class TestOneWorkspace:
    @pytest.mark.parametrize("kernel, with_mu, ffts", [
        (Kernel.riesz(0.25, 1), False, 1), (Kernel.riesz(0.25, 1), True, 2),
        (Kernel.interval1d(), False, 0), (Kernel.interval1d(), True, 0),
    ], ids=["riesz-hom", "riesz-inh", "interval-hom", "interval-inh"])
    def test_each_operator_built_once_per_request(self, monkeypatch, kernel, with_mu,
                                                  ffts):
        # solve (conditions, sweeps), the a priori probe and the minimality
        # probe set up the sigma operator once, and the mu operator once;
        # neither the interval kernel's prefix sums nor the Riesz grid's
        # FFT builds a gram
        grams, fft_setups = count_gram_builds(monkeypatch), count_fft_setups(monkeypatch)
        p = grid_problem(with_mu=with_mu, kernel=kernel)
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=2.0)
        assert rep.converged and probe["agrees"]
        assert a_priori_check(p, rep)["c_est"] > 0.0
        assert len(grams) == 0
        assert len(fft_setups) == ffts

    def test_a_priori_probe_matches_public_estimate(self):
        # the probe applies sigma's operator on the whole evaluation set and
        # keeps sigma's sites: a subset of it on the matrices, every grid
        # cell on the grid, and gives the public estimate's bits.  On the
        # Green matrix and the grid 200 random densities add nothing to
        # Boyd's iterates; on the nonsymmetric G9 the adjoint step lifts
        # c_est above the 200-density reference
        rng = np.random.default_rng(3)
        G = random_green_matrix(rng, 6)
        sigma, mu = Measure.atomic([4, 1, 2], [0.5, 1.0, 0.7]), Measure.atomic([0, 5], [0.3, 0.6])
        subset = Problem(kernel=Kernel.matrix(G), sigma=sigma, mu=mu, q=0.5, gamma=1.2, h=1.0)
        rng = np.random.default_rng(9)
        G9 = rng.uniform(0.05, 1.0, (6, 6)) + np.diag(rng.uniform(0.5, 2.0, 6))
        sampled = Problem(kernel=Kernel.matrix(G9), sigma=sigma, mu=mu, q=0.5, gamma=1.2)
        for p in (subset, sampled, grid_problem(n=32, with_mu=True)):
            args = (p.kernel, p.sigma, (p.gamma + p.q) / p.q, p.gamma + p.q)
            report = a_priori_check(p, solve(p))
            assert report["c_est"] == estimate_norm_constant(*args)
            assert report["satisfied"]
            expected = norm_ratio_reference(*_probe_operator(p.kernel, p.sigma), *args[2:],
                                            samples=200, seed=0)
            if p is sampled:
                assert report["c_est"] == pytest.approx(3.598541, abs=1e-6)
                assert report["c_est"] >= expected
            else:
                assert report["c_est"] == expected


def _symmetric_sigma(kind: str, rng):
    """(kernel, sigma) with a symmetric kernel: a random Green matrix
    (symmetric up to the rounding of its inverse) with sigma on every
    site, or an interval or Riesz grid."""
    if kind == "matrix":
        n = 40
        return (Kernel.matrix(random_green_matrix(rng, n)),
                Measure.atomic(np.arange(n), random_weights(rng, n)))
    n = 256
    kernel = Kernel.interval1d() if kind == "interval" else Kernel.riesz(0.25, 1)
    return kernel, Measure.grid(n, random_weights(rng, n, hi=2.0))


def _probe_operator(kernel, sigma):
    op = green_operator(kernel, sigma.support_sites, sigma)
    return op, adjoint_operator(kernel, sigma, op), sigma.integration_weights, op()


class TestBoydProbe:
    @pytest.mark.parametrize("gamma, q", [(1.0, 0.5), (0.3, 0.4), (2.0, 0.9)])
    @pytest.mark.parametrize("kind", ["matrix", "interval", "riesz"])
    def test_stacked_a_priori_probe_is_no_lower_than_the_sampled_one(self, monkeypatch,
                                                                     kind, gamma, q):
        # on Green matrices and grids the a priori probe (structured
        # densities and Boyd's iterates, bit for bit the public probe) is
        # no lower than the one-at-a-time probe with 32 random densities
        # more, which holds the 5 + 32 densities of a probe without
        # iterates; it takes at most 5 + 2 * BOYD_STEPS applies of sigma's
        # operator, its adjoint's included when that is the operator
        kernel, sigma = _symmetric_sigma(kind, np.random.default_rng(11))
        p = Problem(kernel=kernel, sigma=sigma, q=q, gamma=gamma, h=1.0)
        rep = solve(p)
        assert rep.converged
        ws, rows = rep.workspace, []
        op_sigma = ws.op_sigma
        monkeypatch.setattr(ws, "op_sigma", lambda f: rows.append(len(f)) or op_sigma(f))
        c_est = a_priori_check(p, rep)["c_est"]
        assert 5 < sum(rows) <= 5 + 2 * BOYD_STEPS
        r = gamma + q
        args = (*_probe_operator(kernel, sigma), r / q, r)
        assert c_est == max_norm_ratio(*args)
        assert c_est >= norm_ratio_reference(*args, samples=32, seed=0)

    @pytest.mark.parametrize("gamma", [0.02, 0.002])
    @pytest.mark.parametrize("kind, scale", [("matrix", 1e6), ("matrix", 1e-6),
                                             ("interval", 1.0), ("riesz", 1.0)])
    def test_iterates_near_p_one_stay_in_the_float_range(self, kind, scale, gamma):
        # q = 0.9 raises each step to 1/(p - 1) = 45 or 450: every base is
        # scaled before its power, so no density the probe applies holds
        # +inf or is all zero, and the probe stays no lower than the
        # sampled one
        kernel, sigma = _symmetric_sigma(kind, np.random.default_rng(3))
        if kind == "matrix":
            kernel = Kernel.matrix(kernel.values * scale)
        r = gamma + 0.9
        op, adjoint, w, g_omega = _probe_operator(kernel, sigma)
        applied = []
        args = (lambda f: applied.append(f) or op(f), lambda g: applied.append(g) or adjoint(g),
                w, g_omega, r / 0.9, r)
        c_est = max_norm_ratio(*args)
        assert all(np.isfinite(f).all() and (f.max(axis=-1) > 0.0).all() for f in applied)
        assert c_est == norm_ratio_reference(*args, samples=0, seed=0)
        assert c_est >= norm_ratio_reference(*args, samples=32, seed=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_small_matrices_stay_below_the_brute_force_constant(self, seed):
        # both are realized ratios, so both are lower bounds on C; the grid
        # search of 400 ticks per direction misses the best density by
        # about (1/400)^2 relative, and Boyd's iterate finds no less
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        G, w = random_green_matrix(rng, n), random_weights(rng, n, allow_zero=False)
        kernel, sigma = Kernel.matrix(G), Measure.atomic(np.arange(n), w)
        for gamma, q in [(1.0, 0.5), (0.3, 0.4), (2.0, 0.9)]:
            r = gamma + q
            c = max_norm_ratio(*_probe_operator(kernel, sigma), r / q, r)
            oracle = brute_force_norm_constant(G, w, r / q, r, grid=400)
            assert oracle * (1 - 1e-12) <= c <= oracle * (1 + 1e-4)

    @pytest.mark.parametrize("seed", range(20))
    def test_nonsymmetric_matrices_are_no_lower_than_200_random_densities(self, seed):
        # the adjoint step on random nonsymmetric matrices of 2 to 29 sites,
        # every other one with a third of its off-diagonal entries 0: the
        # probe is the one-at-a-time loop bit for bit, and no lower than
        # that loop with 200 random densities more
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        G = rng.uniform(0.05, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 2.0, n))
        if seed % 2:
            G[(rng.random((n, n)) < 1 / 3) & ~np.eye(n, dtype=bool)] = 0.0
        kernel, sigma = Kernel.matrix(G), Measure.atomic(np.arange(n), random_weights(rng, n))
        op, adjoint, w, g_sigma = _probe_operator(kernel, sigma)
        assert adjoint is not op
        for gamma, q in [(1.0, 0.5), (0.3, 0.4), (2.0, 0.9)]:
            r = gamma + q
            args = (op, adjoint, w, g_sigma, r / q, r)
            c = max_norm_ratio(*args)
            assert c == norm_ratio_reference(*args, samples=0, seed=0)
            assert c >= norm_ratio_reference(*args, samples=200, seed=0)

    @pytest.mark.parametrize("kind", ["matrix", "interval", "riesz"])
    def test_quasi_norm_iterates_are_finite_and_no_lower(self, monkeypatch, kind):
        # r = gamma + q < 1: the "norm" is a quasi-norm, outside Boyd's
        # theory; the iterates still give a finite ratio, no lower than the
        # structured densities alone
        kernel, sigma = _symmetric_sigma(kind, np.random.default_rng(5))
        args = (*_probe_operator(kernel, sigma), 0.7 / 0.4, 0.7)
        c = max_norm_ratio(*args)
        monkeypatch.setattr(potentials, "BOYD_STEPS", 0)
        structured = max_norm_ratio(*args)
        assert np.isfinite(c) and c >= structured > 0.0


def _subset(rng, pool: int) -> np.ndarray:
    return rng.choice(pool, size=int(rng.integers(1, pool + 1)), replace=False)


def _instance(kind: str, rng, with_mu: bool):
    """(kernel, sigma, mu) of one of the instance families the workspace
    serves; atomic supports are random, unsorted subsets of a site pool."""
    if kind in ("grid", "riesz_grid"):
        n = int(rng.integers(3, 25))
        kernel = Kernel.interval1d() if kind == "grid" else Kernel.riesz(0.25, 1)
        sigma = Measure.grid(n, random_weights(rng, n, hi=2.0))
        mu = Measure.grid(n, random_weights(rng, n)) if with_mu else None
        return kernel, sigma, mu
    pool = int(rng.integers(2, 9))
    if kind == "matrix":
        kernel, sites = Kernel.matrix(random_green_matrix(rng, pool)), np.arange(pool)
    elif kind == "atoms":
        kernel, sites = Kernel.interval1d(), np.sort(rng.uniform(0.01, 0.99, pool))
    else:  # riesz atoms: every sigma atom has infinite self-potential
        kernel, sites = Kernel.riesz(1.0, 3), rng.uniform(-1.0, 1.0, (pool, 3))
    s_idx = _subset(rng, pool)
    sigma = Measure.atomic(sites[s_idx], random_weights(rng, len(s_idx)))
    mu = None
    if with_mu:
        m_idx = _subset(rng, pool)
        mu = Measure.atomic(sites[m_idx], random_weights(rng, len(m_idx), lo=0.05))
    return kernel, sigma, mu


def _same(a: float, b: float) -> bool:
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * abs(b)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["matrix", "atoms", "grid", "riesz_grid", "riesz_atoms"]),
       st.integers(min_value=0, max_value=2**31), st.sampled_from([0.25, 0.5, 0.75]),
       st.floats(min_value=0.3, max_value=2.0), st.booleans())
def test_workspace_conditions_match_cross_energy(kind, seed, q, gamma, with_mu):
    kernel, sigma, mu = _instance(kind, np.random.default_rng(seed), with_mu)
    p = Problem(kernel=kernel, sigma=sigma, mu=mu, q=q, gamma=gamma, h=1.0)
    got = check_conditions(p)
    assert _same(got["I_sigma"], cross_energy(kernel, sigma, (gamma + q) / (1.0 - q), sigma))
    if kind == "riesz_atoms":
        assert np.isinf(got["I_sigma"])
    if p.mu_is_zero:
        assert got["I_mu"] == 0.0 and got["I_cross"] == 0.0
    else:
        assert _same(got["I_mu"], cross_energy(kernel, mu, gamma, mu))
        assert _same(got["I_cross"], cross_energy(kernel, mu, gamma + q, sigma))


def test_interval_solve_at_scale_builds_no_gram(monkeypatch):
    # N = 2^15 cells: the sweep runs on prefix sums (a dense gram would
    # take 8.6 GB); the returned u is checked against the interval kernel
    # applied directly at every 8th cell, 128 target rows at a time
    calls = count_gram_builds(monkeypatch)
    n = 2 ** 15
    rng = np.random.default_rng(11)
    p = Problem(kernel=Kernel.interval1d(), sigma=Measure.grid(n, rng.uniform(0.5, 1.5, n)),
                mu=Measure.grid(n, rng.uniform(0.0, 1.0, n)), q=0.5, gamma=1.0)
    rep = solve(p)
    assert rep.converged and rep.monotone_ok and not calls
    x = p.sigma.midpoints
    v = rep.u_values ** p.q * p.sigma.integration_weights + p.mu.integration_weights
    resid = 0.0
    for i in range(0, n, 8 * 128):
        rows = slice(i, i + 8 * 128, 8)
        gram = np.minimum.outer(x[rows], x) - np.outer(x[rows], x)
        resid = max(resid, float(np.max(np.abs(rep.u_values[rows] - gram @ v))))
    assert resid <= p.default_tol()


def test_riesz_grid_solve_at_scale_builds_no_gram(monkeypatch):
    # N = 2^16 cells: the sweep runs on the FFT (a dense gram would take
    # 32 GB); the returned u is checked against the Toeplitz quadrature
    # written out here, applied at every 64th cell, 16 target rows at a time
    calls = count_gram_builds(monkeypatch)
    n, alpha = 2 ** 16, 0.25
    rng = np.random.default_rng(12)
    p = Problem(kernel=Kernel.riesz(alpha, 1), sigma=Measure.grid(n, rng.uniform(0.5, 1.5, n)),
                mu=Measure.grid(n, rng.uniform(0.0, 1.0, n)), q=0.5, gamma=1.0)
    rep = solve(p)
    assert rep.converged and rep.monotone_ok and not calls
    width, expo = 1.0 / n, 2.0 * alpha - 1.0
    sub = np.abs((np.arange(16) + 0.5) / 16 - 0.5) * width
    col = np.concatenate(([np.mean(sub ** expo)], (np.arange(1, n) * width) ** expo))
    v = rep.u_values ** p.q * p.sigma.integration_weights + p.mu.integration_weights
    cells = np.arange(n)
    resid = 0.0
    for i in range(0, n, 64 * 16):
        rows = cells[i:i + 64 * 16:64]
        image = col[np.abs(rows[:, None] - cells[None, :])] @ v
        resid = max(resid, float(np.max(np.abs(rep.u_values[rows] - image))))
    assert resid <= p.default_tol()
