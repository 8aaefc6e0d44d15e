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
from tests.helpers import (
    count_gram_builds,
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
        assert np.all(rep.u_values >= rep.gmu_values - 1e-12)

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
        rep = solve(p, c_est=1.0)
        ap = rep.a_priori
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
        rep = solve(p, c_est=1.0)
        assert rep.a_priori["c"] == 1.0

    def test_c_above_one_otherwise(self):
        p = scalar_problem(m=1.0, q=0.25, gamma=0.25)  # gamma + q = 0.5
        rep = solve(p, c_est=1.0)
        assert rep.a_priori["c"] == pytest.approx(2.0 ** ((1 - 0.5) / 0.5))

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
        assert np.allclose(np.sort(rep.eval_sites), pts)
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
        assert np.all(rep.u_values >= rep.gmu_values - 1e-12)

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


def test_lower_bound_constant_on_converged_solution():
    # converged u = 36 must dominate (1-q)^(1/(1-q)) (G sigma)^(1/(1-q)) = 9
    p = scalar_problem(g=2.0, s=3.0)
    rep = solve(p)
    g_sigma = 6.0
    bound = 0.25 * g_sigma ** 2
    assert bound == 9.0
    assert rep.u_values[0] >= bound


def grid_problem(n=64, with_mu=False):
    mu = Measure.grid(n, np.full(n, 0.5)) if with_mu else None
    return Problem(kernel=Kernel.interval1d(), sigma=Measure.lebesgue(n), mu=mu, q=0.5)


class TestOneWorkspace:
    @pytest.mark.parametrize("with_mu, builds", [(False, 1), (True, 2)])
    def test_each_operator_built_once_per_request(self, monkeypatch, with_mu, builds):
        # solve (conditions, sweeps, a priori probe) plus the minimality
        # probe build the sigma operator once, and the mu operator once
        calls = count_gram_builds(monkeypatch)
        p = grid_problem(with_mu=with_mu)
        rep = solve(p)
        probe = minimality_probe(p, rep, v0_scale=2.0)
        assert rep.converged and probe["agrees"]
        assert (rep.a_priori is not None) == with_mu
        assert len(calls) == builds

    def test_a_priori_probe_matches_public_estimate(self):
        # subset supports make the workspace copy sigma's rows; the grid
        # uses its gram as it is
        rng = np.random.default_rng(3)
        G = random_green_matrix(rng, 6)
        subset = Problem(kernel=Kernel.matrix(G), sigma=Measure.atomic([4, 1, 2], [0.5, 1.0, 0.7]),
                         mu=Measure.atomic([0, 5], [0.3, 0.6]), q=0.5, gamma=1.2, h=1.0)
        for p in (subset, grid_problem(n=32, with_mu=True)):
            rep = solve(p)
            expected = estimate_norm_constant(p.kernel, p.sigma, (p.gamma + p.q) / p.q,
                                              p.gamma + p.q, samples=32, seed=0)
            assert rep.a_priori["c_est"] == expected


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
