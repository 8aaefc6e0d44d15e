from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (
    Field,
    Kernel,
    Measure,
    Problem,
    check_norm_equivalence,
    check_hardy,
    check_hls_condition,
    check_iterated,
    check_lower_bound,
    check_relation_chain,
    cross_energy,
    domain_sites,
    estimate_norm_constant,
    exponent_table,
    ibp_check,
    iterated_potential,
    potential,
    solve,
)
from greenlab import extreal
from tests.helpers import (
    brute_force_norm_constant,
    count_fft_setups,
    count_gram_builds,
    random_green_matrix,
    random_weights,
)

K22 = Kernel.matrix([[2.0, 1.0], [1.0, 2.0]])
OM22 = Measure.atomic([0, 1], [1.0, 1.0])


class TestLowerBound:
    def test_scalar_closed_form(self):
        k = Kernel.matrix([[2.0]])
        om = Measure.atomic([0], [3.0])
        u = Field(om, [36.0])
        rep = check_lower_bound(k, om, 0.5, u, h=1.0)
        assert rep.passed
        assert rep.constant_used == pytest.approx(0.25)
        assert rep.margin == pytest.approx(36.0 - 9.0)

    def test_constant_value_at_q_half(self):
        # (1-q)^(1/(1-q)) h^(-q/(1-q)) at q = 1/2, h = 1
        k = Kernel.matrix([[1.0]])
        om = Measure.atomic([0], [1.0])
        rep = check_lower_bound(k, om, 0.5, Field(om, [1.0]), h=1.0)
        assert rep.constant_used == 0.25

    def test_hypothesis_failure_reported_not_judged(self):
        k = Kernel.matrix([[2.0]])
        om = Measure.atomic([0], [3.0])
        u = Field(om, [1.0])  # far below G(u^q d omega) = 6
        rep = check_lower_bound(k, om, 0.5, u, h=1.0)
        assert not rep.passed
        assert rep.details["status"] == "hypothesis-fail"

    def test_converged_solutions_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            k = Kernel.matrix(random_green_matrix(rng, n))
            om = Measure.atomic(np.arange(n), random_weights(rng, n))
            q = float(rng.choice([0.25, 0.5, 0.75]))
            p = Problem(kernel=k, sigma=om, q=q, h=1.0)
            rep_solve = solve(p)
            assert rep_solve.converged
            rep = check_lower_bound(k, om, q, rep_solve.u_on_sigma(), h=1.0)
            assert rep.passed

    def test_inhomogeneous_solutions_also_dominate(self):
        # u = G(u^q d sigma) + G mu >= G(u^q d sigma), so the bound with
        # omega := sigma applies to the inhomogeneous branch too
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = Kernel.matrix(random_green_matrix(rng, n))
            sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
            mu = Measure.atomic(np.arange(n), random_weights(rng, n, lo=0.05))
            p = Problem(kernel=k, sigma=sigma, mu=mu, q=0.5, h=1.0)
            rep_solve = solve(p)
            assert rep_solve.converged
            rep = check_lower_bound(k, sigma, 0.5, rep_solve.u_on_sigma(), h=1.0)
            assert rep.passed


class TestIterated:
    def test_s_one_equality(self):
        rep = check_iterated(K22, OM22, 1.0, h=1.0)
        assert rep.passed and rep.margin <= 1e-12

    def test_s_two(self):
        rep = check_iterated(K22, OM22, 2.0, h=1.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(9.0) and rep.rhs == pytest.approx(18.0)

    def test_s_half(self):
        rep = check_iterated(K22, OM22, 0.5, h=1.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(np.sqrt(3.0))
        assert rep.rhs == pytest.approx(0.5 * np.sqrt(3.0))

    def test_underdeclared_h_fails_off_support(self):
        # atom at site 0 only: the potential peaks off the support, so the
        # upper iterated inequality with h = 1 must be caught as false
        k = Kernel.matrix([[1.0, 10.0], [10.0, 1.0]])
        om = Measure.atomic([0], [1.0])
        rep = check_iterated(k, om, 2.0, h=1.0)
        assert not rep.passed
        # with the certified lower bound for h it holds again
        rep_ok = check_iterated(k, om, 2.0, h=10.0)
        assert rep_ok.passed

    def test_infinite_values_count_as_equal(self):
        k = Kernel.riesz(1.0, 3)
        om = Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0])
        rep = check_iterated(k, om, 2.0, h=1.0)
        assert rep.passed

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=0, max_value=2**31),
           st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.7]))
    def test_certified_family_never_fails(self, n, seed, s):
        rng = np.random.default_rng(seed)
        k = Kernel.matrix(random_green_matrix(rng, n))
        om = Measure.atomic(np.arange(n), random_weights(rng, n))
        from greenlab import estimate_wmp_constant

        h = estimate_wmp_constant(k, samples=8, seed=0)
        assert check_iterated(k, om, s, h=h).passed


class TestNormConstant:
    def test_scalar_identity(self):
        k = Kernel.matrix([[1.0]])
        om = Measure.atomic([0], [1.0])
        assert estimate_norm_constant(k, om, 2.0, 1.0) == pytest.approx(1.0)

    def test_scalar_scales_linearly(self):
        om = Measure.atomic([0], [1.0])
        for c in (0.5, 2.0, 7.0):
            k = Kernel.matrix([[c]])
            got = estimate_norm_constant(k, om, 3.0, 1.5)
            assert got == pytest.approx(c, rel=1e-12)

    def test_two_by_two_against_grid_oracle(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = np.array([1.0, 1.0])
        oracle = brute_force_norm_constant(G, w, 3.0, 1.5, grid=200)
        got = estimate_norm_constant(K22, OM22, 3.0, 1.5, samples=200, seed=0)
        assert got <= oracle * (1 + 1e-9)  # both are lower bounds on C
        assert abs(got - oracle) / oracle < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, OM22, 1.0, 0.5)
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, OM22, 2.0, 2.5)
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, Measure.atomic([0, 1], [0.0, 0.0]), 2.0, 1.0)

    def test_monotone_in_samples(self):
        rng = np.random.default_rng(3)
        k = Kernel.matrix(random_green_matrix(rng, 5))
        om = Measure.atomic(np.arange(5), random_weights(rng, 5))
        vals = [estimate_norm_constant(k, om, 2.5, 1.25, samples=s, seed=9)
                for s in (1, 8, 64)]
        assert vals[0] <= vals[1] <= vals[2]


class TestEquivalence:
    def test_scalar(self):
        k = Kernel.matrix([[1.0]])
        om = Measure.atomic([0], [1.0])
        rep = check_norm_equivalence(k, om, 2.0, 1.0)
        assert rep.passed and rep.details["branch"] == "finite-energy"

    def test_two_by_two_energy_54(self):
        rep = check_norm_equivalence(K22, OM22, 3.0, 1.5)
        assert rep.details["energy"] == pytest.approx(54.0)
        assert rep.passed

    def test_riesz_atomic_infinite_branch(self):
        k = Kernel.riesz(1.0, 3)
        om = Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0])
        rep = check_norm_equivalence(k, om, 3.0, 1.5, samples=8)
        assert rep.details["branch"] == "infinite-energy"
        assert rep.passed  # the estimated constant blows up as it must


class TestRelationLemma:
    def scalar_instance(self, q, gamma):
        k = Kernel.matrix([[1.0]])
        one = Measure.atomic([0], [1.0])
        return check_relation_chain(k, one, one, q, gamma, h=1.0)

    def test_case1_all_ones(self):
        rep = self.scalar_instance(0.5, 1.0)
        assert rep.details["case"] == 1
        assert rep.passed and rep.constant_used >= 1.0
        assert np.isfinite(rep.details["I_cross"])

    def test_case2_all_ones(self):
        rep = self.scalar_instance(0.5, 0.25)
        assert rep.details["case"] == 2
        assert rep.passed

    def test_case3_all_ones_and_admissible_window(self):
        rep = self.scalar_instance(0.5, 0.5)
        assert rep.details["case"] == 3
        a = rep.details["factors"]["a"]
        assert 1.0 / (2.0 - 0.5) < a < 1.0
        assert a == pytest.approx((1.0 + 1.0 / 1.5) / 2.0)
        assert rep.passed

    def test_hypothesis_fail_branch(self):
        k = Kernel.riesz(1.0, 3)
        om = Measure.atomic([(0.0, 0.0, 0.0)], [1.0])
        rep = check_relation_chain(k, om, om, 0.5, 1.0, h=1.0)
        assert rep.details["status"] == "hypothesis-fail"
        assert not rep.passed

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=2**31),
           st.sampled_from([1, 2, 3]))
    def test_randomized_cases(self, n, seed, case):
        rng = np.random.default_rng(seed)
        k = Kernel.matrix(random_green_matrix(rng, n))
        sigma = Measure.atomic(np.arange(n), random_weights(rng, n))
        mu = Measure.atomic(np.arange(n), random_weights(rng, n))
        q = float(rng.uniform(0.1, 0.9))
        if case == 1:
            gamma = (1.0 - q) + float(rng.uniform(0.05, 1.5))
        elif case == 2:
            gamma = (1.0 - q) * float(rng.uniform(0.1, 0.9))
        else:
            gamma = 1.0 - q
        rep = check_relation_chain(k, sigma, mu, q, gamma, h=1.0)
        assert rep.details["case"] == case
        assert rep.passed


class TestHardy:
    def setup_method(self):
        self.kernel = Kernel.interval1d()

    def ratios(self, n, phi_fn):
        om = Measure.lebesgue(n)
        u = potential(self.kernel, om)
        phi = Field(om, phi_fn(om.midpoints))
        return check_hardy(u, om, phi)

    def test_sine_is_finite_and_order_one(self):
        out = self.ratios(2000, lambda x: np.sin(np.pi * x))
        assert not out["zero_denominator"]
        assert 0.1 <= out["ratio_a"] <= 10.0
        assert 0.1 <= out["ratio_b"] <= 10.0

    def test_zero_phi_flagged(self):
        out = self.ratios(500, lambda x: np.zeros_like(x))
        assert out["zero_denominator"]
        assert out["ratio_a"] == 0.0 and out["ratio_b"] == 0.0

    def test_phi_equal_u_finite(self):
        om = Measure.lebesgue(1000)
        u = potential(self.kernel, om)
        out = check_hardy(u, om, Field(om, u.values.copy()))
        assert np.isfinite(out["ratio_a"]) and np.isfinite(out["ratio_b"])

    def test_refinement_stability(self):
        coarse = self.ratios(250, lambda x: np.sin(np.pi * x))
        fine = self.ratios(2000, lambda x: np.sin(np.pi * x))
        for key in ("ratio_a", "ratio_b"):
            assert fine[key] / coarse[key] < 2.0
            assert coarse[key] / fine[key] < 2.0

    def test_endpoint_violation_rejected(self):
        with pytest.raises(ValueError):
            self.ratios(500, lambda x: np.ones_like(x))


class TestExponents:
    def test_reference_row(self):
        t = exponent_table(3, 2.0, 0.5)
        assert t["gamma"] == 1.0
        assert t["r"] == 3.0
        assert t["s"] == 1.0
        assert t["r2"] == pytest.approx(4.0 / 3.0)
        assert t["s2"] == pytest.approx(6.0 / 5.0)
        assert t["p_of_gamma"] == pytest.approx(2.0, abs=1e-12)

    def test_round_trip_sampled(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            lo = n / (n - 1.0)
            p = float(rng.uniform(lo + 1e-6, 2.0))
            t = exponent_table(n, p, 0.5)
            assert abs(t["p_of_gamma"] - p) <= 1e-12
            assert 0.0 < t["gamma"] <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=10),
           st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=0.05, max_value=0.95))
    def test_round_trip_property(self, n, frac, q):
        lo = n / (n - 1.0)
        p = lo + frac * (2.0 - lo)
        if p <= lo or p > 2.0:
            return
        t = exponent_table(n, p, q)
        assert abs(t["p_of_gamma"] - p) <= 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            exponent_table(3, 1.5 - 1e-9, 0.5)  # p <= n/(n-1)
        with pytest.raises(ValueError):
            exponent_table(3, 2.5, 0.5)
        with pytest.raises(ValueError):
            exponent_table(2, 1.9, 0.5)


class TestHls:
    def test_exponent_value(self):
        rep = check_hls_condition(1.0, 3, 1.0, Measure.atomic([(0.0, 0.0, 0.0),
                                                               (1.0, 1.0, 1.0)],
                                                              [0.5, 0.5]))
        assert rep.details["s"] == pytest.approx(6.0 / 5.0)

    def test_unit_cube_lattice(self):
        pts = [(i / 10 + 0.05, j / 10 + 0.05, k / 10 + 0.05)
               for i in range(10) for j in range(10) for k in range(10)]
        om = Measure.atomic(pts, np.full(1000, 1e-3))
        rep = check_hls_condition(1.0, 3, 1.0, om)
        assert rep.passed
        assert np.isfinite(rep.details["energy"])
        assert np.isfinite(rep.details["ls_norm"])
        assert rep.details["self_interaction"] == "dropped"

    def test_beta_to_zero_limit(self):
        for beta in (1e-3, 1e-6, 1e-9):
            s = 3 * (beta + 1.0) / (3 + 2.0 * beta)
            assert s > 1.0
            assert s == pytest.approx(1.0, abs=2e-3 if beta == 1e-3 else 1e-5)

    def test_grid_proxy(self):
        om = Measure.lebesgue(200)
        rep = check_hls_condition(1.0, 3, 1.0, om)
        assert rep.passed

    @pytest.mark.parametrize("entries", [2**18, 500])
    @pytest.mark.parametrize("m, dim", [(300, 3), (129, 9)])
    def test_energy_is_the_one_shot_pairwise_sum(self, m, dim, entries):
        # the potential is built in row blocks (one row per block at 500
        # entries); the reference builds the whole (m, m, dim) difference
        # array at once, for any dimension
        rng = np.random.default_rng(m)
        pts, w = rng.uniform(-1.0, 1.0, (m, dim)), rng.uniform(0.0, 1.0, m)
        diff = pts[:, None, :] - pts[None, :, :]
        with np.errstate(divide="ignore"):
            gram = np.sqrt(np.sum(diff * diff, axis=-1)) ** (2.0 * 1.2 - dim)
        np.fill_diagonal(gram, 0.0)
        energy = np.sum(w * np.sum(gram * w, axis=-1))
        with mock.patch.object(extreal, "_BLOCK_ENTRIES", entries):
            rep = check_hls_condition(1.2, dim, 1.0, Measure.atomic(pts, w))
        assert rep.details["energy"] == energy

    def test_parameter_validation(self):
        om = Measure.atomic([(0.0, 0.0, 0.0)], [1.0])
        with pytest.raises(ValueError):
            check_hls_condition(2.0, 3, 1.0, om)
        with pytest.raises(ValueError):
            check_hls_condition(1.0, 3, 0.0, om)


def test_reports_are_deterministic():
    rep1 = check_iterated(K22, OM22, 2.0, h=1.0)
    rep2 = check_iterated(K22, OM22, 2.0, h=1.0)
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.instance_digest == rep2.instance_digest


@pytest.mark.parametrize("run, builds, ffts", [
    (lambda: check_iterated(Kernel.interval1d(), Measure.lebesgue(40), 2.0, h=1.0), 0, 0),
    (lambda: check_iterated(Kernel.riesz(0.25, 1), Measure.lebesgue(40), 0.5, h=1.0), 0, 1),
    (lambda: check_norm_equivalence(K22, OM22, 3.0, 1.5, samples=8), 1, 0),
    (lambda: ibp_check(Kernel.interval1d(), Measure.lebesgue(40), 2.0), 0, 0),
    (lambda: check_relation_chain(Kernel.interval1d(), Measure.lebesgue(40),
                                  Measure.grid(40, np.full(40, 0.5)), 0.5, 1.0, h=1.0), 0, 0),
    (lambda: check_relation_chain(Kernel.riesz(0.25, 1), Measure.lebesgue(40),
                                  Measure.grid(40, np.full(40, 0.5)), 0.5, 1.0, h=1.0), 0, 2),
    (lambda: iterated_potential(K22, OM22, 2.0), 1, 0),
    (lambda: iterated_potential(Kernel.riesz(0.25, 1), Measure.lebesgue(64), 2.0), 0, 1),
], ids=["iterated-interval", "iterated-riesz", "norm-equivalence", "ibp", "relation-chain",
        "relation-chain-riesz", "iterated-potential-matrix", "iterated-potential-riesz"])
def test_each_check_builds_its_gram_once(monkeypatch, run, builds, ffts):
    # interval kernels build no gram: their operators are prefix sums; a
    # Riesz kernel on a grid, evaluated at its midpoints, sets up one FFT
    grams, fft_setups = count_gram_builds(monkeypatch), count_fft_setups(monkeypatch)
    run()
    assert len(grams) == builds
    assert len(fft_setups) == ffts


def _chain_instance(kind: str, rng):
    """(kernel, sigma, mu) for the relation chain, including inputs a solver
    workspace refuses: mixed grid/atomic measures and a zero-mass sigma."""
    n = int(rng.integers(3, 20))
    grid = Measure.grid(n, random_weights(rng, n, hi=2.0))
    if kind == "matrix":
        k = Kernel.matrix(random_green_matrix(rng, n))
        sub = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        return k, Measure.atomic(sub, random_weights(rng, len(sub))), \
            Measure.atomic(np.arange(n)[::-1], random_weights(rng, n, lo=0.05))
    if kind == "riesz_atoms":
        sites = rng.uniform(-1.0, 1.0, (n, 3))
        return Kernel.riesz(1.0, 3), Measure.atomic(sites, random_weights(rng, n)), \
            Measure.atomic(sites[:2], [0.5, 0.3])
    atoms = Measure.atomic(rng.uniform(0.01, 0.99, (3, 1)), random_weights(rng, 3, lo=0.05))
    if kind == "interval_mixed":
        return Kernel.interval1d(), grid, Measure.atomic(atoms.sites[:, 0], atoms.weights)
    if kind == "riesz_mixed":  # mu's sites have shape (3, 1), the grid's (n,)
        return Kernel.riesz(0.25, 1), grid, atoms
    if kind == "riesz_grid":  # one grid: both operators take the FFT path
        return Kernel.riesz(0.25, 1), grid, Measure.grid(n, random_weights(rng, n, lo=0.05))
    return Kernel.interval1d(), Measure.grid(n, np.zeros(n)), grid  # zero-mass sigma


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["matrix", "riesz_atoms", "interval_mixed", "riesz_mixed",
                        "riesz_grid", "zero_sigma"]),
       st.integers(min_value=0, max_value=2**31), st.sampled_from([0.25, 0.5, 0.75]),
       st.floats(min_value=0.3, max_value=2.0))
def test_relation_chain_integrals_are_cross_energy(kind, seed, q, gamma):
    kernel, sigma, mu = _chain_instance(kind, np.random.default_rng(seed))
    rep = check_relation_chain(kernel, sigma, mu, q, gamma, h=1.0)
    d = rep.details
    assert d["I_sigma"] == cross_energy(kernel, sigma, (gamma + q) / (1.0 - q), sigma)
    assert d["I_mu"] == cross_energy(kernel, mu, gamma, mu)
    if np.isfinite(d["I_sigma"]) and np.isfinite(d["I_mu"]):
        assert d["I_cross"] == cross_energy(kernel, mu, gamma + q, sigma)
    else:  # Riesz atoms carry +inf self-potentials
        assert kind in ("riesz_atoms", "riesz_mixed") and d["status"] == "hypothesis-fail"


def test_iterated_sides_are_the_reference_potentials():
    # unsorted atoms: the evaluation set is sorted, omega's own order is not
    k = Kernel.interval1d()
    om = Measure.atomic([0.7, 0.2, 0.5], [0.3, 1.0, 0.6])
    for s in (0.5, 2.0):
        rep = check_iterated(k, om, s, h=1.0)
        targets = domain_sites(k, om)[0]
        assert rep.lhs in potential(k, om, targets).values ** s
        assert rep.rhs in s * iterated_potential(k, om, s, targets).values
