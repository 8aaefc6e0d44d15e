import tracemalloc
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
from greenlab import extreal, verify
from greenlab.potentials import BOYD_STEPS, adjoint_operator, green_operator, max_norm_ratio
from tests.helpers import (
    brute_force_norm_constant,
    count_fft_setups,
    count_gram_builds,
    norm_ratio_reference,
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
        got = estimate_norm_constant(K22, OM22, 3.0, 1.5)
        assert got <= oracle * (1 + 1e-9)  # both are lower bounds on C
        assert abs(got - oracle) / oracle < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, OM22, 1.0, 0.5)
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, OM22, 2.0, 2.5)
        with pytest.raises(ValueError):
            estimate_norm_constant(K22, Measure.atomic([0, 1], [0.0, 0.0]), 2.0, 1.0)


def _probe_case(kind: str):
    """(kernel, omega) on three sites: an interval grid, a Riesz grid (FFT
    path) and a nonsymmetric matrix, where a step through A in place of
    its adjoint fell below 200 random densities."""
    values = np.array([0.5, 1.0, 2.0])
    if kind == "interval":
        return Kernel.interval1d(), Measure.grid(3, values)
    if kind == "riesz_grid":
        return Kernel.riesz(0.25, 1), Measure.grid(3, values)
    G = np.array([[1.0, 30.0, 0.1], [0.02, 1.0, 5.0], [0.3, 0.05, 1.0]])
    return Kernel.matrix(G), Measure.atomic(np.arange(3), np.ones(3))


@pytest.mark.parametrize("kind", ["interval", "riesz_grid", "matrix"])
def test_stacked_probe_is_the_one_at_a_time_loop(kind):
    # the blocked probe against the one-density-per-apply loop, with blocks
    # of 2^7 entries, so the 5 structured densities on 3 sites go 2, 2
    # and 1 to a stack: the same densities in the same order, Boyd's
    # iterates included, and the same maximum bit for bit, which is no
    # lower than the loop with 200 random densities more
    kernel, omega = _probe_case(kind)
    op = green_operator(kernel, omega.support_sites, omega)
    adjoint = adjoint_operator(kernel, omega, op)
    assert (adjoint is op) == (kind != "matrix")
    args = (omega.integration_weights, op(), 3.0, 1.5)

    def recording(seen):
        return lambda f: seen.append(f.copy()) or op(f)

    with mock.patch.object(extreal, "_BLOCK_ENTRIES", 2**7):
        blocks, rows = [], []
        got = max_norm_ratio(recording(blocks), adjoint, *args)
        assert type(got) is float
        assert got == norm_ratio_reference(recording(rows), adjoint, *args, samples=0, seed=0)
    sizes = [len(b) for b in blocks]
    assert sizes[:3] == [2, 2, 1] and 0 < len(sizes) - 3 <= BOYD_STEPS
    assert set(sizes[3:]) == {1}
    assert np.concatenate(blocks).tobytes() == np.stack(rows).tobytes()
    assert got == estimate_norm_constant(kernel, omega, 3.0, 1.5)
    assert got >= norm_ratio_reference(op, adjoint, *args, samples=200, seed=0)
    if kind == "matrix":
        assert got == pytest.approx(30.427264, abs=1e-6)


@pytest.mark.parametrize("kernel", [Kernel.interval1d(), Kernel.riesz(0.25, 1)],
                         ids=["interval", "riesz_grid"])
def test_norm_constant_probe_memory_is_one_block(kernel):
    # on 2^14 cells the probe, structured densities in blocks and Boyd's
    # iterates one at a time, stays under 8 MiB
    omega = Measure.lebesgue(2**14)
    tracemalloc.start()
    try:
        estimate_norm_constant(kernel, omega, 3.0, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
        rep = check_norm_equivalence(k, om, 3.0, 1.5)
        assert rep.details["branch"] == "infinite-energy"
        assert rep.passed  # the estimated constant blows up as it must

    def test_a_floor_past_the_float_range_is_not_cleared(self, monkeypatch):
        # 1e100-weighted cells: the energy is finite, and its power, the
        # floor, passes the float range; +inf, which no finite constant
        # clears, though the probe here reads 1
        monkeypatch.setattr(verify, "max_norm_ratio", lambda *args: 1.0)
        om = Measure.grid(8, np.full(8, 1e100))
        rep = check_norm_equivalence(Kernel.interval1d(), om, 3.0, 0.1)
        assert rep.details["branch"] == "finite-energy" and np.isfinite(rep.details["energy"])
        assert (rep.lhs, rep.rhs, rep.passed) == (1.0, np.inf, False)

    @pytest.mark.parametrize("p, r", [(1.5, 1.5), (3.0, 3.0), (2.0, 2.5)])
    def test_r_not_below_p_is_refused(self, p, r):
        # before the energy exponent p*r/(p-r) divides by zero
        with pytest.raises(ValueError, match=r"r must lie in \(0, p\)"):
            check_norm_equivalence(K22, OM22, p, r, h=1.0)


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

    @pytest.mark.parametrize("declared_a", [None, 3.0])
    def test_declared_quasi_symmetry_enters_the_chain(self, declared_a):
        # the kernel's declared_a is the chain's quasi-symmetry factor, else
        # the exact scan (2 for this matrix)
        k = Kernel.matrix([[2.0, 2.0], [1.0, 2.0]], declared_a=declared_a)
        om = Measure.atomic([0, 1], [1.0, 1.0])
        rep = check_relation_chain(k, om, om, 0.5, 1.0, h=1.0)
        assert rep.details["factors"]["quasi_symmetry"] == (declared_a or 2.0)

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
        return check_hardy(self.kernel, om, phi_fn(om.midpoints)).details

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
        out = check_hardy(self.kernel, om, u.values.copy()).details
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


def _lattice_points(axes, order):
    """The product lattice of the per-axis coordinates, atoms in ``order``."""
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    return pts[order]


def _block_sum_hls(alpha, n, beta, omega):
    """check_hls_condition with the lattice path switched off."""
    with mock.patch.object(verify, "_lattice", return_value=None):
        return check_hls_condition(alpha, n, beta, omega)


@st.composite
def lattices(draw, min_first=1):
    """Points filling a lattice in [-1, 1]^d, d = 1..4, 1..9 points per
    axis spaced by np.linspace or (i + 0.5)/L, in shuffled order."""
    d = draw(st.integers(1, 4))
    sizes = [draw(st.integers(min_first, 9))]
    sizes += [draw(st.integers(1, 9 if d < 4 else 5)) for _ in range(d - 1)]
    axes = [np.linspace(-1.0, 1.0, L) if draw(st.booleans()) else (np.arange(L) + 0.5) / L
            for L in sizes]
    m = int(np.prod(sizes))
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(m)
    return sizes, axes, order


class TestHlsLattice:
    """On a uniform lattice the HLS potential is an FFT product; elsewhere
    it is the block sum, which stays the reference."""

    @settings(max_examples=60, deadline=None)
    @given(lattice=lattices(), zeros=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.95),
           beta=st.sampled_from([0.5, 1.0, 2.0]))
    def test_lattice_path_agrees_with_the_block_sum(self, lattice, zeros, seed, frac, beta):
        # weights in [0.01, 1], each zero with probability ``zeros``
        sizes, axes, order = lattice
        pts = _lattice_points(axes, order)
        rng = np.random.default_rng(seed)
        w = np.where(rng.random(len(pts)) < zeros, 0.0, rng.uniform(0.01, 1.0, len(pts)))
        assert verify._lattice(pts)[0] == tuple(sizes)
        n = len(sizes)
        om = Measure.atomic(pts, w)
        rep = check_hls_condition(frac * n / 2.0, n, beta, om)
        ref = _block_sum_hls(frac * n / 2.0, n, beta, om)
        assert abs(rep.lhs - ref.lhs) <= 1e-13 * ref.lhs
        assert rep.rhs == ref.rhs and rep.passed == ref.passed

    @settings(max_examples=40, deadline=None)
    @given(lattice=lattices(), frac=st.floats(0.05, 0.95))
    def test_a_positive_density_takes_the_lattice_path(self, lattice, frac):
        # no distance power is computed: the block sum does not run
        sizes, axes, order = lattice
        pts = _lattice_points(axes, order)
        w = np.random.default_rng(len(pts)).uniform(0.5, 1.0, len(pts))
        with mock.patch.object(verify, "distance_powers", side_effect=AssertionError):
            rep = check_hls_condition(frac * len(sizes) / 2.0, len(sizes), 1.0,
                                      Measure.atomic(pts, w))
        assert np.isfinite(rep.lhs)

    def test_degenerate_axis(self):
        axes = [np.linspace(-1.0, 1.0, 5), np.array([0.3]), (np.arange(4) + 0.5) / 4]
        pts = _lattice_points(axes, np.arange(20))
        assert verify._lattice(pts)[0] == (5, 1, 4)
        om = Measure.atomic(pts, np.linspace(0.1, 1.0, 20))
        rep, ref = check_hls_condition(1.0, 3, 1.0, om), _block_sum_hls(1.0, 3, 1.0, om)
        assert abs(rep.lhs - ref.lhs) <= 1e-13 * ref.lhs

    def test_mass_on_few_atoms_takes_the_block_sum(self):
        # the FFT's rounding is about eps times the largest potential, far
        # above the potential at an atom that sees almost no other mass
        ax = (np.arange(12) + 0.5) / 12
        pts = _lattice_points([ax, ax, ax], np.arange(12**3))
        w = np.zeros(12**3)
        w[3], w[100] = 1.0, 1e-12
        om = Measure.atomic(pts, w)
        assert check_hls_condition(1.0, 3, 1.0, om).lhs == _block_sum_hls(1.0, 3, 1.0, om).lhs

    def test_grid_proxy_is_a_lattice(self):
        om = Measure.lebesgue(200)
        with mock.patch.object(verify, "distance_powers", side_effect=AssertionError):
            rep = check_hls_condition(1.0, 3, 1.0, om)
        assert abs(rep.lhs - _block_sum_hls(1.0, 3, 1.0, om).lhs) <= 1e-13 * rep.lhs

    @settings(max_examples=40, deadline=None)
    @given(lattice=lattices(min_first=4), move=st.booleans(), at=st.integers(0, 10**6))
    def test_off_lattice_takes_the_block_sum(self, lattice, move, at):
        # one atom moved by 1e-9, or the lattice point with index 1 on the
        # first axis and 0 elsewhere left out (never a corner, so no axis
        # loses a coordinate)
        sizes, axes, order = lattice
        pts = _lattice_points(axes, np.arange(int(np.prod(sizes))))
        if move:
            pts[at % len(pts), at % len(sizes)] += 1e-9
        else:
            pts = np.delete(pts, int(np.prod(sizes[1:])), axis=0)
        pts = pts[np.random.default_rng(at).permutation(len(pts))]
        assert verify._lattice(pts) is None
        w = np.random.default_rng(at).uniform(0.5, 1.0, len(pts))
        om = Measure.atomic(pts, w)
        n = len(sizes)
        rep, ref = check_hls_condition(0.4 * n, n, 1.0, om), _block_sum_hls(0.4 * n, n, 1.0, om)
        assert rep.lhs == ref.lhs
        # the block sum is the one-shot pairwise sum
        diff = pts[:, None, :] - pts[None, :, :]
        with np.errstate(divide="ignore"):
            gram = np.sqrt(np.sum(diff * diff, axis=-1)) ** (0.8 * n - n)
        np.fill_diagonal(gram, 0.0)
        assert rep.lhs == np.sum(w * np.sum(gram * w, axis=-1))


def test_reports_are_deterministic():
    rep1 = check_iterated(K22, OM22, 2.0, h=1.0)
    rep2 = check_iterated(K22, OM22, 2.0, h=1.0)
    assert rep1.to_dict() == rep2.to_dict()
    assert rep1.instance_digest == rep2.instance_digest


@pytest.mark.parametrize("run, builds, ffts", [
    (lambda: check_iterated(Kernel.interval1d(), Measure.lebesgue(40), 2.0, h=1.0), 0, 0),
    (lambda: check_iterated(Kernel.riesz(0.25, 1), Measure.lebesgue(40), 0.5, h=1.0), 0, 1),
    (lambda: check_norm_equivalence(K22, OM22, 3.0, 1.5), 1, 0),
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
