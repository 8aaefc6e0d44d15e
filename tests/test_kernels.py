import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (
    Kernel,
    estimate_quasi_symmetry,
    estimate_wmp_constant,
)
from tests.helpers import interval_green_oracle


class TestEval:
    def test_riesz_unit_distance(self):
        k = Kernel.riesz(alpha=1.0, dim=3)
        assert k.eval((0, 0, 0), (1, 0, 0)) == pytest.approx(1.0)

    def test_matrix_lookup(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        assert k.eval(0, 1) == 1.0

    def test_interval_against_ode_oracle(self):
        # oracle: -u'' = delta_{0.5}, zero boundary, solved by ODE matching
        k = Kernel.interval1d()
        expected = interval_green_oracle(0.25, 0.5)
        assert expected == pytest.approx(0.125, abs=1e-15)
        assert k.eval(0.25, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_interval_matches_oracle_on_a_mesh(self):
        k = Kernel.interval1d()
        for x in (0.1, 0.3, 0.5, 0.77):
            for c in (0.2, 0.5, 0.9):
                assert k.eval(x, c) == pytest.approx(
                    interval_green_oracle(x, c), rel=1e-13)

    def test_riesz_diagonal_is_infinite(self):
        k = Kernel.riesz(alpha=1.0, dim=3)
        assert k.eval((0, 0, 0), (0, 0, 0)) == float("inf")

    def test_nonnegative(self):
        k = Kernel.matrix([[0.0, 0.5], [0.5, 0.0]])
        assert k.eval(0, 0) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            Kernel.riesz(1.0, 3).eval((0, 0), (1, 0, 0))
        with pytest.raises(IndexError):
            Kernel.matrix([[1.0]]).eval(0, 3)
        with pytest.raises(ValueError):
            Kernel.interval1d().eval(0.0, 0.5)
        with pytest.raises(ValueError):
            Kernel.interval1d().eval(0.5, 1.0)

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Kernel.matrix([[1, -1], [0, 1]])
        with pytest.raises(ValueError):
            Kernel.matrix([[np.inf, 1], [1, 1]])
        with pytest.raises(ValueError):
            Kernel.riesz(alpha=2.0, dim=3)  # needs alpha < dim/2
        with pytest.raises(ValueError):
            Kernel(variant="nope")


class TestQuasiSymmetry:
    def test_symmetric_matrix_is_exactly_one(self):
        assert estimate_quasi_symmetry(Kernel.matrix([[2, 1], [1, 2]])) == 1.0

    def test_asymmetric_pair_scan(self):
        # oracle: exhaustive scan over the single off-diagonal pair
        G = np.array([[1.0, 2.0], [1.0, 1.0]])
        expected = max(G[0, 1] / G[1, 0], G[1, 0] / G[0, 1])
        assert estimate_quasi_symmetry(Kernel.matrix(G)) == expected == 2.0

    def test_riesz_symmetric_by_formula(self):
        assert estimate_quasi_symmetry(Kernel.riesz(1.0, 3)) == 1.0

    def test_zero_one_direction_gives_inf(self):
        G = [[1.0, 0.0], [0.5, 1.0]]
        assert estimate_quasi_symmetry(Kernel.matrix(G)) == float("inf")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_every_symmetric_matrix_gives_one(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.1, 5.0, (n, n))
        G = 0.5 * (A + A.T)
        assert estimate_quasi_symmetry(Kernel.matrix(G)) == 1.0


class TestWmpConstant:
    def test_two_by_two_dominant_diagonal(self):
        # Exhaustive 2-site simplex scan shows sup G(omega) sits on the
        # support whenever off-diagonal <= diagonal, so 1 is the true h.
        G = np.array([[2.0, 1.0], [1.0, 2.0]])
        for w0 in np.linspace(0.0, 1.0, 201):
            w = np.array([w0, 1.0 - w0])
            pot = G @ w
            supp = w > 0
            assert pot.max() <= pot[supp].max() + 1e-12
        assert estimate_wmp_constant(Kernel.matrix(G), samples=64, seed=0) == 1.0

    def test_single_atom_scan_lower_bound(self):
        k = Kernel.matrix([[1.0, 10.0], [10.0, 1.0]])
        assert estimate_wmp_constant(k, samples=8, seed=0) >= 10.0

    def test_green_type_variants_return_one(self):
        assert estimate_wmp_constant(Kernel.interval1d()) == 1.0
        assert estimate_wmp_constant(Kernel.riesz(0.4, 1)) == 1.0

    def test_zero_diagonal_error_names_site(self):
        k = Kernel.matrix([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="site 1"):
            estimate_wmp_constant(k)

    def test_monotone_in_samples(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(0.1, 1.0, (6, 6))
        G = 0.5 * (A + A.T) + np.eye(6)
        k = Kernel.matrix(G)
        vals = [estimate_wmp_constant(k, samples=s, seed=3) for s in (1, 4, 16, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestRieszScaling:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=1.4),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_homogeneity(self, alpha, lam, seed):
        dim = 3
        if not alpha < dim / 2:
            alpha = 1.0
        k = Kernel.riesz(alpha, dim)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=3), rng.normal(size=3)
        if np.allclose(x, y):
            return
        base = k.eval(x, y)
        scaled = k.eval(lam * x, lam * y)
        assert scaled == pytest.approx(lam ** (2 * alpha - dim) * base, rel=1e-12)


def test_json_round_trip():
    for k in (Kernel.matrix([[2, 1], [1, 2]], declared_h=1.0),
              Kernel.riesz(1.0, 3),
              Kernel.interval1d()):
        k2 = Kernel.from_dict(k.to_dict())
        assert k2.variant == k.variant
        assert k2.declared_h == k.declared_h
        if k.variant == "matrix":
            assert np.array_equal(k2.values, k.values)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        Kernel.from_dict({"variant": "mystery"})
