from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import (
    Kernel,
    estimate_quasi_symmetry,
    estimate_wmp_constant,
    extreal,
    kernels,
)
from greenlab.extreal import gram_product, weighted_sum
from greenlab.kernels import distance_powers
from tests.helpers import interval_green_oracle


def wmp_reference(G: np.ndarray, samples: int, seed: int) -> float:
    """The WMP scan with every probe applied as the masked product on the
    whole matrix, the reference the unmasked row sums must equal."""
    n = G.shape[0]
    diag = np.diag(G)
    h = float(max(1.0, (G / diag[None, :]).max()))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        mask = rng.random(n) < 0.5
        w = np.where(mask, rng.random(n), 0.0)
        if not w.any():
            w[int(rng.integers(n))] = 1.0
        pot = weighted_sum(G, w)
        on_supp = float(pot[w > 0.0].max())
        if on_supp > 0.0 and np.isfinite(on_supp):
            h = max(h, float(pot.max()) / on_supp)
    return h


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

    @pytest.mark.parametrize("n", [3, 50, 511, 513])
    def test_probes_match_the_masked_product(self, monkeypatch, n):
        # random nonsymmetric matrices (rows scaled apart, some zero
        # entries) on both sides of the 2^18-entry block (511^2 < 2^18 <
        # 513^2); each diagonal is its column's max, so the single-atom scan
        # gives 1 and from n = 50 the probes set h.  They run no masked
        # product and give the reference's bits.
        rng = np.random.default_rng(n)
        G = (rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.8)
             * rng.uniform(0.1, 10.0, n)[:, None])
        np.fill_diagonal(G, 0.0)
        np.fill_diagonal(G, np.maximum(G.max(axis=0), 0.1))
        expected = wmp_reference(G, samples=16, seed=5)
        assert expected > 1.0 or n < 50
        masked = []
        monkeypatch.setattr(extreal, "masked_mul", lambda *a: masked.append(1))
        assert estimate_wmp_constant(Kernel.matrix(G), samples=16, seed=5) == expected
        assert not masked

    @pytest.mark.parametrize("samples", [1, 2, 3, 4, 10, 64])
    def test_stacked_wmp_scan_is_the_one_at_a_time_scan(self, monkeypatch, samples):
        # blocks of 2^10 entries on 20 sites make stacks of B = 3 probes:
        # the scan calls gram_product once per stack, ceil(samples / B)
        # times, and h has the bits of the one-probe-at-a-time reference
        n = 20
        rng = np.random.default_rng(4)
        G = rng.uniform(0.0, 1.0, (n, n)) * rng.uniform(0.1, 10.0, n)[:, None]
        np.fill_diagonal(G, G.max(axis=0))
        expected = wmp_reference(G, samples=samples, seed=2)
        assert expected > 1.0
        calls, product = [], kernels.gram_product
        monkeypatch.setattr(kernels, "gram_product",
                            lambda g, v: calls.append(len(v)) or product(g, v))
        with mock.patch.object(extreal, "_BLOCK_ENTRIES", 2**10):
            got = estimate_wmp_constant(Kernel.matrix(G), samples=samples, seed=2)
        B = 2**10 // (16 * n)
        assert got == expected and len(calls) == -(-samples // B)
        assert calls == [min(B, samples - i) for i in range(0, samples, B)]

    @pytest.mark.parametrize("seed", range(30))
    def test_column_max_scan_is_the_full_quotient_scan(self, seed):
        # division by a positive diagonal entry is monotone under
        # round-to-nearest, so max_i G[i, j] / G[j, j] is the max of column
        # j's quotients bit for bit, at every scale (one that overflows is
        # +inf either way, with no warning from the scan)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        G = 10.0 ** rng.uniform(-300, 300, (n, n)) * (rng.random((n, n)) < 0.8)
        np.fill_diagonal(G, 10.0 ** rng.uniform(-300, 300, n))
        diag = np.diag(G)
        with np.errstate(over="ignore"):
            full = (G / diag[None, :]).max()
            assert (G.max(axis=0) / diag).max().tobytes() == full.tobytes()
            expected = wmp_reference(G, samples=1, seed=seed)
        assert estimate_wmp_constant(Kernel.matrix(G), samples=1, seed=seed) == expected


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


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("entries", [1 << 18, 7])
def test_distance_powers_match_the_one_shot_sum(dim, entries):
    # per-coordinate accumulation gives the bits of np.sum over the last
    # axis of one (m, n, dim) temporary for dim < 8, +inf at distance 0
    rng = np.random.default_rng(dim)
    t, s = rng.uniform(-1.0, 1.0, (23, dim)), rng.uniform(-1.0, 1.0, (31, dim))
    s[:4] = t[:4]
    diff = t[:, None, :] - s[None, :, :]
    with np.errstate(divide="ignore"):
        ref = np.power(np.sqrt(np.sum(diff * diff, axis=-1)), 0.5 - dim)
    got = np.empty_like(ref)
    with mock.patch.object(extreal, "_BLOCK_ENTRIES", entries):
        for rows, block in distance_powers(t, s, 0.5 - dim):
            got[rows] = block
    assert got.tobytes() == ref.tobytes()
    assert np.isinf(got[np.arange(4), np.arange(4)]).all()


@pytest.mark.parametrize("n", [2, 7, 600])
def test_stacked_product_of_the_gram_view_is_the_copied_gram_product(n):
    # on every site in order the gram is a read-only view of the values;
    # a subset or another order is a copy.  Products with the view have
    # the copied gram's bits, stacked or not, zeros and +inf in the density
    rng = np.random.default_rng(n)
    kernel = Kernel.matrix(rng.uniform(0.0, 2.0, (n, n)))
    every = np.arange(n)
    view = kernel.gram(every, every)
    assert np.shares_memory(view, kernel.values) and not view.flags.writeable
    for t, s in ((every[::-1], every), (every, every[:-1])):
        assert not np.shares_memory(kernel.gram(t, s), kernel.values)
    copy = kernel.values[np.ix_(every, every)]
    V = rng.uniform(0.0, 3.0, (3, n))
    V[rng.random((3, n)) < 0.3] = 0.0
    V[rng.random((3, n)) < 0.05] = np.inf
    for v in (V, V[0]):
        assert gram_product(view, v).tobytes() == gram_product(copy, v).tobytes()


def test_json_round_trip():
    for k in (Kernel.matrix([[2, 1], [1, 2]], declared_h=1.0),
              Kernel.matrix([[2, 1], [1, 2]], declared_h=3, declared_a=2.5),
              Kernel.riesz(1.0, 3),
              Kernel.interval1d()):
        k2 = Kernel.from_dict(k.to_dict())
        assert k2.variant == k.variant
        assert k2.declared_h == k.declared_h
        assert k2.declared_a == k.declared_a
        assert type(k2.declared_h) is type(k.declared_h)  # kept as given: 3 stays an int
        if k.variant == "matrix":
            assert np.array_equal(k2.values, k.values)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        Kernel.from_dict({"variant": "mystery"})
