from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import Kernel, Measure, domain_sites, iterated_potential, potential
from greenlab import extreal
from greenlab.extreal import masked_mul, row_blocks, weighted_sum
from greenlab.potentials import _riesz_column, green_operator, quadrature_gram
from tests.helpers import interval_green_oracle, random_green_matrix, random_weights


def test_matrix_potential_is_weighted_sum():
    k = Kernel.matrix([[2, 1], [1, 2]])
    om = Measure.atomic([0, 1], [1.0, 1.0])
    assert np.allclose(potential(k, om).values, [3.0, 3.0])


def test_interval_lebesgue_against_quadrature_oracle():
    # oracle: integrate the ODE-matched Green function over y by quadrature
    from scipy.integrate import quad

    expected, _ = quad(lambda y: interval_green_oracle(0.5, y), 0, 1, points=[0.5])
    assert expected == pytest.approx(0.125, abs=1e-12)
    k = Kernel.interval1d()
    om = Measure.lebesgue(2000)
    got = potential(k, om, targets=np.array([0.5])).values[0]
    assert got == pytest.approx(expected, abs=1e-6)


def test_riesz_two_atoms():
    k = Kernel.riesz(1.0, 3)
    om = Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0])
    got = potential(k, om, targets=np.array([[0.5, 0.0, 0.0]])).values[0]
    assert got == pytest.approx(4.0, rel=1e-14)


def test_riesz_self_potential_is_infinite():
    k = Kernel.riesz(1.0, 3)
    om = Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [1.0, 1.0])
    vals = potential(k, om).values
    assert np.all(np.isinf(vals))


def test_zero_weight_kills_infinite_kernel_value():
    k = Kernel.riesz(1.0, 3)
    om = Measure.atomic([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [0.0, 1.0])
    got = potential(k, om, targets=np.array([[0.0, 0.0, 0.0]])).values[0]
    assert got == pytest.approx(1.0)


def test_incompatible_variants_rejected():
    with pytest.raises(ValueError):
        potential(Kernel.matrix([[1.0]]), Measure.lebesgue(8))
    with pytest.raises(ValueError):
        potential(Kernel.riesz(1.0, 3), Measure.lebesgue(8))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_linearity_in_the_measure_atomic(n, seed):
    rng = np.random.default_rng(seed)
    k = Kernel.matrix(random_green_matrix(rng, n))
    w1, w2 = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    sites = np.arange(n)
    p1 = potential(k, Measure.atomic(sites, w1)).values
    p2 = potential(k, Measure.atomic(sites, w2)).values
    p12 = potential(k, Measure.atomic(sites, w1 + w2)).values
    assert np.allclose(p12, p1 + p2, rtol=1e-13, atol=0)


def test_linearity_grid():
    k = Kernel.interval1d()
    rng = np.random.default_rng(0)
    v1, v2 = rng.uniform(0, 2, 64), rng.uniform(0, 2, 64)
    t = np.array([0.3, 0.71])
    p1 = potential(k, Measure.grid(64, v1), targets=t).values
    p2 = potential(k, Measure.grid(64, v2), targets=t).values
    p12 = potential(k, Measure.grid(64, v1 + v2), targets=t).values
    assert np.allclose(p12, p1 + p2, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_monotone_in_the_measure(n, seed):
    rng = np.random.default_rng(seed)
    k = Kernel.matrix(random_green_matrix(rng, n))
    w1 = rng.uniform(0, 1, n)
    w2 = w1 + rng.uniform(0, 1, n)
    sites = np.arange(n)
    p1 = potential(k, Measure.atomic(sites, w1)).values
    p2 = potential(k, Measure.atomic(sites, w2)).values
    assert np.all(p1 <= p2 + 1e-15)


class TestIterated:
    def test_s_equal_one_is_identity(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        om = Measure.atomic([0, 1], [1.0, 1.0])
        assert np.array_equal(iterated_potential(k, om, 1.0).values,
                              potential(k, om).values)

    def test_two_by_two_s2(self):
        # G(omega) = (3,3); reweighted measure (3,3); one more kernel apply
        k = Kernel.matrix([[2, 1], [1, 2]])
        om = Measure.atomic([0, 1], [1.0, 1.0])
        assert np.allclose(iterated_potential(k, om, 2.0).values, [9.0, 9.0])

    def test_two_by_two_s_half(self):
        k = Kernel.matrix([[2, 1], [1, 2]])
        om = Measure.atomic([0, 1], [1.0, 1.0])
        expected = 3.0 ** (-0.5) * 3.0  # = sqrt(3), direct evaluation
        assert np.allclose(iterated_potential(k, om, 0.5).values,
                           [expected, expected], rtol=1e-14)
        assert expected == pytest.approx(np.sqrt(3.0))

    def test_infinite_base_with_s_below_one_gives_zero_weight(self):
        # (G omega)^(s-1) with an infinite base and s < 1 is 0
        k = Kernel.riesz(1.0, 3)
        om = Measure.atomic([(0.0, 0.0, 0.0)], [1.0])
        got = iterated_potential(k, om, 0.5, targets=np.array([[2.0, 0.0, 0.0]]))
        assert got.values[0] == 0.0

    def test_requires_positive_s(self):
        k = Kernel.matrix([[1.0]])
        with pytest.raises(ValueError):
            iterated_potential(k, Measure.atomic([0], [1.0]), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=2**31),
           st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.7]))
    def test_iterated_inequalities_on_certified_kernels(self, n, seed, s):
        # discrete Green matrices satisfy the strong maximum principle,
        # so both directions must hold with h = 1
        rng = np.random.default_rng(seed)
        k = Kernel.matrix(random_green_matrix(rng, n))
        om = Measure.atomic(np.arange(n), random_weights(rng, n))
        pot = potential(k, om, targets=np.arange(n)).values
        itp = iterated_potential(k, om, s, targets=np.arange(n)).values
        lhs = pot ** s
        rhs = s * itp
        if s >= 1:
            assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-300)
        if s <= 1:
            assert np.all(lhs >= rhs * (1 - 1e-12) - 1e-300)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["matrix_subset", "grid", "atoms_1d", "atoms_3d"]),
       st.integers(min_value=0, max_value=2**31))
def test_domain_sites_place_each_measure_at_its_support(kind, seed):
    # sites[pos] gives back each measure's support sites in the measure's
    # own order; atoms overlap and come unsorted, so the set is their union
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))

    def subset(pool):
        return pool[rng.permutation(len(pool))[:int(rng.integers(1, len(pool) + 1))]]

    if kind == "matrix_subset":
        kernel = Kernel.matrix(random_green_matrix(rng, n))
        sub = subset(np.arange(n))
        meas = [Measure.atomic(sub, random_weights(rng, len(sub))), None]
    elif kind == "grid":
        kernel = Kernel.riesz(0.25, 1)
        meas = [Measure.grid(n, random_weights(rng, n)), Measure.lebesgue(n)]
    else:
        if kind == "atoms_1d":
            kernel, pool = Kernel.interval1d(), (np.arange(2 * n) + 0.5) / (2 * n)
        else:
            kernel = Kernel.riesz(1.0, 3)
            pool = np.unique(rng.integers(-2, 3, (2 * n, 3)), axis=0)
        meas = [Measure.atomic(sites, np.ones(len(sites)))
                for sites in (subset(pool), subset(pool))]
    sites, positions = domain_sites(kernel, *meas)
    assert len(positions) == len(meas)
    for m, pos in zip(meas, positions):
        if m is None:
            assert pos is None
        else:
            assert np.array_equal(sites[pos], m.support_sites)
    assert len(np.unique(sites, axis=0)) == len(sites)


def test_riesz_on_grid_diagonal_subdivision():
    # G(x,y) = |x-y|^(-1/2) on (0,1); oracles by adaptive quadrature.
    # Without the subdivision a mid-cell target meets the singularity and
    # the sum is infinite; with it the value is finite and the
    # placement-averaged energy converges under refinement.
    from scipy.integrate import quad

    alpha = 0.25
    k = Kernel.riesz(alpha, 1)
    x = 122.5 / 250  # exactly a cell midpoint at N=250
    expected, _ = quad(lambda y: abs(x - y) ** (2 * alpha - 1), 0, 1,
                       points=[x], limit=200)
    got = potential(k, Measure.lebesgue(250), targets=np.array([x])).values[0]
    assert np.isfinite(got)
    assert abs(got - expected) < 5e-2

    energy_oracle, _ = quad(lambda t: 2 * (np.sqrt(t) + np.sqrt(1 - t)), 0, 1)
    assert energy_oracle == pytest.approx(8 / 3)
    errs = []
    for n in (250, 1000, 2000):
        om = Measure.lebesgue(n)
        pot = potential(k, om).values
        errs.append(abs(float(pot @ om.integration_weights) - energy_oracle))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-2


def _operator_case(kind: str, rng):
    """(kernel, omega, targets); the targets are not omega's sites, though
    Riesz targets include some of them, where the kernel is +inf."""
    n = int(rng.integers(1, 12))
    if kind == "matrix":
        pool = n + int(rng.integers(0, 4))
        kernel = Kernel.matrix(random_green_matrix(rng, pool))
        omega = Measure.atomic(rng.choice(pool, size=n, replace=False), random_weights(rng, n))
        return kernel, omega, rng.choice(pool, size=int(rng.integers(1, pool + 1)))
    if kind == "riesz_grid":
        omega = Measure.grid(n, random_weights(rng, n, hi=2.0))
        # midpoints hit the singular cells; the uniform draws fall anywhere
        hits = rng.choice(omega.midpoints, size=int(rng.integers(0, n + 1)))
        return Kernel.riesz(0.25, 1), omega, np.concatenate([rng.uniform(0.01, 0.99, 3), hits])
    sites = rng.uniform(-1.0, 1.0, (n, 3))
    omega = Measure.atomic(sites, random_weights(rng, n))
    hits = sites[rng.choice(n, size=int(rng.integers(0, n + 1)))]
    return Kernel.riesz(1.0, 3), omega, np.concatenate([rng.uniform(-1.0, 1.0, (2, 3)), hits])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["matrix", "riesz_grid", "riesz_atoms"]),
       st.integers(min_value=0, max_value=2**31))
def test_green_operator_is_the_dense_masked_product(kind, seed):
    # gram kernels, masked or mask-free: bit for bit the masked weighted
    # sum against the quadrature gram, f = 0 and +inf included
    rng = np.random.default_rng(seed)
    kernel, omega, targets = _operator_case(kind, rng)
    w = omega.integration_weights
    f = rng.uniform(0.0, 3.0, len(w))
    f[rng.random(len(w)) < 0.3] = 0.0
    f[rng.random(len(w)) < 0.2] = np.inf
    apply = green_operator(kernel, targets, omega)
    gram = quadrature_gram(kernel, targets, omega)
    got = apply(f)
    assert got.shape == (len(targets),)
    assert got.tobytes() == weighted_sum(gram, masked_mul(w, f)).tobytes()
    assert apply().tobytes() == apply(np.ones(len(w))).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["matrix", "riesz_grid", "riesz_atoms"]),
       st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=40))
def test_row_blocks_change_no_bit(kind, seed, entries):
    # every case fits one default block, so the reference is the one-shot
    # computation; with 1..40 entries per block the gram and the product
    # are built one or a few rows at a time
    rng = np.random.default_rng(seed)
    kernel, omega, targets = _operator_case(kind, rng)
    f = rng.uniform(0.5, 3.0, omega.size)
    whole = quadrature_gram(kernel, targets, omega)
    with mock.patch.object(extreal, "_BLOCK_ENTRIES", entries):
        gram = quadrature_gram(kernel, targets, omega)
        got = green_operator(kernel, targets, omega)(f)
    assert gram.tobytes() == whole.tobytes()
    assert got.tobytes() == weighted_sum(whole, masked_mul(omega.integration_weights, f)).tobytes()


@pytest.mark.parametrize("n_rows, n_cols", [(0, 5), (1, 10**6), (7, 3), (1000, 1), (2**10, 2**9)])
def test_row_blocks_cover_the_rows_in_order(n_rows, n_cols):
    blocks = row_blocks(n_rows, n_cols)
    assert np.array_equal(np.concatenate([np.arange(n_rows)[b] for b in blocks] + [[]]),
                          np.arange(n_rows))
    for b in blocks:
        assert b.stop - b.start == 1 or (b.stop - b.start) * n_cols <= 2**18


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["grid", "atoms"]), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=2**31), st.booleans())
def test_interval_operator_matches_the_dense_masked_product(kind, n, seed, with_inf):
    # the prefix-sum path against the dense reference: within 1e-12
    # relative, +inf in the same places; atoms arrive unsorted
    rng = np.random.default_rng(seed)
    kernel = Kernel.interval1d()
    if kind == "grid":
        omega = Measure.grid(n, random_weights(rng, n, hi=2.0))
    else:
        omega = Measure.atomic(rng.uniform(0.001, 0.999, n), random_weights(rng, n))
    sites = omega.support_sites
    targets = np.concatenate([rng.uniform(0.001, 0.999, int(rng.integers(1, 6))),
                              rng.choice(sites, size=int(rng.integers(0, n + 1)))])
    w = omega.integration_weights
    f = rng.uniform(0.0, 3.0, n)
    f[rng.random(n) < 0.3] = 0.0
    if with_inf:
        f[rng.integers(n)] = np.inf
    apply = green_operator(kernel, targets, omega)
    for dens in (f, None):
        got = apply(dens)
        ref = weighted_sum(quadrature_gram(kernel, targets, omega),
                           w if dens is None else masked_mul(w, dens))
        assert got.shape == ref.shape == (len(targets),)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        fin = np.isfinite(ref)
        assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-12 * ref[fin])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.01, max_value=0.49),
       st.integers(min_value=0, max_value=2**31), st.sampled_from([None, np.inf, np.nan]))
def test_riesz_grid_fft_matches_the_dense_products(n, alpha, seed, bad):
    # the FFT path at the midpoints: within 1e-13 relative of the exact
    # Toeplitz product, within 1e-12 of the rounded-midpoint gram, and
    # +inf/NaN where the masked dense product has them
    rng = np.random.default_rng(seed)
    kernel, omega = Kernel.riesz(alpha, 1), Measure.grid(n, random_weights(rng, n, hi=2.0))
    mids, w = omega.midpoints, omega.integration_weights
    f = rng.uniform(0.0, 3.0, n)
    f[rng.random(n) < 0.3] = 0.0
    if bad is not None:
        f[rng.integers(n)] = bad
    apply = green_operator(kernel, mids, omega)
    got, v = apply(f), masked_mul(w, f)
    cells = np.arange(n)
    toeplitz = _riesz_column(kernel, omega)[np.abs(cells[:, None] - cells[None, :])]
    ref = weighted_sum(quadrature_gram(kernel, mids, omega), v)
    assert got.shape == ref.shape == (n,)
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    if np.isfinite(v).all():
        exact = toeplitz @ v
        assert np.all(np.abs(got - exact) <= 1e-13 * exact)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)
    assert apply().tobytes() == apply(np.ones(n)).tobytes()


def test_riesz_grid_fft_path_runs_only_at_the_midpoints():
    # any other target set keeps the gram path, bit for bit
    kernel, omega = Kernel.riesz(0.25, 1), Measure.lebesgue(8)
    w = omega.integration_weights
    for targets in (omega.midpoints[:-1], omega.midpoints[::-1], omega.midpoints[:, None]):
        gram = quadrature_gram(kernel, targets, omega)
        assert green_operator(kernel, targets, omega)().tobytes() == \
            weighted_sum(gram, w).tobytes()


def test_interval_operator_validates_its_sites():
    kernel = Kernel.interval1d()
    for bad in ([0.5, 1.0], [0.0], [[0.5]]):
        with pytest.raises(ValueError):
            green_operator(kernel, np.array(bad), Measure.lebesgue(4))
    with pytest.raises(ValueError):
        green_operator(kernel, [0.5], Measure.atomic([0.2, 1.5], [1.0, 1.0]))


@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.49])
@pytest.mark.parametrize("n", [1, 3, 250])
def test_riesz_singular_cells_match_the_per_target_loop(alpha, n):
    # reference: each hit target's cell replaced by the mean over 16
    # sub-midpoints, one Kernel.gram call per target
    kernel, omega = Kernel.riesz(alpha, 1), Measure.lebesgue(n)
    mids = omega.midpoints
    rng = np.random.default_rng(n)
    targets = np.concatenate([mids, mids + rng.uniform(-1e-12, 1e-12, n),
                              rng.uniform(0.001, 0.999, 20)])
    ref = kernel.gram(targets, mids)
    width = omega.cell_width
    for i, x in enumerate(targets):
        j = min(max(int(np.round(x * n - 0.5)), 0), n - 1)
        if abs(x - (j + 0.5) * width) <= 0.5 * width * (1.0 + 1e-9):
            sub_mids = (j + (np.arange(16) + 0.5) / 16) * width
            ref[i, j] = np.mean(kernel.gram([x], sub_mids)[0])
    assert quadrature_gram(kernel, targets, omega).tobytes() == ref.tobytes()
