import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greenlab import (Kernel, Measure, domain_sites, estimate_quasi_symmetry, iterated_potential,
                      potential)
from greenlab import extreal
from greenlab.extreal import masked_mul, row_blocks, weighted_sum
from greenlab.measures import power_integral
from greenlab.potentials import (_interval_operator, adjoint_operator, green_operator,
                                 lattice_column, quadrature_gram, toeplitz_operator)
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
    # gram kernels: bit for bit the masked weighted sum against the
    # quadrature gram, f = 0 and +inf included
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
    # are built one or a few rows at a time.  f = 0 at an atom under a
    # Riesz target makes a 0 * inf term, so only some blocks are redone
    # with the mask
    rng = np.random.default_rng(seed)
    kernel, omega, targets = _operator_case(kind, rng)
    f = rng.uniform(0.5, 3.0, omega.size)
    f[rng.random(omega.size) < 0.3] = 0.0
    f[rng.random(omega.size) < 0.2] = np.inf
    whole = quadrature_gram(kernel, targets, omega)
    with mock.patch.object(extreal, "_BLOCK_ENTRIES", entries):
        gram = quadrature_gram(kernel, targets, omega)
        got = green_operator(kernel, targets, omega)(f)
    assert gram.tobytes() == whole.tobytes()
    assert got.tobytes() == weighted_sum(whole, masked_mul(omega.integration_weights, f)).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_adjoint_operator_is_the_transpose_in_the_omega_pairing(seed):
    # <A f, g>_omega == <f, A* g>_omega with A* g = G^T (w g) on omega's
    # sites, an unsorted subset of a nonsymmetric matrix's, to rounding;
    # a symmetric kernel's adjoint is its operator itself
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    G = rng.uniform(0.0, 1.0, (n + 1, n + 1))
    sites = rng.permutation(n + 1)[:n]
    omega = Measure.atomic(sites, random_weights(rng, n))
    w = omega.integration_weights
    apply = green_operator(Kernel.matrix(G), omega.sites, omega)
    adjoint = adjoint_operator(Kernel.matrix(G), omega, apply)
    assert adjoint is not apply
    f, g = rng.uniform(0.0, 2.0, (2, n))
    gram = G[np.ix_(sites, sites)]
    assert np.allclose(adjoint(g), gram.T @ (w * g), rtol=1e-13, atol=0.0)
    assert np.isclose(np.sum(w * g * apply(f)), np.sum(w * f * adjoint(g)), rtol=1e-13)
    for kernel, om in [(Kernel.matrix(G + G.T), omega), (Kernel.interval1d(), Measure.lebesgue(8)),
                       (Kernel.riesz(0.25, 1), Measure.lebesgue(8))]:
        op = green_operator(kernel, om.support_sites, om)
        assert adjoint_operator(kernel, om, op) is op


@pytest.mark.parametrize("entries", [2**18, 2**6])
@pytest.mark.parametrize("seed", range(6))
def test_an_operator_is_its_own_adjoint_where_the_matrix_is_symmetric(seed, entries):
    # all sites in order and an unsorted subset; a matrix symmetric on the
    # subset only, and the same with one entry of the subset changed, by
    # 1 and to the double next to its partner; blocks of 2^18 entries and
    # of 2^6; the quasi-symmetry constant there is 1 exactly then
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    A = rng.uniform(0.1, 1.0, (n, n))
    G = 0.5 * (A + A.T)
    sub = rng.choice(n - 1, size=int(rng.integers(2, n)), replace=False)
    G[n - 1, sub[0]] += 1.0  # the last site is outside the subset
    changed, near = G.copy(), G.copy()
    changed[sub[-1], sub[0]] += 1.0
    near[sub[-1], sub[0]] = np.nextafter(G[sub[0], sub[-1]], np.inf)
    with mock.patch.object(extreal, "_BLOCK_ENTRIES", entries):
        for sites, symmetric in [(np.arange(n), False), (sub, True)]:
            omega = Measure.atomic(sites, np.ones(len(sites)))
            for values, expected in [(G, symmetric), (changed, False), (near, False)]:
                restricted = values[np.ix_(sites, sites)]
                assert np.array_equal(restricted, restricted.T) == expected
                kernel = Kernel.matrix(values)
                assert (estimate_quasi_symmetry(kernel, sites) == 1.0) == expected
                op = green_operator(kernel, omega.sites, omega)
                assert (adjoint_operator(kernel, omega, op) is op) == expected


@pytest.mark.parametrize("every", [True, False])
def test_the_symmetry_test_holds_no_n_by_n_temporary(every):
    # a 32 MiB symmetric matrix: blocks of 2^18 entries take a few 2 MiB
    # temporaries, on all sites in order and on all but one, shuffled; the
    # adjoint's test and the quasi-symmetry scan, there and on all sites,
    # the scan also once a pair differs and the blocks holding it are divided
    n = 2048
    rng = np.random.default_rng(1)
    A = rng.uniform(0.1, 1.0, (n, n))
    A += A.T
    kernel = Kernel.matrix(A)
    omega = Measure.atomic(np.arange(n) if every else rng.permutation(n)[:-1],
                           np.ones(n if every else n - 1))
    apply = green_operator(kernel, omega.sites, omega)
    tracemalloc.start()
    try:
        assert adjoint_operator(kernel, omega, apply) is apply
        assert estimate_quasi_symmetry(kernel, omega.sites) == 1.0
        assert estimate_quasi_symmetry(kernel) == 1.0
        A[omega.sites[-1], omega.sites[0]] *= 1.5
        assert estimate_quasi_symmetry(kernel, omega.sites) > 1.0
        assert estimate_quasi_symmetry(kernel) > 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("f", [None, "zeros and inf"])
def test_riesz_atom_applies_hold_no_gram_sized_temporary(f):
    # the +inf diagonal of Riesz atoms (and f = 0 under it, a 0 * inf
    # term) must not take an apply through a masked product of the whole
    # gram: that allocates more than the gram itself
    rng = np.random.default_rng(7)
    omega = Measure.atomic(rng.uniform(-1.0, 1.0, (2000, 3)), rng.uniform(0.5, 2.0, 2000))
    apply = green_operator(Kernel.riesz(1.0, 3), omega.sites, omega)
    if f is not None:
        f = rng.uniform(0.5, 3.0, omega.size)
        f[::7], f[3::11] = 0.0, np.inf
    gram_bytes = omega.size ** 2 * 8
    tracemalloc.start()
    try:
        got = apply(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isinf(got).any()
    assert peak < gram_bytes / 4


def _stack_case(kind: str, rng):
    """(kernel, omega, targets) for each operator path: interval prefix
    sums, the Riesz-grid FFT (targets at the midpoints), a matrix gram and
    Riesz atoms, whose gram has a +inf diagonal."""
    n = int(rng.integers(1, 40))
    if kind == "interval":
        omega = Measure.atomic(rng.uniform(0.001, 0.999, n), random_weights(rng, n))
        return Kernel.interval1d(), omega, rng.uniform(0.001, 0.999, int(rng.integers(1, 30)))
    if kind == "riesz_grid":
        omega = Measure.grid(n, random_weights(rng, n, hi=2.0))
        return Kernel.riesz(float(rng.uniform(0.01, 0.49)), 1), omega, omega.midpoints
    if kind == "matrix":
        kernel = Kernel.matrix(random_green_matrix(rng, n))
        omega = Measure.atomic(rng.choice(n, size=n, replace=False), random_weights(rng, n))
        return kernel, omega, np.arange(n)
    omega = Measure.atomic(rng.uniform(-1.0, 1.0, (n, 3)), random_weights(rng, n))
    return Kernel.riesz(1.0, 3), omega, omega.sites


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["interval", "riesz_grid", "matrix", "riesz_atoms"]),
       st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=6))
def test_stacked_apply_is_the_per_density_apply(kind, seed, rows):
    # a stack of densities, sites on the last axis, gives each row the
    # bits of its own 1-d apply; rows hold zeros and +inf, and a C- or
    # F-ordered stack of any leading shape is taken
    rng = np.random.default_rng(seed)
    kernel, omega, targets = _stack_case(kind, rng)
    n = omega.size
    F = rng.uniform(0.0, 3.0, (rows, n))
    F[rng.random((rows, n)) < 0.3] = 0.0
    F[rng.random((rows, n)) < 0.1] = np.inf
    apply = green_operator(kernel, targets, omega)
    one_by_one = np.stack([apply(f) for f in F])
    for stack in (F, np.asfortranarray(F), F.reshape(rows, 1, n)):
        got = apply(stack)
        assert got.shape == stack.shape[:-1] + (len(targets),)
        assert got.reshape(one_by_one.shape).tobytes() == one_by_one.tobytes()
    w = omega.integration_weights
    for stack in (F, np.asfortranarray(F)):
        assert power_integral(stack, 1.5, w).tobytes() == \
            np.array([power_integral(f, 1.5, w) for f in F]).tobytes()


def test_stacked_fft_apply_falls_back_row_by_row():
    # finite rows, a row whose FFT product overflows (redone on v / 2^e
    # with its own e) and a row with +inf (every entry its sum): each row
    # as its own 1-d apply
    rng = np.random.default_rng(11)
    kernel, omega = Kernel.riesz(0.25, 1), Measure.grid(24, rng.uniform(0.5, 2.0, 24))
    apply = green_operator(kernel, omega.midpoints, omega)
    F = rng.uniform(0.0, 3.0, (5, 24))
    F[1] = 1e308
    F[3, 5] = np.inf
    F[4] = 1e300
    with mock.patch("numpy.ldexp", wraps=np.ldexp) as ldexp:
        got = apply(F)
    assert ldexp.called
    assert np.isinf(got[3]).all() and np.isfinite(got[[0, 2, 4]]).all()
    assert got.tobytes() == np.stack([apply(f) for f in F]).tobytes()
    # the multilevel Toeplitz product of a 2-d lattice, stacked
    col = lattice_column((3, 4), (0.5, 0.25), -0.5)
    col[0, 0] = 0.0
    toeplitz = toeplitz_operator(col, (6, 8))
    V = rng.uniform(0.0, 2.0, (3, 3, 4))
    V[1] = rng.uniform(1e307, 1.5e307, (3, 4))
    with mock.patch("numpy.ldexp", wraps=np.ldexp) as ldexp:
        got = toeplitz(V)
    assert ldexp.called
    assert got.tobytes() == np.stack([toeplitz(v) for v in V]).tobytes()


def _masked_mul_reference(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):
        return math.nan
    if (x == 0.0 and math.isinf(y)) or (math.isinf(x) and y == 0.0):
        return 0.0
    return x * y


_MUL_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200]))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, n, elements=_MUL_FLOATS),
    hnp.arrays(np.float64, n, elements=_MUL_FLOATS))))
@example((np.array([np.nan, 0.0, np.inf, 1e200, 2.0, np.inf, -0.0]),
          np.array([0.0, np.inf, 0.0, 1e200, 3.0, np.nan, -np.inf])))
@example((np.array([1.5, 1e200]), np.array([2.0, 1e200])))
def test_masked_mul_is_the_elementwise_rule(pair):
    # NaN operands stay NaN, 0 * inf and inf * 0 are 0, an overflowing
    # product is +-inf; every other entry is the plain product
    a, b = pair
    got = masked_mul(a, b)
    ref = np.array([_masked_mul_reference(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert got[~np.isnan(got)].tobytes() == ref[~np.isnan(ref)].tobytes()


@pytest.mark.parametrize("n_rows, n_cols", [(0, 5), (1, 10**6), (7, 3), (1000, 1), (2**10, 2**9)])
def test_row_blocks_cover_the_rows_in_order(n_rows, n_cols):
    blocks = row_blocks(n_rows, n_cols)
    assert np.array_equal(np.concatenate([np.arange(n_rows)[b] for b in blocks] + [[]]),
                          np.arange(n_rows))
    for b in blocks:
        assert b.stop - b.start == 1 or (b.stop - b.start) * n_cols <= 2**18


@pytest.mark.parametrize("value, expected", [
    (3, 3), (3.0, 3), (np.int32(3), 3), (np.float32(3.0), 3), (-2, -2), (0.0, 0),
])
def test_integer_takes_integral_numbers(value, expected):
    got = extreal.integer(value, "n")
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value, error, message", [
    (1.7, ValueError, "n must be an integer >= 1, got 1.7"),
    (True, ValueError, "n must be an integer >= 1, got True"),
    ("1", ValueError, "n must be an integer >= 1, got '1'"),
    (None, ValueError, "n must be an integer >= 1, got None"),
    (np.bool_(True), ValueError, "n must be an integer >= 1"),
    (0, ValueError, "n must be an integer >= 1, got 0"),
    (math.inf, OverflowError, "cannot convert float infinity"),
    (math.nan, ValueError, "cannot convert float NaN"),
])
def test_integer_refuses_the_rest(value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        extreal.integer(value, "n", least=1)


@pytest.mark.parametrize("value", [2, 0.5, np.float32(0.5), np.int64(2), -1.0])
def test_real_takes_ints_and_floats(value):
    got = extreal.real(value, "x")
    assert got == float(value) and type(got) is float


@pytest.mark.parametrize("value, error, message", [
    (True, TypeError, "h must be a number, got True"),
    ("2", TypeError, "h must be a number, got '2'"),
    (None, TypeError, "h must be a number, got None"),
    ([1.0], TypeError, "h must be a number, got [1.0]"),
    (1 + 0j, TypeError, "h must be a number, got (1+0j)"),
    (np.bool_(False), TypeError, "h must be a number"),
    (0.5, ValueError, "h must be >= 1, got 0.5"),
    (-1, ValueError, "h must be >= 1, got -1"),
    (math.nan, ValueError, "h must be >= 1, got nan"),
    (math.inf, ValueError, "h must be finite, got inf"),
])
def test_real_refuses_the_rest(value, error, message):
    with pytest.raises(error, match=re.escape(message)):
        extreal.real(value, "h", least=1)


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


def _gathered_interval_apply(sources, targets, v):
    """The prefix-sum apply with every gather made: the density permuted
    into source order, both sums read at each target by np.take."""
    order = np.argsort(sources, kind="stable")
    s = sources[order]
    k = np.searchsorted(s, targets, side="right")
    v = np.take(v, order, axis=-1)
    zero = np.zeros(v.shape[:-1] + (1,))
    with np.errstate(over="ignore"):
        left = np.concatenate((zero, np.cumsum(s * v, axis=-1)), axis=-1)
        right = np.concatenate(
            (np.cumsum(((1.0 - s) * v)[..., ::-1], axis=-1)[..., ::-1], zero), axis=-1)
        return (1.0 - targets) * np.take(left, k, axis=-1) \
            + targets * np.take(right, k, axis=-1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["grid", "sorted_atoms", "atoms", "grid_other_targets"]),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=4))
def test_stacked_interval_apply_without_gathers_is_the_gathered_apply(kind, n, seed, rows):
    # grids and sorted atoms at their own sites read the prefix sums in
    # place and permute nothing; unsorted atoms and other targets gather.
    # Every path gives the bits of the apply that gathers, stacked or not,
    # with zeros and +inf in the density
    rng = np.random.default_rng(seed)
    if kind.startswith("grid"):
        sources = Measure.grid(n, np.ones(n)).midpoints
    else:
        sources = rng.uniform(0.001, 0.999, n)
        if kind == "sorted_atoms":
            sources = np.sort(sources)
    targets = sources if kind != "grid_other_targets" else rng.uniform(0.001, 0.999, n)
    omega = Measure.atomic(sources, np.ones(n))
    apply = _interval_operator(Kernel.interval1d(), targets, omega)
    V = rng.uniform(0.0, 3.0, (rows, n))
    V[rng.random((rows, n)) < 0.3] = 0.0
    V[rng.random((rows, n)) < 0.05] = np.inf
    for v in (V, V[0]):
        assert apply(v).tobytes() == _gathered_interval_apply(sources, targets, v).tobytes()


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
    cells, expo = np.arange(n), 2.0 * alpha - 1.0
    col = lattice_column((n,), (omega.cell_width,), expo)
    assert col[1:].tobytes() == np.power(np.arange(1, n) * omega.cell_width, expo).tobytes()
    col[0] = np.mean(np.power(np.abs((np.arange(16) + 0.5) / 16 - 0.5) * omega.cell_width, expo))
    toeplitz = col[np.abs(cells[:, None] - cells[None, :])]
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
