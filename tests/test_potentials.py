import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import Kernel, Measure, iterated_potential, potential
from greenlab.extreal import masked_mul, weighted_sum
from greenlab.potentials import green_operator, quadrature_gram
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
    if kind in ("interval_grid", "riesz_grid"):
        kernel = Kernel.interval1d() if kind == "interval_grid" else Kernel.riesz(0.25, 1)
        omega = Measure.grid(n, random_weights(rng, n, hi=2.0))
        # midpoints hit the singular cells; the uniform draws fall anywhere
        hits = rng.choice(omega.midpoints, size=int(rng.integers(0, n + 1)))
        return kernel, omega, np.concatenate([rng.uniform(0.01, 0.99, 3), hits])
    sites = rng.uniform(-1.0, 1.0, (n, 3))
    omega = Measure.atomic(sites, random_weights(rng, n))
    hits = sites[rng.choice(n, size=int(rng.integers(0, n + 1)))]
    return Kernel.riesz(1.0, 3), omega, np.concatenate([rng.uniform(-1.0, 1.0, (2, 3)), hits])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["matrix", "interval_grid", "riesz_grid", "riesz_atoms"]),
       st.integers(min_value=0, max_value=2**31))
def test_green_operator_is_the_dense_masked_product(kind, seed):
    # the contract any faster operator path must meet: bit for bit the
    # masked weighted sum against the quadrature gram, f = 0 and +inf included
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
