import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlab import Field, Measure, lp_norm, total_mass


def test_lp_norm_atomic():
    m = Measure.atomic([0, 1], [1.0, 1.0])
    f = Field(m, [3.0, 3.0])
    assert lp_norm(f, 1.0) == 6.0


def test_lp_norm_grid_against_quadrature_oracle():
    from scipy.integrate import quad

    expected, _ = quad(lambda x: x * (1 - x) / 2, 0, 1)
    assert expected == pytest.approx(1 / 12)
    m = Measure.lebesgue(2000)
    x = m.midpoints
    f = Field(m, x * (1 - x) / 2)
    assert lp_norm(f, 1.0) == pytest.approx(expected, abs=1e-6)


def test_infinite_entry_propagates():
    m = Measure.atomic([0, 1], [1.0, 2.0])
    f = Field(m, [np.inf, 1.0])
    for p in (0.5, 1.0, 3.0):
        assert lp_norm(f, p) == np.inf


def test_infinite_entry_with_zero_weight_is_ignored():
    m = Measure.atomic([0, 1], [0.0, 2.0])
    f = Field(m, [np.inf, 1.0])
    assert lp_norm(f, 1.0) == 2.0


def test_total_mass():
    assert total_mass(Measure.atomic([0, 1], [1.0, 1.0])) == 2.0
    assert total_mass(Measure.lebesgue(10)) == pytest.approx(1.0, abs=1e-15)
    assert total_mass(Measure.atomic([], [])) == 0.0


def test_sampling_mismatch_rejected():
    # lp_norm integrates against the field's own measure, so a mismatch
    # cannot be passed; a nonpositive p is still refused
    m1 = Measure.atomic([0, 1], [1.0, 1.0])
    f = Field(m1, [1.0, 1.0])
    with pytest.raises(ValueError):
        lp_norm(f, 0.0)


def test_validation():
    with pytest.raises(ValueError):
        Measure.atomic([0, 1], [1.0, -1.0])
    with pytest.raises(ValueError):
        Measure.atomic([0, 0], [1.0, 1.0])  # duplicate sites
    with pytest.raises(ValueError, match="atomic sites must be numbers"):
        Measure.atomic([{}], [1.0])
    with pytest.raises(ValueError):
        Measure.grid(4, [1.0, 1.0])  # wrong length
    with pytest.raises(ValueError):
        Measure.grid(2, [1.0, np.inf])
    with pytest.raises(ValueError):
        Field(Measure.lebesgue(4), [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=8),
    st.floats(min_value=1e-6, max_value=1e3),  # away from subnormal underflow
    st.floats(min_value=0.25, max_value=4.0),
)
def test_positive_homogeneity(values, c, p):
    n = len(values)
    m = Measure.atomic(np.arange(n), np.ones(n))
    f = Field(m, values)
    cf = Field(m, c * np.asarray(values))
    lhs = lp_norm(cf, p)
    rhs = c * lp_norm(f, p)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_homogeneity_at_zero_is_exact():
    m = Measure.atomic([0, 1], [1.0, 2.0])
    f = Field(m, [0.0, 0.0])
    assert lp_norm(f, 2.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.25, max_value=4.0))
def test_componentwise_monotone(n, seed, p):
    rng = np.random.default_rng(seed)
    m = Measure.atomic(np.arange(n), rng.uniform(0, 2, n))
    lo = rng.uniform(0, 1, n)
    hi = lo + rng.uniform(0, 1, n)
    assert lp_norm(Field(m, lo), p) <= lp_norm(Field(m, hi), p) * (1 + 1e-12)


def test_scaled_and_round_trip():
    m = Measure.atomic([3, 5], [1.0, 2.0])
    assert total_mass(m.scaled(2.0)) == 6.0
    m2 = Measure.from_dict(m.to_dict())
    assert np.array_equal(m2.sites, m.sites)
    assert np.array_equal(m2.weights, m.weights)
    g = Measure.grid(4, [0.0, 1.0, 2.0, 3.0])
    g2 = Measure.from_dict(g.to_dict())
    assert g2.n_cells == 4 and np.array_equal(g2.values, g.values)
    with pytest.raises(ValueError):
        Measure.from_dict({"variant": "cloud"})
