import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from radialeit.numerics import QuadratureRule, gauss_legendre, log_factorial_ratio, log_gamma


# ---------------------------------------------------------------------------
# quadrature


def test_nodes_inside_interval_weights_positive():
    for n in (1, 2, 7, 64, 200):
        rule = gauss_legendre(n)
        assert rule.order == n
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        # weights integrate the constant 1 exactly
        assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_monomial_high_degree():
    # 20 points integrate degree 38 exactly: integral of r**38 is 1/39
    rule = gauss_legendre(20)
    got = rule.integrate(lambda r: r**38)
    assert abs(got - 1.0 / 39.0) < 1e-13 / 39.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_polynomial_exactness(n, data):
    deg = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
    coeffs = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-1.0, max_value=1.0),
                min_size=deg + 1,
                max_size=deg + 1,
            )
        )
    )
    rule = gauss_legendre(n)
    got = rule.integrate(lambda r: np.polynomial.polynomial.polyval(r, coeffs))
    exact = float(np.sum(coeffs / (np.arange(deg + 1) + 1.0)))
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_bad_point_counts():
    for n in (0, -1, 2.5, 2.0) * 2:  # rejected on every call, not only the first
        with pytest.raises(ValueError):
            gauss_legendre(n)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, 0.2]), np.array([0.5, 0.5]))  # not increasing
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 0.5]), np.array([0.5, 0.5]))  # endpoint on boundary
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.2, 0.5]), np.array([0.5, -0.5]))  # negative weight
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.2, 0.5]), np.array([0.5]))  # shape mismatch


def test_rule_arrays_frozen():
    rule = gauss_legendre(12)
    # rules are memoized per order, so every caller shares this object
    assert gauss_legendre(np.int64(12)) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5


# ---------------------------------------------------------------------------
# log gamma


def test_log_gamma_against_exact_factorials():
    for n in range(1, 171):
        exact = math.log(math.factorial(n - 1))
        assert abs(log_gamma(n) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_log_gamma_known_values():
    assert abs(log_gamma(5.0) - 3.1780538303479458) < 1e-14  # ln 24
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0


def test_log_gamma_rejects_bad_arguments():
    for z in (0.0, -1.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            log_gamma(z)


# ---------------------------------------------------------------------------
# factorial ratio


def test_ratio_is_zero_at_k_zero():
    # both lgamma differences cancel termwise, so this is exact
    for ell in (1, 2, 17, 200):
        for d in (2, 3, 6):
            assert log_factorial_ratio(ell, 0, d) == 0.0


def test_ratio_known_values():
    # ell=2, d=2: (2+2)! 2! / ((2+2+2)! 0!) = 24*2/720 = 1/15
    assert abs(math.exp(log_factorial_ratio(2, 2, 2)) - 1.0 / 15.0) < 1e-15
    assert abs(log_factorial_ratio(15, 10, 3) - (-4.447690298997898)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    ell=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_ratio_against_exact_integers(ell, d, data):
    k = data.draw(st.integers(min_value=0, max_value=2 * ell - 2))
    n = 2 * ell - 2
    exact = Fraction(
        math.factorial(n + d) * math.factorial(n),
        math.factorial(n + d + k) * math.factorial(n - k),
    )
    want = math.log(exact)
    got = log_factorial_ratio(ell, k, d)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_ratio_arrays_match_scalar_calls():
    ell, k = np.nonzero(np.arange(119) <= 2 * np.arange(60)[:, None])
    ell += 1
    for d in range(2, 7):
        got = log_factorial_ratio(ell, k, d)
        assert got.shape == ell.shape
        assert got.tolist() == [log_factorial_ratio(int(e), int(j), d) for e, j in zip(ell, k)]
        # a column of degrees broadcasts against a row of k
        grid = log_factorial_ratio(np.arange(30, 61)[:, None], np.arange(59), d)
        assert grid.shape == (31, 59)
        assert grid[5, 17] == log_factorial_ratio(35, 17, d)
    assert type(log_factorial_ratio(np.int64(4), 3, 2)) is float


def test_ratio_rejects_bad_arguments():
    with pytest.raises(ValueError):
        log_factorial_ratio(0, 0, 2)
    with pytest.raises(ValueError):
        log_factorial_ratio(3, -1, 2)
    with pytest.raises(ValueError):
        log_factorial_ratio(3, 5, 2)  # k > 2*ell - 2
    with pytest.raises(ValueError):
        log_factorial_ratio(3, 1, 1)
    with pytest.raises(ValueError):
        log_factorial_ratio(np.array([3, 0]), 0, 2)
    with pytest.raises(ValueError):
        log_factorial_ratio(np.array([3, 3]), np.array([4, 5]), 2)
    with pytest.raises(ValueError):
        log_factorial_ratio(np.array([3.0]), 1, 2)  # degrees must be integers
