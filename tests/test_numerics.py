import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from radialeit.numerics import QuadratureRule, gauss_legendre
from radialeit.operator import _log_ratio_rows, verify_factorial_ratio_bound


# ---------------------------------------------------------------------------
# quadrature


def test_nodes_inside_interval_weights_positive():
    for n in (1, 2, 7, 64, 200):
        rule = gauss_legendre(n)
        assert rule.nodes.size == n
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        # weights integrate the constant 1 exactly
        assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_monomial_high_degree():
    # 20 points integrate degree 38 exactly: integral of r**38 is 1/39
    rule = gauss_legendre(20)
    got = rule.weights @ rule.nodes**38
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
    got = rule.weights @ np.polynomial.polynomial.polyval(rule.nodes, coeffs)
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
# factorial ratio
#
# R(ell, k) = (n+d)! n! / ((n+d+k)! (n-k)!), n = 2 ell - 2, comes from one ratio
# recurrence, shared by the series weights and the bound check; the check reads
# log R as a cumulative sum of the logs of those ratios.


def _log_ratio(ell, k, d):
    return _log_ratio_rows(d, ell, ell)[0, k]


def test_ratio_is_zero_at_k_zero():
    for ell in (1, 2, 17, 200):
        for d in (2, 3, 6):
            assert _log_ratio(ell, 0, d) == 0.0


def test_ratio_known_values():
    # ell=2, d=2: (2+2)! 2! / ((2+2+2)! 0!) = 24*2/720 = 1/15
    assert abs(math.exp(_log_ratio(2, 2, 2)) - 1.0 / 15.0) < 1e-15
    assert abs(_log_ratio(15, 10, 3) - (-4.447690298997898)) < 1e-12


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
    got = _log_ratio(ell, k, d)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("d", [2, 3, 100])
def test_ratio_row_at_ell_2000_against_exact_integers(d):
    # R(2000, k) falls past the float range, so the exact reference is
    # log(n! / (n-k)!) - log((n+d+k)! / (n+d)!), each of an integer
    ell, n = 2000, 3998
    row = _log_ratio_rows(d, ell, ell)[0]
    assert row.shape == (n + 1,)
    num = den = 1
    for k in range(n + 1):
        want = math.log(num) - math.log(den)
        assert abs(row[k] - want) <= 1e-11 * max(1.0, abs(want)), k
        num, den = num * (n - k), den * (n + d + k + 1)


def test_ratio_arrays_match_scalar_calls():
    # each row is its own cumulative sum, so a block of rows holds the same
    # bits as each row built alone; past k = 2 ell - 2 the ratio R is 0
    for d in range(2, 7):
        grid = _log_ratio_rows(d, 30, 60)
        assert grid.shape == (31, 119)
        for i, ell in enumerate(range(30, 61)):
            n = 2 * ell - 2
            assert grid[i, : n + 1].tobytes() == _log_ratio_rows(d, ell, ell)[0].tobytes()
            assert np.all(grid[i, n + 1 :] == -np.inf)


def test_ratio_rejects_bad_arguments():
    # the bound check validates its dimension and range before reading ratios
    for d, max_index in ((1, 3), (2.5, 3), (np.float64(3.0), 3), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            verify_factorial_ratio_bound(d, max_index)
