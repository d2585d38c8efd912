import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radialeit.jacobi import (
    build_family,
    evaluate,
    evaluate_direct,
    evaluate_table,
    leading_coefficient,
    monomial_coefficients,
)
from radialeit.numerics import gauss_legendre

DIMS = (2, 3, 4, 5)


# ---------------------------------------------------------------------------
# recurrence coefficients


def test_recurrence_coefficient_values_d2():
    fam = build_family(2, 5)
    assert fam.rec_a[0] == 0.0  # convention: P_{-1} = 0
    # closed forms at k=0,1 in d=2
    assert abs(fam.rec_b[0] - 2.0 / 3.0) < 1e-15
    assert abs(fam.rec_b[1] - 8.0 / 15.0) < 1e-15
    assert abs(fam.rec_c[0] - (-math.sqrt(2.0 / 4.0) * 2.0 / 6.0)) < 1e-15
    # C_1 = -sqrt(4/6) * (2*3)/(4*5) = -(3/10) sqrt(2/3)
    assert abs(fam.rec_c[1] - (-0.2449489742783178)) < 1e-15


def test_recurrence_coefficient_signs():
    for d in DIMS:
        fam = build_family(d, 60)
        assert np.all(fam.rec_a[1:] < 0.0)
        assert np.all(fam.rec_c < 0.0)
        assert np.all(fam.rec_b > 0.0) and np.all(fam.rec_b <= 1.0)


def test_family_validation():
    with pytest.raises(ValueError):
        build_family(1, 10)
    with pytest.raises(ValueError):
        build_family(2, -1)
    with pytest.raises(ValueError):
        build_family(2.5, 10)


# ---------------------------------------------------------------------------
# evaluation


def test_low_degree_closed_forms():
    # P_0 = sqrt(d), P_1 = sqrt(d+2) (d - (d+1) r)
    r = np.linspace(0.0, 1.0, 11)
    for d in DIMS:
        fam = build_family(d, 1)
        t = evaluate_table(fam, r)
        assert_allclose(t[0], math.sqrt(d), rtol=0, atol=1e-15)
        assert_allclose(
            t[1], math.sqrt(d + 2) * (d - (d + 1) * r), rtol=0, atol=5e-14
        )


def test_recurrence_identity_residual():
    r = np.linspace(0.0, 1.0, 41)
    for d in (2, 4):
        fam = build_family(d, 30)
        t = evaluate_table(fam, r)
        for k in range(1, 30):
            res = r * t[k] - (
                fam.rec_a[k] * t[k - 1] + fam.rec_b[k] * t[k] + fam.rec_c[k] * t[k + 1]
            )
            assert np.abs(res).max() <= 1e-10 * max(1.0, np.abs(t[k + 1]).max())


def test_evaluate_matches_direct_sum():
    # the exact-rational direct sum is the oracle for the recurrence
    r = np.linspace(0.0, 1.0, 23)
    for d in (2, 3, 5):
        fam = build_family(d, 15)
        for k in range(16):
            got = evaluate(fam, k, r)
            want = evaluate_direct(d, k, r)
            assert np.abs(got - want).max() <= 1e-10


def test_direct_value_k2_d2():
    # P_2 = sqrt(6) (1 - 6r + 6r**2) in d=2; at r=0.5 that is -sqrt(6)/2
    fam = build_family(2, 2)
    want = -math.sqrt(6.0) / 2.0
    assert abs(evaluate_direct(2, 2, 0.5) - want) < 1e-13
    assert abs(evaluate(fam, 2, 0.5) - evaluate_direct(2, 2, 0.5)) <= 1e-11


def test_scalar_in_scalar_out():
    fam = build_family(3, 4)
    assert isinstance(evaluate(fam, 3, 0.25), float)
    assert evaluate(fam, 3, np.array([0.25])).shape == (1,)
    assert isinstance(evaluate_direct(3, 3, 0.25), float)


def test_evaluation_rejects_bad_input():
    fam = build_family(2, 10)
    with pytest.raises(ValueError):
        evaluate(fam, 11, 0.5)
    with pytest.raises(ValueError):
        evaluate(fam, 2, 1.5)
    with pytest.raises(ValueError):
        evaluate(fam, 2, -0.1)
    with pytest.raises(ValueError):
        evaluate_direct(2, 21, 0.5)  # beyond the oracle's cap
    with pytest.raises(ValueError):
        evaluate_direct(1, 2, 0.5)


def test_orthonormality_moderate_degree():
    rule = gauss_legendre(80)
    for d in (2, 3):
        fam = build_family(d, 20)
        t = evaluate_table(fam, rule.nodes)
        gram = (t * (rule.weights * rule.nodes ** (d - 1))) @ t.T
        assert np.abs(gram - np.eye(21)).max() < 1e-11


# ---------------------------------------------------------------------------
# monomial expansion


def test_monomial_coefficient_pins():
    for d in DIMS:
        assert abs(monomial_coefficients(d, 0).coeffs[0] - 1.0 / math.sqrt(d)) < 1e-15
    # d=2, k=2: top coefficient is sqrt(6)/60
    got = monomial_coefficients(2, 2).coeffs
    assert abs(got[2] - math.sqrt(6.0) / 60.0) < 1e-16
    assert got.shape == (3,)


def _monomial_coefficients_by_factorials(d, k):
    # reference: every ratio as a fresh exact Fraction of factorials, rounded once
    num = math.factorial(k + d - 1) * math.factorial(k)
    return np.array(
        [
            (-1) ** q
            * math.sqrt(2 * q + d)
            * float(Fraction(num, math.factorial(k + d + q) * math.factorial(k - q)))
            for q in range(k + 1)
        ]
    )


def test_monomial_recurrence_matches_factorials():
    for d in range(2, 10):
        for k in range(201):
            want = _monomial_coefficients_by_factorials(d, k)
            assert monomial_coefficients(d, k).coeffs.tobytes() == want.tobytes(), (d, k)


def _monomial_coefficient_by_explicit_sum(d, k, q):
    # <r**k, P_q> from P_q's explicit monomial sum (as in evaluate_direct), each
    # term integrated against r**(k + d - 1) exactly, and rounded once
    s = sum(
        Fraction((-1) ** j * math.comb(q, j) * math.comb(q + j + d - 1, q), k + j + d)
        for j in range(q + 1)
    )
    return math.sqrt(2 * q + d) * float(s)


@pytest.mark.parametrize("d, k", [(2, 150), (3, 1500), (100, 150)])
def test_top_monomial_coefficients_match_the_explicit_sum(d, k):
    # the 50-point reconstruction cannot see an error in the top coefficients
    # of r**k; an independent closed form for them can.  At k = 1500 the top
    # ones underflow to 0, so the last non-zero one (subnormal) is checked too.
    got = monomial_coefficients(d, k).coeffs
    for q in (0, 1, k - 1, k, int(np.flatnonzero(got)[-1])):
        assert got[q] == _monomial_coefficient_by_explicit_sum(d, k, q), (d, k, q)


def test_top_coefficient_inverts_leading_term():
    # chi_{k,k} * lead(P_k) = 1: the expansion's top term matches r**k exactly
    for d in DIMS:
        for k in (0, 1, 5, 17, 40):
            top = monomial_coefficients(d, k).coeffs[k]
            assert abs(top * leading_coefficient(d, k) - 1.0) <= 1e-12


def test_reconstruction():
    pts = np.linspace(0.0, 1.0, 50)
    for d in (2, 3):
        for k in (0, 1, 7, 25):
            exp = monomial_coefficients(d, k)
            assert np.abs(exp.reconstruct(pts) - pts**k).max() <= 1e-10


def test_expansion_matches_quadrature_projection():
    # chi_{k,q} must equal <r**k, P_q> computed by straight quadrature
    rule = gauss_legendre(60)
    for d in (2, 4):
        fam = build_family(d, 15)
        t = evaluate_table(fam, rule.nodes)
        for k in (0, 3, 9, 15):
            proj = t[: k + 1] @ (rule.weights * rule.nodes ** (k + d - 1))
            assert np.abs(monomial_coefficients(d, k).coeffs - proj).max() <= 1e-10


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_coefficients(1, 3)
    with pytest.raises(ValueError):
        monomial_coefficients(2, -1)
