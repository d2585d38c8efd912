import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radialeit.jacobi import (
    BasisOverflowError,
    JacobiExpansion,
    _recurrence,
    evaluate_blocks,
    evaluate_table,
    monomial_coefficients,
)
from radialeit.numerics import gauss_legendre

DIMS = (2, 3, 4, 5)


# ---------------------------------------------------------------------------
# recurrence coefficients


def test_recurrence_coefficient_values_d2():
    rec_a, rec_b, rec_c = _recurrence(2, 5)
    assert rec_a[0] == 0.0  # convention: P_{-1} = 0
    # closed forms at k=0,1 in d=2
    assert abs(rec_b[0] - 2.0 / 3.0) < 1e-15
    assert abs(rec_b[1] - 8.0 / 15.0) < 1e-15
    assert abs(rec_c[0] - (-math.sqrt(2.0 / 4.0) * 2.0 / 6.0)) < 1e-15
    # C_1 = -sqrt(4/6) * (2*3)/(4*5) = -(3/10) sqrt(2/3)
    assert abs(rec_c[1] - (-0.2449489742783178)) < 1e-15


def test_recurrence_coefficient_signs():
    for d in DIMS:
        rec_a, rec_b, rec_c = map(np.array, _recurrence(d, 60))
        assert np.all(rec_a[1:] < 0.0)
        assert np.all(rec_c < 0.0)
        assert np.all(rec_b > 0.0) and np.all(rec_b <= 1.0)


@pytest.mark.parametrize("evaluate", [evaluate_table, evaluate_blocks])
@pytest.mark.parametrize(
    "d, max_degree, name",
    [(1, 10, "dimension"), (2.5, 10, "dimension"), (2, -1, "max_degree"),
     (2, 1.0, "max_degree"), (2, True, "max_degree")],
)
def test_evaluation_refuses_a_bad_dimension_or_degree(evaluate, d, max_degree, name):
    # refused when called, before any block is asked for
    with pytest.raises(ValueError, match=f"^{name} must "):
        evaluate(d, max_degree, np.linspace(0.0, 1.0, 5))


# ---------------------------------------------------------------------------
# evaluation


def test_low_degree_closed_forms():
    # P_0 = sqrt(d), P_1 = sqrt(d+2) (d - (d+1) r)
    r = np.linspace(0.0, 1.0, 11)
    for d in DIMS:
        t = evaluate_table(d, 1, r)
        assert_allclose(t[0], math.sqrt(d), rtol=0, atol=1e-15)
        assert_allclose(
            t[1], math.sqrt(d + 2) * (d - (d + 1) * r), rtol=0, atol=5e-14
        )


def test_degree_zero_table():
    out = evaluate_table(3, 0, np.array([0.7]))
    assert out.shape == (1, 1) and out[0, 0] == math.sqrt(3.0)


@pytest.mark.parametrize("num", [1, 63, 64, 65, 128, 129])
def test_blocks_are_the_rows_of_one_table(num):
    # blocks of 64 rows, a last block of one row joined to the one before it,
    # each the bits of the same rows of the whole table
    r = np.linspace(0.0, 1.0, 37)
    blocks = [(start, rows.copy()) for start, rows in evaluate_blocks(3, num - 1, r)]
    want = {1: [1], 63: [63], 64: [64], 65: [65], 128: [64, 64], 129: [64, 65]}[num]
    assert [len(rows) for _, rows in blocks] == want
    assert [start for start, _ in blocks] == [64 * i for i in range(len(want))]
    table = np.concatenate([rows for _, rows in blocks])
    assert table.tobytes() == evaluate_table(3, num - 1, r).tobytes()


def test_recurrence_identity_residual():
    r = np.linspace(0.0, 1.0, 41)
    for d in (2, 4):
        t = evaluate_table(d, 30, r)
        rec_a, rec_b, rec_c = _recurrence(d, 30)
        for k in range(1, 30):
            res = r * t[k] - (rec_a[k] * t[k - 1] + rec_b[k] * t[k] + rec_c[k] * t[k + 1])
            assert np.abs(res).max() <= 1e-10 * max(1.0, np.abs(t[k + 1]).max())


def test_evaluate_matches_direct_sum():
    # the exact-rational direct sum is the oracle for the recurrence
    r = np.linspace(0.0, 1.0, 23)
    for d in (2, 3, 5):
        t = evaluate_table(d, 15, r)
        for k in range(16):
            assert np.abs(t[k] - _direct_sum(d, k, r)).max() <= 1e-10


def test_direct_value_k2_d2():
    # P_2 = sqrt(6) (1 - 6r + 6r**2) in d=2; at r=0.5 that is -sqrt(6)/2
    want = -math.sqrt(6.0) / 2.0
    assert abs(_direct_sum(2, 2, 0.5)[0] - want) < 1e-13
    assert abs(evaluate_table(2, 2, 0.5)[2, 0] - want) <= 1e-11


def test_scalar_in_scalar_out():
    exp = JacobiExpansion(d=3, coeffs=np.array([0.5, -1.0, 0.25]))
    assert isinstance(exp.evaluate(0.25), float)
    assert exp.evaluate(np.array([0.25])).shape == (1,)
    assert evaluate_table(3, 4, 0.25).shape == (5, 1)


def test_evaluation_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate_table(2, 10, 1.5)
    with pytest.raises(ValueError):
        evaluate_table(2, 10, -0.1)
    with pytest.raises(ValueError):
        evaluate_table(2, 10, np.ones((2, 2)) / 2)  # points must be 1-d


def test_every_evaluation_refuses_a_basis_past_the_float_range():
    # near r = 0 the basis grows like binomial(k + d/2, k): in d = 520 it
    # leaves the float range by degree 600, and no caller gets inf or nan
    r = np.linspace(0.0, 1.0, 50)
    with pytest.raises(BasisOverflowError, match="overflows"):
        evaluate_table(520, 600, r)
    blocks = evaluate_blocks(520, 600, r)
    next(blocks)  # degrees 0..63 are finite everywhere
    with pytest.raises(BasisOverflowError, match="overflows"):
        for _ in blocks:
            pass
    with pytest.raises(BasisOverflowError, match="overflows"):
        JacobiExpansion(d=520, coeffs=np.ones(601)).evaluate(r)


def test_blocks_leave_the_callers_error_state_alone():
    # the recurrence ignores overflow only while it runs, not while the
    # generator waits at a yield
    before = np.geterr()
    blocks = evaluate_blocks(520, 200, np.linspace(0.0, 1.0, 50))
    next(blocks)
    assert np.geterr() == before
    next(blocks)
    assert np.geterr() == before


def test_orthonormality_moderate_degree():
    rule = gauss_legendre(80)
    for d in (2, 3):
        t = evaluate_table(d, 20, rule.nodes)
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


def _direct_sum(d, k, r):
    # reference: P_k from its explicit alternating monomial sum, each float
    # point taken as the rational it represents and the sum run exactly, so
    # only the final value is rounded (slow past degree 20)
    coeffs = [(-1) ** q * math.comb(k, q) * math.comb(k + q + d - 1, k) for q in range(k + 1)]
    out = []
    for x in np.atleast_1d(r):
        xf, acc = Fraction(float(x)), Fraction(0)
        for c in reversed(coeffs):
            acc = acc * xf + c
        out.append(math.sqrt(2 * k + d) * float(acc))
    return np.array(out)


def _leading_coefficient(d, k):
    # coefficient of r**k in P_k: sqrt(2k + d) * C(2k + d - 1, k) * (-1)**k
    return (-1.0) ** k * math.sqrt(2 * k + d) * float(math.comb(2 * k + d - 1, k))


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
    # <r**k, P_q> from P_q's explicit monomial sum (as in _direct_sum), each
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
            assert abs(top * _leading_coefficient(d, k) - 1.0) <= 1e-12


def test_reconstruction():
    pts = np.linspace(0.0, 1.0, 50)
    for d in (2, 3):
        for k in (0, 1, 7, 25):
            exp = monomial_coefficients(d, k)
            assert np.abs(exp.evaluate(pts) - pts**k).max() <= 1e-10


def test_expansion_matches_quadrature_projection():
    # chi_{k,q} must equal <r**k, P_q> computed by straight quadrature
    rule = gauss_legendre(60)
    for d in (2, 4):
        t = evaluate_table(d, 15, rule.nodes)
        for k in (0, 3, 9, 15):
            proj = t[: k + 1] @ (rule.weights * rule.nodes ** (k + d - 1))
            assert np.abs(monomial_coefficients(d, k).coeffs - proj).max() <= 1e-10


def test_monomial_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_coefficients(1, 3)
    with pytest.raises(ValueError):
        monomial_coefficients(2, -1)
