import numpy as np

from radialeit import kernels
from radialeit.jacobi import build_family


def test_legendre_recurrence_values():
    t = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
    p, dp = kernels.legendre_table(t, 3)
    np.testing.assert_allclose(p[2], 0.5 * (3 * t**2 - 1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(p[3], 0.5 * (5 * t**3 - 3 * t), rtol=0, atol=1e-15)
    np.testing.assert_allclose(dp[3], 1.5 * (5 * t**2 - 1), rtol=0, atol=1e-14)
    # endpoint values P_k(1) = 1, P_k(-1) = (-1)**k
    assert np.all(p[:, -1] == 1.0)
    np.testing.assert_allclose(p[:, 0], [1.0, -1.0, 1.0, -1.0], rtol=0, atol=0)


def test_degree_zero_table():
    p, dp = kernels.legendre_table(np.array([0.3]), 0)
    assert p.shape == (1, 1) and p[0, 0] == 1.0 and dp[0, 0] == 0.0
    fam = build_family(3, 0)
    out = kernels.jacobi_table(fam.rec_a, fam.rec_b, fam.rec_c, 3.0**0.5, np.array([0.7]))
    assert out.shape == (1, 1)
