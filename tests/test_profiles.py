import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from radialeit import jacobi, profiles
from radialeit.jacobi import (
    BasisOverflowError,
    InputError,
    evaluate_table,
    monomial_coefficients,
)
from radialeit.numerics import gauss_legendre
from radialeit.operator import spectrum_moment
from radialeit.profiles import (
    MAX_PIECE_DEGREE,
    JacobiExpansion,
    RadialProfile,
    log_surface_area,
    moment_integral,
    norm_ball,
    norm_ball_profile,
    preset,
    profile_from_dict,
    profile_to_dict,
    project,
)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.1, 1.0]), (np.array([1.0]),))  # must start at 0
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.9]), (np.array([1.0]),))  # must end at 1
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.5, 0.5, 1.0]), tuple(np.array([1.0]) for _ in range(3)))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), (np.array([1.0]), np.array([2.0])))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), (np.array([np.nan]),))
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), (np.zeros(MAX_PIECE_DEGREE + 2),))
    with pytest.raises(ValueError, match="at least two entries"):
        RadialProfile(np.array([0.0]), ())


def _assert_pieces(prof, breakpoints, pieces):
    assert prof.breakpoints.tolist() == breakpoints
    assert [p.tolist() for p in prof.pieces] == pieces


def test_piecewise_evaluation():
    # the annulus value on [r1, r2] and zero on either side, each a constant piece
    prof = preset("annulus", [0.25, 0.75, 3.0])
    _assert_pieces(prof, [0.0, 0.25, 0.75, 1.0], [[0.0], [3.0], [0.0]])


def test_presets():
    _assert_pieces(preset("constant", [2.0]), [0.0, 1.0], [[2.0]])
    _assert_pieces(preset("ramp", [3.0]), [0.0, 1.0], [[0.0, 3.0]])
    _assert_pieces(preset("polynomial", [0.0, 0.0, 1.0]), [0.0, 1.0], [[0.0, 0.0, 1.0]])
    # degenerate cuts collapse
    _assert_pieces(preset("annulus", [0.0, 0.5, 2.0]), [0.0, 0.5, 1.0], [[2.0], [0.0]])
    _assert_pieces(preset("annulus", [0.0, 1.0, 2.0]), [0.0, 1.0], [[2.0]])
    with pytest.raises(InputError):
        preset("annulus", [0.8, 0.3, 1.0])
    with pytest.raises(InputError):
        preset("annulus", [0.5, 1.0])
    with pytest.raises(InputError):
        preset("constant", [1.0, 2.0])
    with pytest.raises(InputError):
        preset("polynomial", [])
    with pytest.raises(InputError):
        preset("gaussian", [1.0])


def test_dict_round_trip():
    prof = preset("annulus", [0.3, 0.8, -1.5])
    doc = {**profile_to_dict(prof), "dimension": 3}
    back, d = profile_from_dict(json.loads(json.dumps(doc)))
    assert d == 3
    assert_allclose(back.breakpoints, prof.breakpoints, rtol=0, atol=0)
    for a, b in zip(back.pieces, prof.pieces):
        assert_allclose(a, b, rtol=0, atol=0)


def test_dict_validation():
    with pytest.raises(ValueError):
        profile_from_dict({"breakpoints": [0.0, 1.0]})
    with pytest.raises(ValueError):
        profile_from_dict({"breakpoints": [0.0, 1.0], "pieces": [[1.0]], "extra": 1})
    with pytest.raises(ValueError):
        profile_from_dict({"breakpoints": [0.0, 1.0], "pieces": [[1.0]], "dimension": 1})
    with pytest.raises(ValueError):
        profile_from_dict([1, 2, 3])


# ---------------------------------------------------------------------------
# integrals and norms


def _surface_area(d):
    return math.exp(log_surface_area(d))


def test_surface_area_values():
    assert abs(_surface_area(2) - 2.0 * math.pi) < 1e-15
    assert abs(_surface_area(3) - 4.0 * math.pi) < 1e-14
    assert abs(_surface_area(4) - 2.0 * math.pi**2) < 1e-13
    with pytest.raises(ValueError):
        log_surface_area(1)


def test_surface_area_in_high_dimensions():
    # Gamma(d/2) overflows from d = 344 and the area underflows from d = 438;
    # the log-space area and the ball norms built on it stay finite
    assert 0.0 < _surface_area(344) < 1e-150
    assert _surface_area(1000) == 0.0
    assert abs(log_surface_area(3) - math.log(4.0 * math.pi)) < 1e-15
    assert abs(log_surface_area(1000) + 2032.0578) < 1e-4  # log 2 + 500 log pi - log 499!
    prof = preset("constant", [1.0])
    for d in (344, 520, 1000):
        want = math.exp(0.5 * (log_surface_area(d) - math.log(d)))  # sqrt(|S| / d)
        assert abs(norm_ball_profile(prof, d) - want) <= 1e-13 * want
        assert abs(norm_ball(project(prof, d, 0)) - want) <= 1e-10 * want  # quadrature of r**(d-1)


@settings(max_examples=60, deadline=None)
@given(power=st.integers(min_value=0, max_value=400))
def test_moment_closed_forms(power):
    assert abs(moment_integral(preset("constant", [1.0]), power) - 1.0 / (power + 1)) < 1e-15
    assert abs(moment_integral(preset("ramp", [1.0]), power) - 1.0 / (power + 2)) < 1e-15
    r1, r2, c = 0.3, 0.8, -1.5
    want = c * (r2 ** (power + 1) - r1 ** (power + 1)) / (power + 1)
    got = moment_integral(preset("annulus", [r1, r2, c]), power)
    assert abs(got - want) <= 1e-15 * max(1.0, abs(want))


def test_moment_rejects_negative_power():
    with pytest.raises(ValueError):
        moment_integral(preset("constant", [1.0]), -1)
    with pytest.raises(ValueError):
        moment_integral(preset("constant", [1.0]), np.array([3, -1]))
    with pytest.raises(ValueError):
        moment_integral(preset("constant", [1.0]), np.array([2.0]))


def test_moment_arrays_match_scalar_calls(corpus):
    powers = np.arange(0, 420, 7)
    for _, prof in corpus:
        got = moment_integral(prof, powers)
        assert got.shape == powers.shape
        assert got.tolist() == [moment_integral(prof, int(p)) for p in powers]
        assert moment_integral(prof, powers.reshape(6, 10)).tolist() == got.reshape(6, 10).tolist()


# Every power taken, as the moments and ball norms were before the powers that
# underflow were skipped: the reference for _piece_integral, bit for bit.
def _every_power_integral(coeffs, lo, hi, power, top_power=None):
    p = np.arange(coeffs.size, dtype=float) + np.expand_dims(power, -1) + 1.0
    return np.sum(coeffs * (hi**p - lo**p) / p, axis=-1)


_ENDPOINTS = (0.0, 2.0**-1074, 1e-300, 0.2, 0.5, 0.95, 1.0 - 2.0**-53, 1.0)


def _powers_across_cuts(L, size):
    # 2 ell + 1 for ell = 1..L, as eigvals takes them in d = 4, and every power
    # whose exponents p = power + j + 1 (j < size) reach past the cut of an
    # endpoint, p log2(x) = -1100, from one side to the other
    powers = [np.arange(3, 2 * L + 2, 2)]
    for x in _ENDPOINTS[1:-1]:
        cut = int(profiles._LOG2_UNDERFLOW / math.log2(x))
        powers.append(np.arange(max(cut - size - 2, 0), cut + 3))
    return np.concatenate(powers)


@pytest.mark.parametrize("L", [1, 7, 400, 2_000, 30_000])
def test_moments_skip_only_the_powers_that_underflow(monkeypatch, L):
    # every entry skipped is the 0.0 that pow returns there: each piece
    # integral, moment and ball norm is that of every power taken, byte for
    # byte, at endpoints from the smallest subnormal to the last float below 1
    rng = np.random.default_rng(L)
    pieces = [rng.uniform(-2.0, 2.0, size) for size in (1, 4, 33)]
    # each endpoint as hi above 0 and as lo below 1 (each side's powers are
    # taken on their own)
    pairs = [(0.0, x) for x in _ENDPOINTS[1:]] + [(x, 1.0) for x in _ENDPOINTS[:-1]]
    for c in pieces:
        powers = _powers_across_cuts(L, c.size)
        # the whole array, and one at a time the first powers and those at the cuts
        for lo, hi in pairs:
            for power in (powers, *powers[:20].tolist(), *powers[-20:].tolist()):
                want = _every_power_integral(c, lo, hi, power)
                got = profiles._piece_integral(c, lo, hi, power, int(np.max(power)))
                assert got.tobytes() == want.tobytes(), (c.size, lo, hi, power)
    prof = RadialProfile(np.array(_ENDPOINTS), tuple(pieces[i % 3] for i in range(7)))
    powers = _powers_across_cuts(L, 33)
    dims = (2, 3, 520, 2 * L + 2)
    got = [moment_integral(prof, powers), moment_integral(prof, 2 * L)]
    got += [norm_ball_profile(prof, d) for d in dims]
    monkeypatch.setattr(profiles, "_piece_integral", _every_power_integral)
    want = [moment_integral(prof, powers), moment_integral(prof, 2 * L)]
    want += [norm_ball_profile(prof, d) for d in dims]
    assert [np.asarray(v).tobytes() for v in got] == [np.asarray(v).tobytes() for v in want]


def test_powers_next_to_one_return_at_once():
    # the cut is one division, not a search: at x = 1 - 2**-53 it lies near
    # p = 6.9e18, past every exponent, and the moments at L = 30,000 return
    x = 1.0 - 2.0**-53
    p = np.arange(1.0, 60_001.0)
    assert profiles._powers(x, p, 60_000).tobytes() == (x**p).tobytes()
    prof = RadialProfile(np.array([0.0, x, 1.0]), (np.array([1.0, -0.5]), np.array([2.0])))
    powers = np.arange(1, 30_001) * 2 + 1
    assert np.all(moment_integral(prof, powers) > 0.0)
    # at 2**-1074 (log2 = -1074) only p = 1 is taken: 2**-1074 itself
    tiny = np.array([1.0, 2.0, 3.0])
    assert profiles._powers(2.0**-1074, tiny, 3).tolist() == [2.0**-1074, 0.0, 0.0]


def test_norms():
    # ||1||_{L2(ball)} = sqrt(|S^{d-1}|/d)
    assert abs(norm_ball_profile(preset("constant", [1.0]), 2) - math.sqrt(math.pi)) < 1e-15
    assert abs(
        norm_ball_profile(preset("constant", [1.0]), 3) - math.sqrt(4.0 * math.pi / 3.0)
    ) < 1e-15
    assert abs(norm_ball_profile(preset("ramp", [1.0]), 2) - math.sqrt(math.pi / 2.0)) < 1e-15
    assert norm_ball_profile(preset("constant", [0.0]), 4) == 0.0


def _random_pieces(seed, count=2000):
    # pieces of degree <= MAX_PIECE_DEGREE, some with trailing zeros, some
    # all zero, some whose last coefficient squares to 0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.uniform(-2.0, 2.0, rng.integers(1, MAX_PIECE_DEGREE + 2))
        c[c.size - rng.integers(0, c.size + 1) :] = 0.0
        if rng.random() < 0.1:
            c[-1] = 1e-170
        yield c


def test_squared_piece_is_numpys_polymul_bit_for_bit():
    for c in _random_pieces(1):
        assert profiles._squared(c).tobytes() == npoly.polymul(c, c).tobytes(), c


def test_piece_values_are_numpys_polyval_bit_for_bit():
    # project and the oracle's radial moments evaluate a piece, constant term
    # first, as np.polyval of the reversed coefficients
    r = np.random.default_rng(2).uniform(0.0, 1.0, 50)
    for c in _random_pieces(3):
        assert np.polyval(c[::-1], r).tobytes() == npoly.polyval(r, c).tobytes(), c


def test_ball_norm_is_the_same_value_on_every_call():
    # nothing is kept on the profile: every call computes the norm, and equal
    # profiles give equal norms in each dimension
    prof = preset("annulus", [0.3, 0.8, -1.5])
    assert set(vars(prof)) == {"breakpoints", "pieces"}
    for d in (2, 3, 5):
        first = norm_ball_profile(prof, d)
        assert norm_ball_profile(prof, d) == first
        assert spectrum_moment(prof, d, 10).eta_norm == first
        assert norm_ball_profile(preset("annulus", [0.3, 0.8, -1.5]), d) == first
    assert norm_ball_profile(prof, 2) != norm_ball_profile(prof, 3)


def test_a_ball_norm_past_the_float_range_is_refused():
    # finite coefficients whose norm is not a float: 2.05e308 in d = 3, while
    # sqrt(pi) * 1e308 in d = 2 still is one
    huge = preset("constant", [1e308])
    assert math.isclose(norm_ball_profile(huge, 2), math.sqrt(math.pi) * 1e308, rel_tol=1e-15)
    with pytest.raises(
        jacobi.FloatRangeError, match=r"^the profile's L2 norm over the ball in d = 3 is not finite$"
    ):
        norm_ball_profile(huge, 3)
    assert issubclass(BasisOverflowError, jacobi.FloatRangeError)


# ---------------------------------------------------------------------------
# projection


def test_constant_projects_to_degree_zero():
    for d in (2, 3, 5):
        exp = project(preset("constant", [1.0]), d, 12)
        assert abs(exp.coeffs[0] - 1.0 / math.sqrt(d)) < 1e-14
        assert np.abs(exp.coeffs[1:]).max() < 1e-14


def test_ramp_projects_to_two_coefficients():
    # <r, P_1> = -1 / ((d+1) sqrt(d+2)), everything above degree 1 vanishes
    for d in (2, 3, 4):
        exp = project(preset("ramp", [1.0]), d, 10)
        want = -1.0 / ((d + 1) * math.sqrt(d + 2))
        assert abs(exp.coeffs[1] - want) < 1e-14
        assert np.abs(exp.coeffs[2:]).max() < 1e-13


def test_annulus_coefficients_match_exact_piece_integrals():
    # independent route: expand P_k into exact integer monomial coefficients,
    # integrate each monomial over [r1, r2] analytically (exact rationals;
    # the alternating sum cancels too hard for floats)
    from fractions import Fraction

    r1, r2, c = 0.3, 0.8, -1.5
    prof = preset("annulus", [r1, r2, c])
    f1, f2 = Fraction(r1), Fraction(r2)
    for d in (2, 3):
        exp = project(prof, d, 12)
        for k in range(13):
            scale = math.sqrt(2 * k + d)
            want = Fraction(0)
            for q in range(k + 1):
                coef = (-1) ** q * math.comb(k, q) * math.comb(k + q + d - 1, k)
                want += Fraction(coef, q + d) * (f2 ** (q + d) - f1 ** (q + d))
            assert abs(exp.coeffs[k] - c * scale * float(want)) <= 1e-12


def test_projection_is_exact_for_polynomials_in_span():
    # a polynomial of degree m is reproduced exactly by its degree-m expansion
    prof = preset("polynomial", [0.3, -1.2, 0.0, 2.5])
    pts = np.linspace(0.0, 1.0, 33)
    for d in (2, 4):
        exp = project(prof, d, 3)
        assert np.abs(exp.evaluate(pts) - npoly.polyval(pts, prof.pieces[0])).max() < 1e-13
        # and Parseval then gives the exact ball norm
        assert abs(norm_ball(exp) - norm_ball_profile(prof, d)) < 1e-13


def test_parseval_is_monotone_for_rough_profiles():
    prof = preset("annulus", [0.5, 1.0, 1.0])
    exact = norm_ball_profile(prof, 2)
    prev = 0.0
    for kmax in (2, 8, 32):
        n = norm_ball(project(prof, 2, kmax))
        assert prev <= n + 1e-15
        assert n <= exact + 1e-12
        prev = n
    assert exact - prev < 0.05  # the tail is genuinely small by degree 32


def _project_per_piece(profile, d, max_degree):
    # the plain form of project: one full basis table per piece, summed in piece
    # order; a profile of one piece of degree m to degree min(max_degree, m),
    # then exact zeros
    m = profile.pieces[0].size - 1
    if len(profile.pieces) == 1 and max_degree > m:
        head = _project_per_piece(profile, d, m)
        return np.concatenate([head, np.zeros(max_degree - head.size + 1)])
    total = np.zeros(max_degree + 1)
    for lo, hi, c in profile.intervals():
        rule = gauss_legendre((max_degree + (c.size - 1) + d) // 2 + 2)
        r = lo + (hi - lo) * rule.nodes
        w = (hi - lo) * rule.weights
        total += evaluate_table(d, max_degree, r) @ (w * npoly.polyval(r, c) * r ** (d - 1))
    return total


def test_project_equals_one_table_per_piece(corpus):
    # bit for bit, at degrees on both sides of the batched recurrence's 64-degree blocks
    for _, prof in corpus:
        for d in (2, 3, 5):
            for K in (0, 1, 63, 64, 65, 200):
                got = project(prof, d, K).coeffs
                assert got.tobytes() == _project_per_piece(prof, d, K).tobytes(), (d, K)


def test_one_piece_projection_runs_only_its_own_degrees(monkeypatch):
    runs = []  # the number of basis degrees each projection's recurrence runs
    real = jacobi.evaluate_blocks

    def counted(d, max_degree, r):
        runs.append(0)
        for start, block in real(d, max_degree, r):
            runs[-1] += len(block)
            yield start, block

    monkeypatch.setattr(jacobi, "evaluate_blocks", counted)
    K = 175
    cubic = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    two_pieces = preset("annulus", [0.0, 0.5, 2.0])
    assert len(two_pieces.pieces) == 2
    for prof in (preset("constant", [1.0]), cubic, two_pieces):
        project(prof, 3, K)
    assert runs == [1, 4, K + 1]
    assert project(cubic, 3, 2).max_degree == 2 and runs[-1] == 3  # K below m
    for bad in (-1, 2.5):  # refused before the degree is cut to m
        with pytest.raises(ValueError, match="max_degree"):
            project(preset("constant", [1.0]), 3, bad)


def test_one_piece_projection_is_exactly_zero_past_its_degree(corpus):
    for _, prof in corpus:
        if len(prof.pieces) > 1:
            continue
        m = prof.pieces[0].size - 1
        for d in (2, 3, 5, 100):
            for K in (m, m + 1, 64, 200):
                coeffs = project(prof, d, K).coeffs
                assert coeffs.size == K + 1
                assert coeffs[m + 1 :].tobytes() == np.zeros(max(K - m, 0)).tobytes()


def test_project_holds_one_block_of_the_table():
    # six pieces of ~400 nodes each at K = 798: one table per piece peaks near
    # 5 MB, one table over all pieces near 16 MB
    prof = RadialProfile(
        np.linspace(0.0, 1.0, 7), tuple(np.array([1.0, -0.5 * i, 0.25]) for i in range(6))
    )
    want = project(prof, 3, 798)  # builds the shared quadrature rules first
    tracemalloc.start()
    try:
        got = project(prof, 3, 798)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert peak < 2.6e6


def test_project_refuses_a_basis_past_the_float_range():
    # near r = 0 the basis grows like binomial(k + d/2, k): in d = 520 it leaves
    # the float range by degree 600.  A profile of several pieces needs every
    # degree; one of a single piece needs only its own and does not overflow.
    with pytest.raises(BasisOverflowError, match="overflows"):
        project(preset("annulus", [0.3, 0.8, 1.0]), 520, 600)
    assert project(preset("constant", [1.0]), 520, 600).coeffs[1:].tolist() == [0.0] * 600


def test_project_stops_at_the_block_that_overflows(monkeypatch):
    starts = []  # the first degree of each block the recurrence hands out
    real = jacobi.evaluate_blocks

    def counted(d, max_degree, r):
        for start, block in real(d, max_degree, r):
            starts.append(start)
            yield start, block

    monkeypatch.setattr(jacobi, "evaluate_blocks", counted)
    with pytest.raises(BasisOverflowError, match="by degree 511 "):
        project(preset("annulus", [0.3, 0.8, 1.0]), 520, 600)
    # blocks 0..447 are read; the one through degree 511 overflows, and the
    # two blocks above it (up to degree 600) are never run
    assert starts == list(range(0, 448, 64))


def test_expansion_validation():
    with pytest.raises(ValueError):
        JacobiExpansion(d=2, coeffs=np.array([]))
    with pytest.raises(ValueError):
        JacobiExpansion(d=2, coeffs=np.array([1.0, np.inf]))
    exp = JacobiExpansion(d=2, coeffs=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        exp.coeffs[0] = 3.0
