import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from radialeit import numerics, operator, oracle
from radialeit.jacobi import (
    FloatRangeError,
    evaluate_blocks,
    evaluate_table,
    monomial_coefficients,
)
from radialeit.numerics import gauss_legendre
from radialeit.operator import (
    Spectrum,
    decay_constant,
    dual_route,
    eigenvalue_moment,
    eigenvalue_series,
    forward_matrix,
    harmonic_space_dim,
    invert,
    spectrum_moment,
    spectrum_series,
    truncation_error,
    verify_decay_bound,
    verify_factorial_ratio_bound,
)
from radialeit.oracle import cross_validate
from radialeit.profiles import (
    JacobiExpansion,
    moment_integral,
    norm_ball_profile,
    preset,
    project,
)


# ---------------------------------------------------------------------------
# eigenspace dimensions


def test_harmonic_space_dims():
    assert [harmonic_space_dim(ell, 2) for ell in range(4)] == [1, 2, 2, 2]
    assert [harmonic_space_dim(ell, 3) for ell in range(4)] == [1, 3, 5, 7]
    # d=4, ell=2: C(5,3) - C(3,3) = 9
    assert harmonic_space_dim(2, 4) == 9
    with pytest.raises(ValueError):
        harmonic_space_dim(-1, 3)
    with pytest.raises(ValueError):
        harmonic_space_dim(2, 1)


# ---------------------------------------------------------------------------
# the two eigenvalue routes


def test_constant_profile_closed_form():
    prof = preset("constant", [1.0])
    for d in (2, 3, 6):
        exp = project(prof, d, 0)
        for ell in (1, 2, 9, 31):
            assert abs(eigenvalue_series(exp, ell) + 1.0 / ell) <= 1e-12
            assert abs(eigenvalue_moment(prof, d, ell) + 1.0 / ell) <= 1e-12


def test_ramp_closed_form_d2():
    # eta = r in d=2: lambda_ell = -2/(2 ell + 1)
    prof = preset("ramp", [1.0])
    exp = project(prof, 2, 1)
    for ell in (1, 2, 5, 20):
        want = -2.0 / (2 * ell + 1)
        assert abs(eigenvalue_series(exp, ell) - want) <= 1e-13
        assert abs(eigenvalue_moment(prof, 2, ell) - want) <= 1e-13


def test_annulus_values_d2():
    prof = preset("annulus", [0.5, 1.0, 1.0])
    assert abs(eigenvalue_moment(prof, 2, 1) - (-0.75)) < 1e-15
    assert abs(abs(eigenvalue_moment(prof, 2, 6)) - (1.0 - 0.5**12) / 6.0) < 1e-15


def test_series_is_linear_in_the_coefficients():
    rng = np.random.default_rng(7)
    a = rng.normal(size=9)
    b = rng.normal(size=9)
    for d in (2, 4):
        ea, eb = JacobiExpansion(d, a), JacobiExpansion(d, b)
        both = JacobiExpansion(d, 0.7 * a + b)
        for ell in (1, 3, 5):
            mix = 0.7 * eigenvalue_series(ea, ell) + eigenvalue_series(eb, ell)
            assert abs(eigenvalue_series(both, ell) - mix) <= 1e-12


def test_spectrum_sources_and_norms():
    prof = preset("annulus", [0.3, 0.8, -1.5])
    full = spectrum_series(project(prof, 3, 18), 10)
    cut = spectrum_series(project(prof, 3, 5), 10)
    assert full.source == "series"
    assert cut.source == "series-truncated"
    mom = spectrum_moment(prof, 3, 10)
    assert mom.source == "moment"
    assert abs(mom.eta_norm - norm_ball_profile(prof, 3)) < 1e-14
    assert mom.max_index == 10
    with pytest.raises(ValueError):
        mom.eigenvalues[0] = 0.0


def test_dual_route_report(starved_projection):
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    rep = dual_route(prof, 3, 12)  # degree 3: nothing past a_3 to zero
    assert rep.ok and rep.max_scaled_diff <= 1e-10
    assert rep.series.source == "series"
    # starving the series route of coefficients must show up, not be hidden
    rough = preset("annulus", [0.5, 1.0, 1.0])
    starved = dual_route(rough, 2, 12)
    assert starved.max_scaled_diff > 1e-8 and not starved.ok


def _band_rows(d, L):
    # the weight rows 1..L as (weights, tail bound) pairs; the band yields its
    # blocks from the last one down
    rows = []
    for block, count in operator._weight_band(d, L):
        rows[:0] = [(block.weights[i, : block.cuts[i] + 1], block.tails[i]) for i in range(count)]
    return rows


def _uncut_rows(d, L, first=1):
    """Full rows k = 0..2 ell - 2 of the weights, ell = first..L, zero-padded
    to 2L - 1 columns: the plain ratio recurrence, kept here uncut."""
    n = 2.0 * np.arange(first - 1, L)[:, None]
    k = np.arange(2 * L - 1)
    ratio = np.maximum(n - k, 0.0) / (n + d + k + 1.0)
    r = np.ones((n.size, 2 * L - 1))
    r[:, 1:] = np.cumprod(ratio[:, :-1], axis=1)
    sign = np.where(k % 2 == 0, -1.0, 1.0)
    return sign * np.sqrt(2.0 * k + d) * r / np.arange(first, L + 1)[:, None]


def _exact_row(d, ell, count):
    # weights k < count with the factorial ratio as one exact fraction, rounded once
    n, num, den, row = 2 * ell - 2, 1, 1, []
    for k in range(count):
        row.append((-1.0 if k % 2 == 0 else 1.0) * math.sqrt(2 * k + d) / ell * (num / den))
        num *= n - k
        den *= n + d + k + 1
    return np.array(row)


def test_series_spectrum_matches_per_degree_sums(corpus):
    # Degree ell sums w(ell, k) a_k over k <= k*(ell) by itself: the first 40
    # rows of a 256-row block and eigenvalue_series's one-row block give the
    # same bits, and both are the forward-matrix row sum to a few ulps, whether
    # the expansion covers the cut (K = 78) or stops short of it.
    for _, prof in corpus:
        for d in (2, 3, 5):
            for K in (78, 20, 5):
                exp = project(prof, d, K)
                spec = spectrum_series(exp, 40)
                for ell in range(1, 41):
                    n = min(K, 2 * ell - 2) + 1
                    terms = forward_matrix(d, ell, n)[-1] * exp.coeffs[:n]
                    got = spec.eigenvalues[ell - 1]
                    assert eigenvalue_series(exp, ell) == got
                    assert abs(got - math.fsum(terms)) <= 4 * 2.0**-53 * np.abs(terms).sum()


def test_cut_bound_dominates_the_exact_tail_and_is_tight():
    # k*(ell): the first k whose bound on ||w(ell, >k)||_2 is <= 2**-53 |w(ell, 0)|.
    # Against full uncut rows it must bound the true tail and cut within 5% of
    # the first k where the true tail is that small.
    ells = np.r_[1:200, 200:2001:9]
    for d in (2, 3, 5, 9):
        rows = _band_rows(d, 2000)
        for ell in ells:
            w, bound = rows[ell - 1]
            full = _uncut_rows(d, int(ell), first=int(ell))[0]
            tail = np.sqrt(np.cumsum(full[::-1] ** 2)[::-1])[1:]  # ||w(ell, >k)||_2, k < 2 ell - 2
            tail = np.append(tail, 0.0)
            kstar = w.size - 1
            assert bound >= tail[kstar]
            assert bound <= 2.0**-53 * abs(full[0]) * (1 + 1e-9)
            assert (bound == 0.0) == (kstar == 2 * ell - 2)
            exact_cut = int(np.argmax(tail <= 2.0**-53 * abs(full[0])))
            assert exact_cut <= kstar <= 1.05 * exact_cut


def test_band_weights_match_exact_fractions():
    for d in (2, 3, 5, 9):
        rows = _band_rows(d, 2000)
        for ell in (1, 2, 7, 30, 100, 400, 1001, 2000):
            w = rows[ell - 1][0]
            want = _exact_row(d, ell, w.size)
            assert np.abs(w - want).max() <= 1e-14 * np.abs(want).max()
            assert np.all(np.abs(w - want) <= 1e-14 * np.abs(want))


def test_cut_spectrum_lies_within_its_tail_bound(corpus):
    # The series reads k <= k*(ell) only; what it drops is bounded per degree by
    # the reported tail bound.  Compared with the uncut full-row sum over the
    # same coefficients (exactly rounded), plus a few ulps of sum |w_k a_k|.
    L = 400
    for d in (2, 3, 5):
        full = _uncut_rows(d, L)
        for _, prof in corpus:
            exp = project(prof, d, 2 * L - 2)
            terms = full * exp.coeffs
            uncut = np.array([math.fsum(row) for row in terms.tolist()])
            scale = np.abs(terms).sum(axis=1)
            rep = dual_route(prof, d, L)
            assert rep.tail_bounds.shape == (L,) and np.all(rep.tail_bounds >= 0.0)
            cut = spectrum_series(exp, L).eigenvalues
            assert np.all(np.abs(cut - uncut) <= rep.tail_bounds + 8 * 2.0**-53 * scale)


def test_one_piece_series_matches_exact_eigenvalues(corpus, exact):
    # a one-piece profile's coefficients past its degree are exact zeros, so the
    # series route carries no projection rounding beyond them
    L = 400
    for name, prof in corpus:
        if len(prof.pieces) > 1:
            continue
        ref_prof = exact.ExactProfile(prof.breakpoints.tolist(), [p.tolist() for p in prof.pieces])
        for d in (2, 3, 5):
            want = np.array(list(itertools.islice(exact.moment_eigenvalues(ref_prof, d), L)))
            got = dual_route(prof, d, L).series.eigenvalues
            err = np.abs(got - want).max()
            assert err <= 2e-15 * exact.ball_norm(ref_prof, d), (name, d, err)


def test_cut_estimate_lies_above_the_cut():
    # the CLI sizes eigvals's projection by it before any weight is built
    for d in (2, 3, 9, 520):
        for ell in (1, 2, 10, 100, 1000, 10_000, 30_000):
            kstar = int(operator._row_block(d, ell, ell).cuts[0])
            assert kstar <= operator.cut_estimate(d, ell)
            if d <= 9 and ell >= 100:
                assert operator.cut_estimate(d, ell) <= 1.3 * kstar


_CAP = operator._MAX_DEGREE


def test_degree_cap_lies_where_the_slack_covers_the_rounding():
    # the computed tail test implies the true one while
    # (2k + 6 + 4 rho**2 / (1 - rho**2)) u <= _SLACK - 1, k = k*(ell); at the cap
    # k* does not rise with d, so d = 2 bounds every dimension
    assert _CAP % operator._ROW_BLOCK == 0
    cuts = [int(operator._row_block(d, _CAP, _CAP).cuts[0]) for d in (2, 3, 520)]
    assert cuts[0] >= cuts[1] >= cuts[2]
    k, n = cuts[0], 2 * _CAP - 2
    rho2 = ((n - k - 1) / (n + k + 4)) ** 2 * (2 * k + 6) / (2 * k + 4)  # rho_{k+1}**2, d = 2
    assert (2 * k + 6 + 4 * rho2 / (1 - rho2)) * 2.0**-53 <= operator._SLACK - 1.0


def test_entry_points_refuse_degrees_past_the_cap(monkeypatch):
    built = _counted_row_blocks(monkeypatch)
    exp = JacobiExpansion(2, np.ones(3))
    calls = [
        ("degree", lambda: eigenvalue_series(exp, _CAP + 1)),
        ("max_index", lambda: spectrum_series(exp, _CAP + 1)),
        ("max_index", lambda: dual_route(preset("constant", [1.0]), 2, _CAP + 1)),
        ("max_index", lambda: forward_matrix(2, _CAP + 1, 1)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must lie in 1..{_CAP}, got {_CAP + 1}$"):
            call()
    assert built == [] and not operator._weight_blocks
    # the cap itself is accepted; lambda_ell of a_0 alone is -sqrt(d)/ell
    assert eigenvalue_series(JacobiExpansion(2, [1.0]), _CAP) == -math.sqrt(2.0) / _CAP
    assert math.isfinite(eigenvalue_series(JacobiExpansion(2, np.ones(5000)), _CAP))
    assert len(built) == 2 and not operator._weight_blocks


def test_dual_route_projects_to_the_cut():
    prof = preset("annulus", [0.3, 0.8, 1.0])
    rep = dual_route(prof, 3, 400)
    kstar = _band_rows(3, 400)[-1][0].size - 1
    assert rep.coeff_degree == kstar < 2 * 400 - 2
    assert rep.series.source == "series"
    assert rep.ok and rep.max_scaled_diff <= 1e-14
    # rows short enough to be whole carry no tail bound; cut rows carry one
    whole = [w.size == 2 * ell - 1 for ell, (w, _) in enumerate(_band_rows(3, 400), 1)]
    assert np.all((rep.tail_bounds == 0.0) == np.array(whole))
    assert 0.0 < rep.tail_bounds.max() <= 2.0**-53 * math.sqrt(3.0) * rep.moment.eta_norm


def _held():
    return sum(block.weights.size for block in operator._weight_blocks.values())


def _counted_row_blocks(monkeypatch):
    # an empty store, and the (d, first, last) of every block built from now on
    operator._weight_blocks.clear()
    built = []
    real = operator._row_block

    def counted(d, first, last):
        built.append((d, first, last))
        return real(d, first, last)

    monkeypatch.setattr(operator, "_row_block", counted)
    return built


def test_series_weights_built_once_per_dimension(monkeypatch):
    # block b holds rows 256 b + 1 .. 256 (b + 1); a smaller L or any K builds
    # nothing, and a larger L builds only the blocks it newly reaches
    built = _counted_row_blocks(monkeypatch)
    coeffs = np.random.default_rng(3).normal(size=1200)

    def series(L, K):
        return spectrum_series(JacobiExpansion(7, coeffs[: K + 1]), L).eigenvalues

    first = series(40, 78)
    assert built == [(7, 1, 256)]
    block = operator._weight_blocks[7, 0]
    for L, K in ((20, 10), (40, 78), (40, 5), (1, 0), (256, 510)):  # inside the block, any K
        series(L, K)
    assert series(40, 78).tobytes() == first.tobytes()
    assert len(built) == 1
    grown = series(600, 1198)  # only the new blocks are built, the last first, and the old one stays
    assert built[1:] == [(7, 513, 768), (7, 257, 512)]
    assert operator._weight_blocks[7, 0] is block
    assert grown[:40].tobytes() == first.tobytes()  # a row does not depend on L
    assert series(300, 598).tobytes() == grown[:300].tobytes()
    assert len(built) == 3


def test_series_sweep_builds_each_block_once(monkeypatch):
    # L = 1..600 in turn reaches rows up to 768: three blocks, each built once
    built = _counted_row_blocks(monkeypatch)
    exp = JacobiExpansion(3, np.ones(400))
    for L in range(1, 601):
        spectrum_series(exp, L)
    assert built == [(3, 1, 256), (3, 257, 512), (3, 513, 768)]


def test_weight_bands_are_read_only_and_capped(monkeypatch):
    size = {(d, b): operator._row_block(d, 256 * b + 1, 256 * (b + 1)).weights.size
            for d, b in ((2, 0), (2, 1), (3, 0))}
    built = _counted_row_blocks(monkeypatch)
    cap = size[2, 0] + size[2, 1]
    monkeypatch.setattr(operator, "_BAND_CAP", cap)
    coeffs = np.ones(1599)
    spectrum_series(JacobiExpansion(2, coeffs), 10)
    spectrum_series(JacobiExpansion(3, coeffs), 10)
    block = operator._weight_blocks[2, 0]
    for arr in (block.weights, block.cuts, block.tails):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    spectrum_series(JacobiExpansion(2, coeffs), 10)  # reading (2, 0) makes (3, 0) the oldest
    spectrum_series(JacobiExpansion(2, coeffs), 300)  # so (2, 1), read first, pushes out (3, 0)
    assert list(operator._weight_blocks) == [(2, 1), (2, 0)]
    assert operator._weight_blocks[2, 0] is block
    assert _held() <= cap
    assert built == [(2, 1, 256), (3, 1, 256), (2, 257, 512)]  # held blocks are read, not rebuilt
    # three blocks used, each larger than the last, read from the last one down:
    # each block built drops the oldest until it fits, so the request rebuilds
    # the two it dropped and ends holding the lowest blocks that fit
    spectrum_series(JacobiExpansion(2, coeffs), 700)
    assert built[3:] == [(2, 513, 768), (2, 257, 512), (2, 1, 256)]
    assert list(operator._weight_blocks) == [(2, 1), (2, 0)]
    assert _held() <= cap


def test_dual_route_past_the_cap_builds_each_block_once(monkeypatch):
    # the band is read from its last block down, so the block of the longest
    # row, which dual_route reads first, is the next one summed: even under a
    # cap below one block each block is built once, and never a row alone
    prof = preset("annulus", [0.3, 0.8, 1.0])
    built = _counted_row_blocks(monkeypatch)
    blocks = [(2, 256 * b + 1, 256 * (b + 1)) for b in reversed(range(12))]
    want = dual_route(prof, 2, 3000)  # an empty store: each block, the last first
    assert built == blocks
    assert dual_route(prof, 2, 3000).coeff_degree == want.coeff_degree  # from the held blocks
    assert len(built) == 12
    monkeypatch.setattr(operator, "_BAND_CAP", 1 << 16)  # less than one block near L = 3000
    operator._weight_blocks.clear()
    del built[:]
    for _ in range(2):  # from an empty store, then with only the lowest block held
        got = dual_route(prof, 2, 3000)
        assert got.coeff_degree == want.coeff_degree
        for a, b in ((got.series.eigenvalues, want.series.eigenvalues),
                     (got.moment.eigenvalues, want.moment.eigenvalues),
                     (got.tail_bounds, want.tail_bounds)):
            assert a.tobytes() == b.tobytes()
    assert built == blocks + blocks


def test_past_the_cap_one_block_at_a_time(monkeypatch):
    # a request past the cap reads its blocks one at a time: whenever a block
    # is built or summed, the weights still alive (in the store or held by the
    # caller) are at most the cap plus one block
    built = _counted_row_blocks(monkeypatch)
    cap = sum(operator._row_block(3, 256 * b + 1, 256 * (b + 1)).weights.size for b in (0, 1))
    monkeypatch.setattr(operator, "_BAND_CAP", cap)
    alive = []  # weakrefs to the weights of every block built
    seen = []  # (weights alive, largest block alive) at each build and sum
    build, row_sums = operator._row_block, operator._row_sums

    def observe():
        sizes = [w().size for w in alive if w() is not None]
        seen.append((sum(sizes), max(sizes, default=0)))

    def counted_build(d, first, last):
        observe()
        block = build(d, first, last)
        alive.append(weakref.ref(block.weights))
        return block

    def counted_sums(block, count, coeffs):
        observe()
        return row_sums(block, count, coeffs)

    monkeypatch.setattr(operator, "_row_block", counted_build)
    monkeypatch.setattr(operator, "_row_sums", counted_sums)
    L = 6 * 256
    exp = JacobiExpansion(3, np.ones(2 * L))
    want = spectrum_series(exp, L).eigenvalues
    dual_route(preset("annulus", [0.3, 0.8, 1.0]), 3, L)
    assert len(built) >= 12 and len(seen) >= 24
    assert all(total <= cap + largest for total, largest in seen)
    monkeypatch.setattr(operator, "_BAND_CAP", 1 << 22)  # the same rows under any cap
    assert spectrum_series(exp, L).eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 520])
def test_row_lengths_never_fall(d):
    # the series reads the last row of a request as its longest: across block
    # boundaries near the first degrees and near the largest --L
    for blocks in ((0, 1, 2, 3), (115, 116, 117)):
        lengths = [
            operator._row_length(block, i)
            for block in (operator._row_block(d, 256 * b + 1, 256 * (b + 1)) for b in blocks)
            for i in range(1, 257)
        ]
        assert lengths == sorted(lengths), d


@pytest.mark.parametrize("d", [2, 3, 520])
def test_stored_rows_are_zero_past_their_cut(d):
    # a block is as wide as its longest row; each row is non-zero up to its
    # cut and exactly +0.0 after it
    for b in (0, 1, 2, 117):
        block = operator._row_block(d, 256 * b + 1, 256 * (b + 1))
        assert block.weights.shape == (256, block.cuts.max() + 1)
        past = np.arange(block.weights.shape[1]) > block.cuts[:, None]
        assert np.all(block.weights[past] == 0.0) and not np.signbit(block.weights[past]).any()
        assert np.all(block.weights[~past] != 0.0)


@pytest.mark.parametrize("d", [2, 3, 520])
def test_forward_matrix_is_the_stored_rows(d):
    # L = 600 reaches three blocks: row ell is its stored row up to
    # min(k*(ell), K - 1), bit for bit, and 0 after it
    rows = _band_rows(d, 600)
    for K in (1, 120, 1199):
        m = forward_matrix(d, 600, K)
        assert m.shape == (600, K)
        for ell, (w, _) in enumerate(rows, 1):
            n = min(w.size, K)
            assert m[ell - 1, :n].tobytes() == w[:n].tobytes()
            assert not m[ell - 1, n:].any()


@pytest.mark.parametrize("d", [2, 3, 520])
@pytest.mark.parametrize("first", [1, 257, 2561])
def test_width_doubling_builds_the_same_blocks(monkeypatch, d, first):
    # an estimate below every cut sends _row_block through its doubling loop,
    # which alone keeps rows from being cut at k = 0; the block must come out
    # as with the estimate, bit for bit
    want = operator._row_block(d, first, first + 255)
    ratios, widths = operator._ratios, []

    def logged(d, n, width):
        widths.append(width)
        return ratios(d, n, width)

    monkeypatch.setattr(operator, "cut_estimate", lambda d, ell: 1)
    monkeypatch.setattr(operator, "_ratios", logged)
    got = operator._row_block(d, first, first + 255)
    for a, c in ((got.weights, want.weights), (got.cuts, want.cuts), (got.tails, want.tails)):
        assert a.dtype == c.dtype and a.shape == c.shape and a.tobytes() == c.tobytes()
    assert widths[:3] == [1, 2, 4]


def test_series_spectrum_at_ten_thousand_degrees_stays_small():
    # the cut rows hold about 6M weights (48 MB) at L = 10**4; the full
    # triangle would be 10**8
    exp = JacobiExpansion(3, np.ones(1000))
    tracemalloc.start()
    try:
        spec = spectrum_series(exp, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.source == "series"
    assert peak < 64e6
    assert 0 < _held() <= operator._BAND_CAP  # over the cap: the oldest blocks go


@pytest.mark.parametrize("d, b", [(2, 1), (520, 20), (2, 116)])
def test_block_build_holds_at_most_four_block_arrays(d, b):
    # the ratios, their cumulative products and the two sides of the tail
    # test, each (rows, width + 1) floats, plus the boolean test: under five
    # such arrays at the estimated width
    first, last = 256 * b + 1, 256 * (b + 1)
    tracemalloc.start()
    try:
        operator._row_block(d, first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * 256 * (operator.cut_estimate(d, last) + 1)


def test_factorial_ratio_check_takes_its_logs_in_place():
    # a block of 256 rows at ell <= 2000 is 7-8 MB of floats; the logs are
    # taken in place in the ratios, the bound term is added in place, and a
    # block's rows are dropped before the next is built
    tracemalloc.start()
    try:
        assert verify_factorial_ratio_bound(2, 2000).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6


def test_single_eigenvalue_builds_one_weight_row():
    # degree ell reads at most 2*ell - 1 weights; the (ell, 2*ell - 1) matrix alone is 36 MB here
    exp = JacobiExpansion(3, np.ones(2999))
    tracemalloc.start()
    try:
        eigenvalue_series(exp, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_moment_spectrum_matches_per_degree_moments(corpus):
    for _, prof in corpus:
        for d in (2, 3, 5):
            spec = spectrum_moment(prof, d, 40)
            want = [
                -(2.0 * ell + d - 2.0) / ell * moment_integral(prof, 2 * ell + d - 3)
                for ell in range(1, 41)
            ]
            assert spec.eigenvalues.tolist() == want
            assert [eigenvalue_moment(prof, d, ell) for ell in range(1, 41)] == want
            vals = eigenvalue_moment(prof, d, np.arange(1, 41))
            assert vals.tolist() == want
            for degrees in (list(range(1, 41)), tuple(range(1, 41))):
                assert eigenvalue_moment(prof, d, degrees).tobytes() == vals.tobytes()


def test_route_input_validation(monkeypatch):
    exp = JacobiExpansion(2, np.array([1.0]))
    with pytest.raises(ValueError):
        eigenvalue_series(exp, 0)
    with pytest.raises(ValueError):
        eigenvalue_moment(preset("constant", [1.0]), 2, 0)
    # an empty array of degrees is no refusal: it has no moments
    none = eigenvalue_moment(preset("constant", [1.0]), 2, np.array([], dtype=int))
    assert none.dtype == float and none.shape == (0,)
    with pytest.raises(ValueError):
        spectrum_series(exp, 0)
    # a dimension that is not an integer >= 2 is refused before any block is
    # built or stored
    built = _counted_row_blocks(monkeypatch)
    coeffs = np.ones(3)
    calls = [
        lambda: forward_matrix(2.5, 3, 2),
        lambda: forward_matrix(1, 3, 2),
        lambda: eigenvalue_series(JacobiExpansion(0, coeffs), 3),
        lambda: spectrum_series(JacobiExpansion(0, coeffs), 3),
        lambda: invert(
            Spectrum(d=1, eigenvalues=np.array([-1.0, -0.5]), source="external", eta_norm=0.0), 1
        ),
        lambda: dual_route(preset("constant", [1.0]), 2.5, 3),
        lambda: eigenvalue_moment(preset("constant", [1.0]), 1, 3),
        lambda: JacobiExpansion(1, [1.0]),
        lambda: Spectrum(1, [1.0], "x", 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="dimension"):
            call()
    assert built == [] and not operator._weight_blocks


@pytest.mark.parametrize(
    "values, eta_norm, message",
    [([], 1.0, "non-empty 1-d"), ([[1.0, 2.0]], 1.0, "non-empty 1-d"),
     ([1.0, math.nan], 1.0, "eigenvalues must be finite"),
     ([1.0, -math.inf], 1.0, "eigenvalues must be finite"),
     ([1.0], -1.0, "eta_norm must be finite and >= 0"),
     ([1.0], math.nan, "eta_norm must be finite and >= 0")],
    ids=["empty", "2-d", "nan", "inf", "negative-norm", "nan-norm"],
)
def test_spectrum_refuses_bad_values(values, eta_norm, message):
    with pytest.raises(ValueError, match=message):
        Spectrum(d=2, eigenvalues=values, source="external", eta_norm=eta_norm)


_E = JacobiExpansion(2, np.ones(5))
_P = preset("annulus", [0.3, 0.8, 1.0])
_S = Spectrum(d=2, eigenvalues=[-1.0, -0.5, -0.25, -0.2], source="external", eta_norm=0.0)
_BAD_INTEGERS = {
    # fractional values
    "eigenvalue_series-2.5": ("degree", lambda: eigenvalue_series(_E, 2.5)),
    "spectrum_series-2.0": ("max_index", lambda: spectrum_series(_E, 2.0)),
    "dual_route-3.0": ("max_index", lambda: dual_route(_P, 2, 3.0)),
    "forward_matrix-2.5": ("num_coeffs", lambda: forward_matrix(2, 3, 2.5)),
    "invert-2.5": ("num_coeffs", lambda: invert(_S, 2.5)),
    "truncation_error-1.5": ("max_cutoff", lambda: truncation_error(_S, 1.5)),
    "factorial_ratio-2.5": ("max_index", lambda: verify_factorial_ratio_bound(2, 2.5)),
    "cross_validate-2.5": ("max_degree", lambda: cross_validate(_P, 2, 2.5)),
    "spectrum_moment-2.0": ("max_index", lambda: spectrum_moment(_P, 2, 2.0)),
    "gauss_legendre-2.0": ("point count", lambda: gauss_legendre(2.0)),
    "evaluate_table-1.0": ("max_degree", lambda: evaluate_table(2, 1.0, 0.5)),
    "evaluate_blocks-1.0": ("max_degree", lambda: evaluate_blocks(2, 1.0, 0.5)),
    "evaluate_table-d2.5": ("dimension", lambda: evaluate_table(2.5, 3, 0.5)),
    "evaluate_blocks-d2.5": ("dimension", lambda: evaluate_blocks(2.5, 3, 0.5)),
    "monomial-1.5": ("monomial degree", lambda: monomial_coefficients(2, 1.5)),
    "project-2.0": ("max_degree", lambda: project(_P, 2, 2.0)),
    "eigenvalue_moment-2.5": ("degree", lambda: eigenvalue_moment(_P, 2, 2.5)),
    "eigenvalue_moment-array-2.5": ("degree", lambda: eigenvalue_moment(_P, 2, np.array([2.5]))),
    "eigenvalue_moment-list-1.5": ("degree", lambda: eigenvalue_moment(_P, 2, [1.5])),
    "harmonic_space_dim-1.0": ("degree", lambda: harmonic_space_dim(1.0, 3)),
    # bools, which are ints to isinstance
    "eigenvalue_series-True": ("degree", lambda: eigenvalue_series(_E, True)),
    "eigenvalue_moment-True": ("degree", lambda: eigenvalue_moment(_P, 2, True)),
    "eigenvalue_moment-array-True": ("degree", lambda: eigenvalue_moment(_P, 2, np.array([True]))),
    "cross_validate-True": ("max_degree", lambda: cross_validate(_P, 2, True)),
    "gauss_legendre-True": ("point count", lambda: gauss_legendre(True)),
    "evaluate_table-True": ("max_degree", lambda: evaluate_table(2, True, 0.5)),
    "evaluate_blocks-True": ("max_degree", lambda: evaluate_blocks(2, True, 0.5)),
    "harmonic_space_dim-True": ("degree", lambda: harmonic_space_dim(True, 3)),
    "spectrum_series-True": ("max_index", lambda: spectrum_series(_E, True)),
    "dual_route-True": ("max_index", lambda: dual_route(_P, 2, True)),
    "spectrum_moment-True": ("max_index", lambda: spectrum_moment(_P, 2, True)),
    "forward_matrix-True": ("num_coeffs", lambda: forward_matrix(2, 3, True)),
    "forward_matrix-index-True": ("max_index", lambda: forward_matrix(2, True, 1)),
    "invert-True": ("num_coeffs", lambda: invert(_S, True)),
    "truncation_error-True": ("max_cutoff", lambda: truncation_error(_S, True)),
    "factorial_ratio-True": ("max_index", lambda: verify_factorial_ratio_bound(2, True)),
    "monomial-True": ("monomial degree", lambda: monomial_coefficients(2, True)),
    "project-True": ("max_degree", lambda: project(_P, 2, True)),
    "evaluate_table-dTrue": ("dimension", lambda: evaluate_table(True, 3, 0.5)),
    # negative and out-of-range values
    "eigenvalue_series-0": ("degree", lambda: eigenvalue_series(_E, 0)),
    "spectrum_series--1": ("max_index", lambda: spectrum_series(_E, -1)),
    "dual_route-0": ("max_index", lambda: dual_route(_P, 2, 0)),
    "eigenvalue_moment-0": ("degree", lambda: eigenvalue_moment(_P, 2, 0)),
    "eigenvalue_moment-array-0": ("degree", lambda: eigenvalue_moment(_P, 2, np.arange(3))),
    "eigenvalue_moment-list-0": ("degree", lambda: eigenvalue_moment(_P, 2, [0, 1])),
    "eigenvalue_moment-tuple-0": ("degree", lambda: eigenvalue_moment(_P, 2, (1, 0))),
    "forward_matrix-6": ("num_coeffs", lambda: forward_matrix(2, 3, 6)),
    "forward_matrix-0": ("num_coeffs", lambda: forward_matrix(2, 3, 0)),
    "forward_matrix-index-0": ("max_index", lambda: forward_matrix(2, 0, 1)),
    "invert-8": ("num_coeffs", lambda: invert(_S, 8)),
    "truncation_error--1": ("max_cutoff", lambda: truncation_error(_S, -1)),
    "truncation_error-5": ("max_cutoff", lambda: truncation_error(_S, 5)),
    "factorial_ratio-0": ("max_index", lambda: verify_factorial_ratio_bound(2, 0)),
    "cross_validate-0": ("max_degree", lambda: cross_validate(_P, 3, 0)),
    "spectrum_moment-0": ("max_index", lambda: spectrum_moment(_P, 2, 0)),
    "gauss_legendre-0": ("point count", lambda: gauss_legendre(0)),
    "evaluate_table--1": ("max_degree", lambda: evaluate_table(2, -1, 0.5)),
    "evaluate_blocks--1": ("max_degree", lambda: evaluate_blocks(2, -1, 0.5)),
    "evaluate_table-d1": ("dimension", lambda: evaluate_table(1, 3, 0.5)),
    "evaluate_blocks-d1": ("dimension", lambda: evaluate_blocks(1, 3, 0.5)),
    "monomial--1": ("monomial degree", lambda: monomial_coefficients(2, -1)),
    "project--1": ("max_degree", lambda: project(_P, 2, -1)),
    "harmonic_space_dim--1": ("degree", lambda: harmonic_space_dim(-1, 3)),
}


@pytest.mark.parametrize("name, call", _BAD_INTEGERS.values(), ids=list(_BAD_INTEGERS))
def test_bad_integer_arguments_are_refused_before_anything_is_built(name, call):
    spectrum_series(_E, 300)  # two weight blocks in the store, to see it left as it is
    blocks = list(operator._weight_blocks.items())
    rules = numerics._gauss_legendre.cache_info()
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()
    assert list(operator._weight_blocks.items()) == blocks
    assert numerics._gauss_legendre.cache_info() == rules
    assert oracle._sphere_plan.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# decay bounds


def test_decay_constant_values():
    assert abs(decay_constant(2) - 4.337750205676911) < 1e-12
    assert abs(decay_constant(3) - 7.585566870553692) < 1e-12
    assert abs(decay_constant(4) - 13.304975533734881) < 1e-12
    with pytest.raises(ValueError):
        decay_constant(1)


def test_decay_constant_in_high_dimensions():
    # log C_d is 434 at d = 343, where the direct formula already gave inf;
    # d = 520 is the last dimension whose C_d is a float
    want = math.log(343) + 343 / 4 * (2 - math.log(math.pi))
    want += 0.5 * (math.log(2) + math.lgamma(171.5))
    assert abs(math.log(decay_constant(343)) - want) < 1e-12 and abs(want - 434.095) < 1e-3
    assert math.isfinite(decay_constant(520))
    assert decay_constant(521) == math.inf


def test_decay_bound_constant_profile():
    spec = spectrum_moment(preset("constant", [1.0]), 2, 100)
    rep = verify_decay_bound(spec)
    assert rep.ok and not rep.violations
    assert np.all(rep.margins > 0.0)
    # sup of sqrt(ell)|lambda_ell| / ||eta|| is attained at ell=1: 1/sqrt(pi)
    assert abs(rep.scaled_sup - 1.0 / math.sqrt(math.pi)) < 1e-14


def test_decay_bound_flags_fabricated_violations():
    bogus = Spectrum(d=2, eigenvalues=np.array([10.0, 0.1]), source="external", eta_norm=1.0)
    rep = verify_decay_bound(bogus)
    assert not rep.ok and rep.violations == (1,)


@pytest.mark.parametrize("values, eta_norm", [([1e300] * 5, 1.0), ([1.0] * 5, 0.0)])
def test_decay_gates_refuse_an_infinite_decay_constant(values, eta_norm):
    # C_d is inf from d = 521: its bounds, inf or (for eta = 0) nan, could not fail
    gates = (verify_decay_bound, lambda s: truncation_error(s, 5))
    spec = Spectrum(d=521, eigenvalues=values, source="external", eta_norm=eta_norm)
    for gate in gates:
        with pytest.raises(FloatRangeError, match=r"^the decay bound .* = inf \* .* in d = 521$"):
            gate(spec)
    # at d = 520 the bounds are finite, and the norm-0 spectrum fails both gates
    spec = Spectrum(d=520, eigenvalues=values, source="external", eta_norm=eta_norm)
    decay, trunc = verify_decay_bound(spec), truncation_error(spec, 5)
    assert np.all(np.isfinite(decay.bounds)) and np.all(np.isfinite(trunc.apriori_bounds))
    assert decay.ok == trunc.ok == (eta_norm == 1.0)
    # a finite C_d times a norm past the float range is refused too
    spec = Spectrum(d=520, eigenvalues=values, source="external", eta_norm=1e10)
    for gate in gates:
        with pytest.raises(FloatRangeError, match=r"^the decay bound .* is not finite in d = 520$"):
            gate(spec)


def test_the_moment_spectrum_takes_the_norm_before_the_moments(monkeypatch):
    # a ball norm past the float range (2.05e308 here) is refused before any
    # moment of the profile is taken
    def forbidden(*args):
        raise AssertionError("a moment was taken before the norm was checked")

    monkeypatch.setattr(operator, "moment_integral", forbidden)
    with pytest.raises(FloatRangeError, match="^the profile's L2 norm over the ball in d = 3 "):
        spectrum_moment(preset("constant", [1e308]), 3, 5)
    with pytest.raises(AssertionError, match="before the norm was checked"):
        spectrum_moment(preset("constant", [1e307]), 3, 5)


def test_library_refuses_values_past_the_float_range_where_it_computes_them():
    # a float norm (3e307 in d = 20) with a moment eigenvalue past the range
    with pytest.raises(FloatRangeError, match="^a moment eigenvalue of the profile in d = 20 "):
        spectrum_moment(preset("polynomial", [1e308, 1e308]), 20, 5)
    # finite eigenvalues whose least-squares coefficients overflow
    ells = np.arange(1, 13)
    spec = Spectrum(d=20, eigenvalues=-1.7e308 / ells, source="external", eta_norm=1.0)
    with pytest.raises(FloatRangeError, match="^the recovered coefficients or their residual "):
        invert(spec, 6)


def test_zero_profile_spectrum_is_zero_and_bounded():
    spec = spectrum_moment(preset("constant", [0.0]), 3, 20)
    assert np.all(spec.eigenvalues == 0.0)
    rep = verify_decay_bound(spec)
    assert rep.ok and rep.scaled_sup == 0.0


def test_factorial_ratio_bound_sweep():
    for d in (2, 4, 6):
        rep = verify_factorial_ratio_bound(d, 60)
        assert rep.ok and not rep.violations
        assert rep.pairs_checked == 60 * 60  # sum of (2 ell - 1)
        assert rep.max_excess == 0.0  # attained exactly at k = 0


def test_factorial_ratio_bound_fails_inflated_ratios(monkeypatch):
    # the check reads the series' own ratios: 1% too large, and R(ell, k)
    # breaks the bound
    ratios = operator._ratios
    monkeypatch.setattr(operator, "_ratios", lambda d, n, width: ratios(d, n, width) * 1.01)
    rep = verify_factorial_ratio_bound(3, 60)
    assert rep.ok is False and rep.violations and rep.max_excess > 0.0
    assert rep.pairs_checked == 60 * 60


# ---------------------------------------------------------------------------
# truncation error


def test_truncation_error_constant_profile():
    # eta = 1, cutoff 3, spectrum to 10: the tail starts at |lambda_4| = 1/4
    spec = spectrum_moment(preset("constant", [1.0]), 2, 10)
    rep = truncation_error(spec, 3)
    assert rep.tail_norms[3] == 0.25
    assert rep.ok
    assert truncation_error(spec, 10).tail_norms[10] == 0.0


def test_tail_norm_is_non_increasing_in_cutoff():
    spec = spectrum_moment(preset("annulus", [0.3, 0.8, -1.5]), 2, 40)
    tails = truncation_error(spec, 20).tail_norms
    assert all(tails[i + 1] <= tails[i] for i in range(20))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("L", [1, 10, 150])
def test_truncation_report_is_the_per_cutoff_formula(corpus, d, L):
    # one pass over every cutoff gives, bit for bit, the tail max and the decay
    # bound at the first dropped degree, each taken cutoff by cutoff
    for name, prof in corpus:
        spec = spectrum_moment(prof, d, L)
        rep = truncation_error(spec, L)
        bound = decay_constant(d) * spec.eta_norm
        for n in range(L + 1):
            tail = np.abs(spec.eigenvalues[n:])
            assert rep.tail_norms[n] == (float(tail.max()) if tail.size else 0.0), (name, n)
            assert rep.apriori_bounds[n] == bound / math.sqrt(n + 1.0), (name, n)
        assert rep.apriori_bounds[:L].tobytes() == verify_decay_bound(spec).bounds.tobytes()
        assert rep.passes.tolist() == [t <= b for t, b in zip(rep.tail_norms, rep.apriori_bounds)]
        assert rep.ok == all(rep.passes)
        assert not (rep.tail_norms.flags.writeable or rep.apriori_bounds.flags.writeable)
    short = truncation_error(spec, L // 2)
    assert short.tail_norms.tolist() == rep.tail_norms[: L // 2 + 1].tolist()
    with pytest.raises(ValueError):
        truncation_error(spec, L + 1)
    with pytest.raises(ValueError):
        truncation_error(spec, -1)


# ---------------------------------------------------------------------------
# inversion


def test_forward_matrix_structure():
    m = forward_matrix(2, 5, 7)
    assert m.shape == (5, 7)
    for ell in range(1, 6):
        assert np.all(m[ell - 1, 2 * ell - 1 :] == 0.0)
    assert abs(m[0, 0] + math.sqrt(2.0)) < 1e-15  # lambda_1 = -sqrt(d) a_0
    with pytest.raises(ValueError):
        forward_matrix(2, 5, 10)  # needs num_coeffs <= 2 L - 1
    with pytest.raises(ValueError):
        forward_matrix(2, 5, 0)


def test_round_trip_recovery():
    rng = np.random.default_rng(42)
    for d in (2, 3):
        a = rng.normal(size=5)
        spec = spectrum_series(JacobiExpansion(d, a), 10)
        res = invert(spec, 5)
        assert np.abs(res.expansion.coeffs - a).max() <= 1e-8
        assert res.effective_rank == 5
        assert res.residual_norm <= 1e-10
        assert res.singular_values.shape == (5,)


def test_first_singular_value_pinned_d2():
    spec = spectrum_moment(preset("constant", [1.0]), 2, 10)
    res = invert(spec, 5)
    assert abs(res.singular_values[0] - 1.8714935618191042) < 1e-12


def test_zero_spectrum_gives_zero_coefficients():
    zero = Spectrum(d=2, eigenvalues=np.zeros(10), source="external", eta_norm=0.0)
    res = invert(zero, 5)
    assert np.all(res.expansion.coeffs == 0.0)
    assert res.residual_norm == 0.0


def test_regularization_controls():
    spec = spectrum_moment(preset("constant", [1.0]), 2, 10)
    plain = invert(spec, 5)
    # a harsh relative cutoff must drop rank
    hard = invert(spec, 5, rel_cutoff=1e-1)
    assert hard.effective_rank < plain.effective_rank
    # ridge damping shrinks the solution and grows the residual
    ridged = invert(spec, 5, ridge=1e-2)
    assert np.linalg.norm(ridged.expansion.coeffs) < np.linalg.norm(plain.expansion.coeffs)
    assert ridged.residual_norm > plain.residual_norm
    with pytest.raises(ValueError, match=r"^rel_cutoff must lie in \[0, 1\), got -0.1$"):
        invert(spec, 5, rel_cutoff=-0.1)
    with pytest.raises(ValueError, match=r"^rel_cutoff must lie in \[0, 1\), got 1.5$"):
        invert(spec, 5, rel_cutoff=1.5)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^ridge must be finite and >= 0, got {bad!r}$"):
            invert(spec, 5, ridge=bad)


def test_invert_validates_coefficient_count():
    spec = spectrum_moment(preset("constant", [1.0]), 2, 10)
    with pytest.raises(ValueError):
        invert(spec, 0)
    with pytest.raises(ValueError):
        invert(spec, 20)
