import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radialeit import oracle
from radialeit.oracle import _angular_rule, cross_validate
from radialeit.profiles import RadialProfile, preset


def _positions(d, max_degree):
    # every harmonic up to max_degree, in the plan's degree-major order
    return np.arange(len(oracle._KINDS[d]) * max_degree)


def test_unsupported_dimensions_are_refused_before_any_plan():
    # a float 2.0 is refused too, as the routes refuse it, before a sphere
    # plan is built or cached
    prof = preset("constant", [1.0])
    calls = (
        lambda: cross_validate(prof, 1, 3),
        lambda: cross_validate(prof, 4, 3),
        lambda: cross_validate(prof, 2.5, 3),
        lambda: cross_validate(prof, 2.0, 3),
    )
    for call in calls:
        with pytest.raises(oracle.UnsupportedDimensionError, match="explicit harmonics exist only"):
            call()
    assert oracle._sphere_plan.cache_info().currsize == 0
    assert cross_validate(prof, np.int64(3), 2).plan.labels == ("zonal1", "zonal2")
    # 2.0 == 2 as a cache key, so it is refused even where the plan of 2 is cached
    assert cross_validate(prof, 2, 3).ok
    with pytest.raises(oracle.UnsupportedDimensionError):
        cross_validate(prof, 2.0, 3)


def test_enumeration_order():
    # position i has degree i // k + 1 and kind _KINDS[d][i % k]
    plan = oracle._sphere_plan(2, 2)
    assert plan.labels == ("cos1", "sin1", "cos2", "sin2")
    assert plan.degrees == (1, 1, 2, 2)
    plan = oracle._sphere_plan(3, 3)
    assert plan.labels == ("zonal1", "zonal2", "zonal3")
    assert plan.degrees == (1, 2, 3)
    for d in (2, 3):
        plan, kinds = oracle._sphere_plan(d, 7), oracle._KINDS[d]
        want = tuple(f"{kinds[i % len(kinds)]}{i // len(kinds) + 1}" for i in _positions(d, 7))
        assert plan.labels == want
        assert plan.degrees == tuple(oracle._degrees(d, _positions(d, 7)).tolist())


def test_harmonics_are_orthonormal_on_the_sphere():
    for d, lmax in ((2, 10), (3, 8)):
        positions = _positions(d, lmax)
        theta, w = _angular_rule(d, 2 * lmax)
        values = oracle._harmonic_rows(d, positions, theta)[0]
        for i, v1 in enumerate(values):
            for j in range(i, positions.size):
                got = float(w @ (v1 * values[j]))
                want = 1.0 if i == j else 0.0
                assert abs(got - want) < 1e-12


def test_rows_are_the_named_closed_forms():
    # the label names the row: cos3 is cos(3 theta)/sqrt(pi), sin3 is
    # sin(3 theta)/sqrt(pi), zonal2 is sqrt(5/(4 pi)) (3 cos^2 theta - 1)/2
    theta = np.linspace(0.0, math.pi, 7)
    values = oracle._harmonic_rows(2, np.array([4, 5]), theta)[0]
    assert_allclose(values[0], np.cos(3 * theta) / math.sqrt(math.pi), rtol=0, atol=1e-15)
    assert_allclose(values[1], np.sin(3 * theta) / math.sqrt(math.pi), rtol=0, atol=1e-15)
    zonal2 = oracle._harmonic_rows(3, np.array([1]), theta)[0][0]
    want = math.sqrt(5 / (4 * math.pi)) * (3 * np.cos(theta) ** 2 - 1) / 2
    assert_allclose(zonal2, want, rtol=0, atol=1e-15)
    assert oracle._sphere_plan(2, 3).labels[4:] == ("cos3", "sin3")


def _rows_one_by_one(d, positions, theta):
    # one harmonic at a time, in the scalar arithmetic the array code must
    # keep bit for bit: the reference for _harmonic_rows
    shape = (positions.size, theta.size)
    values, derivs = np.empty(shape), np.empty(shape)
    if d == 3:
        p, dp = oracle._legendre_table(np.cos(theta), int(positions.max()) + 1)
        minus_sin = -np.sin(theta)
    for i, pos in enumerate(positions.tolist()):
        k = pos // len(oracle._KINDS[d]) + 1
        if d == 3:
            c, base, dbase = math.sqrt((2 * k + 1) / (4.0 * math.pi)), p[k], dp[k] * minus_sin
        elif pos % 2 == 0:
            c, base, dbase = 1.0 / math.sqrt(math.pi), np.cos(k * theta), -k * np.sin(k * theta)
        else:
            c, base, dbase = 1.0 / math.sqrt(math.pi), np.sin(k * theta), k * np.cos(k * theta)
        values[i], derivs[i] = c * base, c * dbase
    return values, derivs


def test_rows_equal_the_one_by_one_reference():
    # on the plan's own rule, and for positions in any order: a row does not
    # depend on the other positions or on how far the recurrence runs
    for d in (2, 3):
        for L in (1, 7, 90):
            theta = _angular_rule(d, 2 * L)[0]
            for positions in (_positions(d, L), _positions(d, L)[::-3]):
                got = oracle._harmonic_rows(d, positions, theta)
                want = _rows_one_by_one(d, positions, theta)
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (d, L)


def test_theta_derivative_matches_finite_differences():
    # independent of the closed forms used for values: cos4, sin7 (d = 2) and zonal5
    eps = 1e-6
    pts = np.array([0.3, 1.0, 2.0, 2.8])
    for d, position in ((2, 6), (2, 13), (3, 4)):
        pos = np.array([position])
        plus, minus = (oracle._harmonic_rows(d, pos, pts + s)[0][0] for s in (eps, -eps))
        fd = (plus - minus) / (2 * eps)
        assert np.abs(oracle._harmonic_rows(d, pos, pts)[1][0] - fd).max() < 1e-5


# ---------------------------------------------------------------------------
# surface-gradient identity


def _pair(d, i, j):
    """lhs, rhs, absolute and scaled identity defect of positions (i, j), from
    their own angular rule: the per-pair reference for the plan."""
    positions = np.array([i, j])
    forms = oracle._sphere_forms(d, positions)
    defect, scaled = oracle._identity_defect(d, oracle._degrees(d, positions), forms)
    return forms[0][0, 1], forms[1][0, 1], defect[0, 1], scaled[0, 1]


def test_gradient_identity_diagonal():
    for d, lmax in ((2, 12), (3, 9)):
        for i in _positions(d, lmax):
            ell = i // len(oracle._KINDS[d]) + 1
            lhs, rhs, _, scaled = _pair(d, i, i)
            assert scaled <= oracle.CrossValidationReport.tol_identity, (d, i)
            # for a normalized harmonic the identity pins lhs outright
            assert abs(rhs - 1.0) < 1e-12
            assert abs(lhs - ell * (ell + d - 2)) < 1e-10


def test_gradient_identity_cross_terms_vanish():
    # cos3-cos5 in d = 2, zonal2-zonal6 in d = 3
    for d, i, j in ((2, 4, 8), (3, 1, 5)):
        lhs, rhs, _, scaled = _pair(d, i, j)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12
        assert scaled <= oracle.CrossValidationReport.tol_identity


def test_gradient_identity_gates_the_scaled_defect():
    # the rounding error of both sums grows with the degree: at degree 40 in
    # d = 3 the absolute defect is about 1e-10, the scaled one about 4e-14
    forms = oracle._sphere_forms(3, np.array([39]))
    defect, scaled = (x[0, 0] for x in oracle._identity_defect(3, np.array([40]), forms))
    assert scaled < 1e-12
    # on the diagonal the absolute-value sums are lhs and rhs themselves
    assert scaled == defect / max(1.0, forms[0][0, 0] + 40 * 41 * forms[1][0, 0])
    plan = oracle._sphere_plan(3, 40)
    assert plan.identity_scaled_defect < 1e-12 < plan.identity_defect


# ---------------------------------------------------------------------------
# brute-force entries


def test_constant_profile_entries_match_minus_one_over_ell():
    # no eigenvalue formula involved: the integral itself must come out at -1/ell
    prof = preset("constant", [1.0])
    for d in (2, 3):
        rep = cross_validate(prof, d, 5)
        for i, (label, ell) in enumerate(zip(rep.plan.labels, rep.plan.degrees)):
            assert abs(rep.entries[i, i] + 1.0 / ell) < 1e-13, label


def test_cross_entries_vanish():
    # among them cos3-sin3 (same degree, different branch), cos3-cos5 and zonal2-zonal4
    prof = preset("annulus", [0.3, 0.8, -1.5])
    for d in (2, 3):
        entries = cross_validate(prof, d, 5).entries
        assert np.abs(entries - np.diag(np.diag(entries))).max() < 1e-14, d


def test_same_degree_branches_agree():
    # the eigenvalue must not depend on which harmonic of the eigenspace is used
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    diag = np.diag(cross_validate(prof, 2, 7).entries)  # cos1, sin1, cos2, ...
    for ell in (1, 4, 7):
        assert abs(diag[2 * ell - 2] - diag[2 * ell - 1]) < 1e-13


def test_zero_profile_annihilates():
    entries = cross_validate(preset("constant", [0.0]), 2, 2).entries
    assert np.all(entries == 0.0)


# ---------------------------------------------------------------------------
# the full cross-validation


def test_cross_validation_annulus():
    prof = preset("annulus", [0.5, 1.0, 1.0])
    for d in (2, 3):
        rep = cross_validate(prof, d, 4)
        assert rep.ok, (rep.max_offdiag, rep.max_diag_scaled)
        assert_allclose(rep.entries, rep.entries.T, rtol=0, atol=0)
        assert rep.max_offdiag <= 1e-12
        assert rep.max_diag_scaled <= 1e-12
        assert len(rep.plan.labels) == len(rep.plan.degrees)
        # the reference diagonal is the moment route's prediction:
        # -(d/1) * integral_{1/2}^1 r**(d-1) dr = -(1 - 2**-d)
        assert rep.reference[0] == pytest.approx(-(1.0 - 2.0**-d), abs=1e-12)


def test_cross_validation_gate_is_one_entry_wise_matrix(corpus):
    # ok, max_offdiag and max_diag_scaled all read the matrix that passes gates
    for name, prof in corpus:
        for d, max_degree in ((2, 1), (2, 6), (3, 5)):
            rep = cross_validate(prof, d, max_degree)
            n = len(rep.plan.labels)
            scale = np.maximum(1.0, np.abs(rep.reference))
            diag_err = np.abs(np.diag(rep.entries) - rep.reference) / scale
            assert rep.passes.shape == (n, n)
            assert np.diag(rep.passes).tolist() == (diag_err <= rep.tol_diag).tolist()
            off = ~np.eye(n, dtype=bool)
            tol_offdiag = rep.tol_offdiag * max(1.0, rep.eta_norm)
            assert rep.passes[off].tolist() == (np.abs(rep.entries[off]) <= tol_offdiag).tolist()
            identity_ok = rep.plan.identity_scaled_defect <= rep.tol_identity
            assert rep.ok == (rep.passes.all() and identity_ok)
            assert rep.max_diag_scaled == diag_err.max()
            assert rep.max_offdiag == (np.abs(rep.entries[off]).max() if n > 1 else 0.0), name
    # a diagonal entry past tol_diag fails in its own cell and in ok
    rep = cross_validate(preset("constant", [1.0]), 2, 3)
    entries = rep.entries.copy()
    entries[2, 2] *= 1.0 + 1e-6
    bad = oracle.CrossValidationReport(
        plan=rep.plan, entries=entries, reference=rep.reference, eta_norm=rep.eta_norm
    )
    assert np.argwhere(~bad.passes).tolist() == [[2, 2]]
    assert not bad.ok and rep.ok


def test_offdiagonal_gate_scales_with_the_norm_above_one():
    # the bound is tol_offdiag * max(1, ||eta||): an entry just inside it
    # passes and one just past it fails, at unit scale and at 1e9
    for c in (1.0, 1e9):
        rep = cross_validate(preset("annulus", [0.3, 0.8, c]), 3, 4)
        bound = rep.tol_offdiag * max(1.0, rep.eta_norm)
        assert rep.ok and (bound == rep.tol_offdiag) == (rep.eta_norm <= 1.0)
        for factor, ok in ((0.5, True), (2.0, False)):
            entries = rep.entries.copy()
            entries[0, 2] = entries[2, 0] = factor * bound
            report = oracle.CrossValidationReport(
                plan=rep.plan, entries=entries, reference=rep.reference, eta_norm=rep.eta_norm
            )
            assert report.ok is ok and report.max_offdiag == factor * bound, (c, factor)


def test_cross_validation_detects_wrong_reference():
    # sanity: the comparison is not vacuous
    prof = preset("constant", [1.0])
    rep = cross_validate(prof, 2, 2)
    shifted = rep.reference + 0.5
    assert np.abs(np.diag(rep.entries) - shifted).max() > 0.4


def test_oracle_matches_exact_rationals(corpus, exact):
    # against moments in exact rationals that share no code with the library
    for name, prof in corpus:
        ref = exact.ExactProfile(prof.breakpoints, prof.pieces)
        for d in (2, 3):
            tol = 1e-14 * exact.ball_norm(ref, d)
            lambdas = exact.moment_eigenvalues(ref, d)
            want = [next(lambdas) for _ in range(20)]
            for max_degree in (6, 20):
                rep = cross_validate(prof, d, max_degree)
                entries = rep.entries
                diag = np.array([want[ell - 1] for ell in rep.plan.degrees])
                assert np.abs(np.diag(entries) - diag).max() <= tol, (name, d, max_degree)
                off = entries - np.diag(np.diag(entries))
                assert np.abs(off).max() <= tol, (name, d, max_degree)


def test_legendre_recurrence_values():
    t = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
    p, dp = oracle._legendre_table(t, 3)
    np.testing.assert_allclose(p[2], 0.5 * (3 * t**2 - 1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(p[3], 0.5 * (5 * t**3 - 3 * t), rtol=0, atol=1e-15)
    np.testing.assert_allclose(dp[3], 1.5 * (5 * t**2 - 1), rtol=0, atol=1e-14)
    # endpoint values P_k(1) = 1, P_k(-1) = (-1)**k
    assert np.all(p[:, -1] == 1.0)
    np.testing.assert_allclose(p[:, 0], [1.0, -1.0, 1.0, -1.0], rtol=0, atol=0)
    p, dp = oracle._legendre_table(np.array([0.3]), 0)
    assert p.shape == (1, 1) and p[0, 0] == 1.0 and dp[0, 0] == 0.0


def test_one_legendre_table_per_cross_validate(monkeypatch):
    calls = []
    table = oracle._legendre_table

    def counted(t, lmax):
        calls.append(lmax)
        return table(t, lmax)

    monkeypatch.setattr(oracle, "_legendre_table", counted)
    rep = cross_validate(preset("annulus", [0.3, 0.8, -1.5]), 3, 8)
    assert rep.ok
    assert calls == [8]


def _counted(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(oracle, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


def _same_report(a, b):
    # field by field, the plan's own fields included
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            assert type(x) is type(y), f.name
            _same_report(x, y)
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y and type(x) is type(y), f.name


def test_sphere_half_is_built_once_per_setting(monkeypatch):
    # cold: one sphere half (and in d = 3 one Legendre table); warm, for any
    # profile: neither, and the same report bit for bit
    profs = preset("annulus", [0.3, 0.8, -1.5]), preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    for d in (2, 3):
        calls = _counted(monkeypatch, "_sphere_forms", "_legendre_table")
        cold = cross_validate(profs[0], d, 8)
        built = {"_sphere_forms": 1, "_legendre_table": d - 2}
        assert calls == built
        _same_report(cross_validate(profs[0], d, 8), cold)
        other = cross_validate(profs[1], d, 8)
        assert calls == built
        oracle._sphere_plan.cache_clear()
        _same_report(cross_validate(profs[1], d, 8), other)
        monkeypatch.undo()


def test_sphere_plan_and_report_are_read_only():
    plan = oracle._sphere_plan(2, 4)
    rep = cross_validate(preset("constant", [1.0]), 2, 4)
    assert rep.plan is plan  # the report carries the cached plan
    arrays = (plan.reference_index, plan.moment_index, plan.angular, plan.rows, plan.cols,
              plan.on_diag, rep.entries, rep.reference, rep.passes)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.angular = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.ok = True


def test_pair_forms_agree_with_the_plan():
    # each pair integrated on its own, smaller angular rule agrees with the
    # plan to rounding but not bit for bit: angular factors (up to 2.5, off
    # the diagonal rounding noise of that size) to 4e-15; the identity
    # defects are themselves rounding noise of each rule (up to 7.5e-14
    # absolute in d = 3), so their maxima agree only to that size
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    for d in (2, 3):
        plan = cross_validate(prof, d, 5).plan
        defect = scaled = 0.0
        for i in _positions(d, 5):
            for j in _positions(d, 5):
                lhs, rhs, pair_defect, pair_scaled = _pair(d, i, j)
                angular = rhs + lhs / (plan.degrees[i] * plan.degrees[j])
                assert abs(angular - plan.angular[i, j]) <= 4e-15
                defect, scaled = max(defect, pair_defect), max(scaled, pair_scaled)
        assert abs(defect - plan.identity_defect) <= 1e-13
        assert abs(scaled - plan.identity_scaled_defect) <= 1e-14


def test_many_pieces_verify_at_the_largest_degree():
    # one moment vector per call: the cost is linear in the piece count
    bp = np.linspace(0.0, 1.0, 1001)
    prof = RadialProfile(bp, tuple(np.array([np.cos(7.0 * r)]) for r in bp[:-1]))
    rep = cross_validate(prof, 2, 90)
    assert rep.ok, (rep.max_offdiag, rep.max_diag_scaled, rep.plan.identity_scaled_defect)
