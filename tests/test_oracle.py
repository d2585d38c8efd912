import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from radialeit import oracle
from radialeit.oracle import (
    ExplicitHarmonic,
    brute_force_entry,
    cross_validate,
    gradient_identity,
    harmonics_up_to,
)
from radialeit.oracle import _angular_rule
from radialeit.profiles import RadialProfile, preset


def test_harmonic_construction():
    assert ExplicitHarmonic(2, 3, "cos").label == "cos3"
    assert ExplicitHarmonic(3, 2, "zonal").label == "zonal2"
    with pytest.raises(ValueError):
        ExplicitHarmonic(4, 1, "zonal")
    with pytest.raises(ValueError):
        ExplicitHarmonic(2, 1, "zonal")
    with pytest.raises(ValueError):
        ExplicitHarmonic(3, 0, "zonal")


def test_enumeration_order():
    hs = harmonics_up_to(2, 2)
    assert [h.label for h in hs] == ["cos1", "sin1", "cos2", "sin2"]
    assert [h.label for h in harmonics_up_to(3, 3)] == ["zonal1", "zonal2", "zonal3"]


def test_harmonics_are_orthonormal_on_the_sphere():
    for d, lmax in ((2, 10), (3, 8)):
        hs = harmonics_up_to(d, lmax)
        theta, w = _angular_rule(d, 2 * lmax)
        for i, h1 in enumerate(hs):
            v1 = h1.value(theta)
            for h2 in hs[i:]:
                got = float(w @ (v1 * h2.value(theta)))
                want = 1.0 if h1 is h2 else 0.0
                assert abs(got - want) < 1e-12


def test_theta_derivative_matches_finite_differences():
    # independent of the closed forms used for values
    eps = 1e-6
    pts = np.array([0.3, 1.0, 2.0, 2.8])
    for h in (
        ExplicitHarmonic(2, 4, "cos"),
        ExplicitHarmonic(2, 7, "sin"),
        ExplicitHarmonic(3, 5, "zonal"),
    ):
        fd = (h.value(pts + eps) - h.value(pts - eps)) / (2 * eps)
        assert np.abs(h.theta_derivative(pts) - fd).max() < 1e-5


# ---------------------------------------------------------------------------
# surface-gradient identity


def test_gradient_identity_diagonal():
    for d, lmax in ((2, 12), (3, 9)):
        for ell in range(1, lmax + 1):
            for kind in ("cos", "sin") if d == 2 else ("zonal",):
                h = ExplicitHarmonic(d, ell, kind)
                rep = gradient_identity(h, h)
                assert rep.ok, (d, ell, kind, rep.defect)
                # for a normalized harmonic the identity pins lhs outright
                assert abs(rep.rhs - 1.0) < 1e-12
                assert abs(rep.lhs - ell * (ell + d - 2)) < 1e-10


def test_gradient_identity_cross_terms_vanish():
    rep = gradient_identity(ExplicitHarmonic(2, 3, "cos"), ExplicitHarmonic(2, 5, "cos"))
    assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12 and rep.ok
    rep = gradient_identity(ExplicitHarmonic(3, 2, "zonal"), ExplicitHarmonic(3, 6, "zonal"))
    assert abs(rep.lhs) < 1e-12 and rep.ok
    with pytest.raises(ValueError):
        gradient_identity(ExplicitHarmonic(2, 1, "cos"), ExplicitHarmonic(3, 1, "zonal"))


def test_gradient_identity_gates_the_scaled_defect():
    # the rounding error of both sums grows with the degree: at degree 40 in
    # d = 3 the absolute defect is about 1e-10, the scaled one about 4e-14
    h = ExplicitHarmonic(3, 40, "zonal")
    rep = gradient_identity(h, h)
    assert rep.ok and rep.scaled_defect < 1e-12
    # on the diagonal the absolute-value sums are lhs and rhs themselves
    assert rep.scaled_defect == rep.defect / max(1.0, rep.lhs + 40 * 41 * rep.rhs)


# ---------------------------------------------------------------------------
# brute-force entries


def test_constant_profile_entries_match_minus_one_over_ell():
    # no eigenvalue formula involved: the integral itself must come out at -1/ell
    prof = preset("constant", [1.0])
    for d in (2, 3):
        for h in harmonics_up_to(d, 5):
            got = brute_force_entry(prof, h, h)
            assert abs(got + 1.0 / h.degree) < 1e-13, h.label


def test_cross_entries_vanish():
    prof = preset("annulus", [0.3, 0.8, -1.5])
    c3, s3, c5 = (
        ExplicitHarmonic(2, 3, "cos"),
        ExplicitHarmonic(2, 3, "sin"),
        ExplicitHarmonic(2, 5, "cos"),
    )
    assert abs(brute_force_entry(prof, c3, s3)) < 1e-14  # same degree, different branch
    assert abs(brute_force_entry(prof, c3, c5)) < 1e-14
    z2, z4 = ExplicitHarmonic(3, 2, "zonal"), ExplicitHarmonic(3, 4, "zonal")
    assert abs(brute_force_entry(prof, z2, z4)) < 1e-14


def test_same_degree_branches_agree():
    # the eigenvalue must not depend on which harmonic of the eigenspace is used
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    for ell in (1, 4, 7):
        c = brute_force_entry(prof, ExplicitHarmonic(2, ell, "cos"), ExplicitHarmonic(2, ell, "cos"))
        s = brute_force_entry(prof, ExplicitHarmonic(2, ell, "sin"), ExplicitHarmonic(2, ell, "sin"))
        assert abs(c - s) < 1e-13


def test_zero_profile_annihilates():
    prof = preset("constant", [0.0])
    h = ExplicitHarmonic(2, 2, "cos")
    assert brute_force_entry(prof, h, h) == 0.0


def test_entry_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        brute_force_entry(
            preset("constant", [1.0]), ExplicitHarmonic(2, 1, "cos"), ExplicitHarmonic(3, 1, "zonal")
        )


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
        assert len(rep.labels) == len(rep.degrees)
        # the reference diagonal is the moment route's prediction:
        # -(d/1) * integral_{1/2}^1 r**(d-1) dr = -(1 - 2**-d)
        assert rep.reference[0] == pytest.approx(-(1.0 - 2.0**-d), abs=1e-12)


def test_cross_validation_gate_is_one_entry_wise_matrix(corpus):
    # ok, max_offdiag and max_diag_scaled all read the matrix that passes gates
    for name, prof in corpus:
        for d, max_degree in ((2, 1), (2, 6), (3, 5)):
            rep = cross_validate(prof, d, max_degree)
            n = len(rep.labels)
            scale = np.maximum(1.0, np.abs(rep.reference))
            diag_err = np.abs(np.diag(rep.entries) - rep.reference) / scale
            assert rep.passes.shape == (n, n)
            assert np.diag(rep.passes).tolist() == (diag_err <= rep.tol_diag).tolist()
            off = ~np.eye(n, dtype=bool)
            assert rep.passes[off].tolist() == (np.abs(rep.entries[off]) <= rep.tol_offdiag).tolist()
            assert rep.ok == (rep.passes.all() and rep.identity_scaled_defect <= rep.tol_identity)
            assert rep.max_diag_scaled == diag_err.max()
            assert rep.max_offdiag == (np.abs(rep.entries[off]).max() if n > 1 else 0.0), name
    # a diagonal entry past tol_diag fails in its own cell and in ok
    rep = cross_validate(preset("constant", [1.0]), 2, 3)
    entries = rep.entries.copy()
    entries[2, 2] *= 1.0 + 1e-6
    bad = oracle.CrossValidationReport(
        d=2, labels=rep.labels, degrees=rep.degrees, entries=entries, reference=rep.reference,
        tol_offdiag=rep.tol_offdiag, tol_diag=rep.tol_diag, identity_defect=rep.identity_defect,
        identity_scaled_defect=rep.identity_scaled_defect,
    )
    assert np.argwhere(~bad.passes).tolist() == [[2, 2]]
    assert not bad.ok and rep.ok


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
                hs = harmonics_up_to(d, max_degree)
                entries = cross_validate(prof, d, max_degree).entries
                diag = np.array([want[h.degree - 1] for h in hs])
                assert np.abs(np.diag(entries) - diag).max() <= tol, (name, d, max_degree)
                off = entries - np.diag(np.diag(entries))
                assert np.abs(off).max() <= tol, (name, d, max_degree)


def test_single_pair_functions_read_the_pair_matrix():
    # each is the matrix code applied to its two harmonics: (h1, h2) is entry [0, 1]
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    for d in (2, 3):
        hs = harmonics_up_to(d, 6)
        for h1 in hs:
            for h2 in hs:
                forms = oracle._sphere_forms((h1, h2))
                pair = oracle._entries(prof, d, *oracle._form_factors((h1, h2), forms))
                assert brute_force_entry(prof, h1, h2) == pair[0, 1]
                degrees = np.array([h1.degree, h2.degree])
                defect, scaled = oracle._identity_defect(d, degrees, forms)
                rep = gradient_identity(h1, h2)
                assert (rep.lhs, rep.rhs) == (forms[0][0, 1], forms[1][0, 1])
                assert (rep.defect, rep.scaled_defect) == (defect[0, 1], scaled[0, 1])


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
    for f in dataclasses.fields(oracle.CrossValidationReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
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


def test_pair_functions_agree_with_the_report():
    # the pair functions build their own, smaller angular rule, so they agree
    # to rounding but not bit for bit: entries to 1e-15, angular factors (up
    # to 2.5, off the diagonal rounding noise of that size) to 4e-15;
    # the identity defects are themselves rounding noise of each rule (up to
    # 7.5e-14 absolute in d = 3), so their maxima agree only to that size
    prof = preset("polynomial", [0.2, -1.0, 0.0, 0.5])
    for d in (2, 3):
        hs = harmonics_up_to(d, 5)
        rep = cross_validate(prof, d, 5)
        plan = oracle._sphere_plan(d, 5)
        defect = scaled = 0.0
        for i, h1 in enumerate(hs):
            for j, h2 in enumerate(hs):
                assert abs(brute_force_entry(prof, h1, h2) - rep.entries[i, j]) <= 1e-15
                pair = gradient_identity(h1, h2)
                angular = pair.rhs + pair.lhs / (h1.degree * h2.degree)
                assert abs(angular - plan.angular[i, j]) <= 4e-15
                defect, scaled = max(defect, pair.defect), max(scaled, pair.scaled_defect)
        assert abs(defect - rep.identity_defect) <= 1e-13
        assert abs(scaled - rep.identity_scaled_defect) <= 1e-14


def test_many_pieces_verify_at_the_largest_degree():
    # one moment vector per call: the cost is linear in the piece count
    bp = np.linspace(0.0, 1.0, 1001)
    prof = RadialProfile(bp, tuple(np.array([np.cos(7.0 * r)]) for r in bp[:-1]))
    rep = cross_validate(prof, 2, 90)
    assert rep.ok, (rep.max_offdiag, rep.max_diag_scaled, rep.identity_scaled_defect)
