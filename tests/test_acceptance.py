"""Acceptance gate: the release-blocking checks, one test per criterion.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s, or in the
captured output on failure) and then asserts.  Tolerances and time budgets
are pinned literals on purpose: loosening them is a release decision, not a
test fix.
"""

import math
import time

import numpy as np

from radialeit.jacobi import evaluate_table, monomial_coefficients
from radialeit.numerics import gauss_legendre
from radialeit.operator import (
    Spectrum,
    decay_constant,
    dual_route,
    eigenvalue_moment,
    eigenvalue_series,
    harmonic_space_dim,
    invert,
    spectrum_moment,
    spectrum_series,
    truncation_error,
    verify_decay_bound,
    verify_factorial_ratio_bound,
)
from radialeit import oracle
from radialeit.oracle import CrossValidationReport, cross_validate
from radialeit.profiles import JacobiExpansion, preset, project


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < budget, f"criterion {num:02d} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    rule = gauss_legendre(200)
    worst = 0.0
    for d in (2, 3, 4, 5):
        table = evaluate_table(d, 40, rule.nodes)
        gram = (table * (rule.weights * rule.nodes ** (d - 1))) @ table.T
        worst = max(worst, float(np.abs(gram - np.eye(41)).max()))
    _report(
        1, "basis orthonormality (k <= 40, d in 2..5)", worst <= 1e-13,
        f"max |Gram - I| = {worst:.3e} <= 1e-13", time.perf_counter() - t0, 5.0,
    )


def test_criterion_02_monomial_expansion():
    t0 = time.perf_counter()
    pts = np.linspace(0.0, 1.0, 50)
    rule = gauss_legendre(200)
    worst_recon, worst_proj = 0.0, 0.0
    for d in (2, 3, 4, 5):
        table = evaluate_table(d, 40, rule.nodes)
        for k in range(41):
            exp = monomial_coefficients(d, k)
            worst_recon = max(worst_recon, float(np.abs(exp.evaluate(pts) - pts**k).max()))
            proj = table[: k + 1] @ (rule.weights * rule.nodes ** (k + d - 1))
            worst_proj = max(worst_proj, float(np.abs(exp.coeffs - proj).max()))
    ok = worst_recon <= 1e-10 and worst_proj <= 1e-10
    _report(
        2, "monomial expansion (k <= 40, d in 2..5)", ok,
        f"reconstruction {worst_recon:.3e}, quadrature cross-check {worst_proj:.3e}, both <= 1e-10",
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_03_dual_route(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 20
    worst, worst_at = 0.0, ""
    for d in (2, 3, 4, 5):
        for name, prof in corpus:
            rep = dual_route(prof, d, 30, tol=1e-8)
            if rep.max_scaled_diff > worst:
                worst, worst_at = rep.max_scaled_diff, f"{name}, d={d}"
    _report(
        3, f"dual-route agreement ({len(corpus)} profiles, ell <= 30, d in 2..5)",
        worst <= 1e-8,
        f"max |series - moment| / max(1, |lambda|) = {worst:.3e} <= 1e-8 (at {worst_at})",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_04_constant_profile_closed_form():
    t0 = time.perf_counter()
    prof = preset("constant", [1.0])
    worst = 0.0
    for d in (2, 3, 4, 5, 6):
        exp = project(prof, d, 0)
        for ell in range(1, 51):
            want = -1.0 / ell
            worst = max(worst, abs(eigenvalue_series(exp, ell) - want))
            worst = max(worst, abs(eigenvalue_moment(prof, d, ell) - want))
    _report(
        4, "constant profile gives -1/ell (ell <= 50, d in 2..6, both routes)",
        worst <= 1e-12, f"max error = {worst:.3e} <= 1e-12", time.perf_counter() - t0, 1.0,
    )


def test_criterion_05_decay_bound(corpus):
    t0 = time.perf_counter()
    violations = 0
    worst_ratio = 0.0
    for d in (2, 3, 4, 5):
        c_d = decay_constant(d)
        for _, prof in corpus:
            rep = verify_decay_bound(spectrum_moment(prof, d, 200))
            violations += len(rep.violations)
            worst_ratio = max(worst_ratio, rep.scaled_sup / c_d)
    ok = violations == 0 and worst_ratio <= 1.0
    _report(
        5, "decay bound (corpus, ell <= 200, d in 2..5)", ok,
        f"violations = {violations}, max observed sup / C_d = {worst_ratio:.4f} <= 1",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_06_factorial_ratio_bound():
    t0 = time.perf_counter()
    violations, worst = 0, -math.inf
    for d in (2, 3, 4, 5, 6):
        rep = verify_factorial_ratio_bound(d, 200)
        violations += len(rep.violations)
        worst = max(worst, rep.max_excess)
    _report(
        6, "factorial-ratio bound (ell <= 200, k <= 2 ell - 2, d in 2..6)",
        violations == 0, f"violations = {violations}, max log excess = {worst:.3e}",
        time.perf_counter() - t0, 10.0,
    )


def test_criterion_07_brute_force(corpus):
    t0 = time.perf_counter()
    picks = dict(corpus)
    names = ["constant_1", "ramp_neg", "annulus_mid", "poly_cubic", "piecewise_rng0"]
    assert len(names) >= 5
    worst_off, worst_diag = 0.0, 0.0
    for name in names:
        prof = picks[name]
        for d, lmax in ((2, 8), (3, 6)):
            rep = cross_validate(prof, d, lmax)
            worst_off = max(worst_off, rep.max_offdiag)
            worst_diag = max(worst_diag, rep.max_diag_scaled)
    # the report's own gate is these tolerances, so they can only be tightened
    gates = (CrossValidationReport.tol_offdiag, CrossValidationReport.tol_diag)
    ok = worst_off <= 1e-9 and worst_diag <= 1e-8 and gates == (1e-9, 1e-8)
    _report(
        7, "brute-force cross-validation (5 profiles; d=2 ell <= 8, d=3 zonal ell <= 6)",
        ok,
        f"max off-diagonal {worst_off:.3e} <= 1e-9, max diagonal error {worst_diag:.3e} <= 1e-8",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_08_gradient_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d, lmax in ((2, 20), (3, 15)):
        # the plan holds the largest absolute defect over all ordered pairs
        worst = max(worst, oracle._sphere_plan(d, lmax).identity_defect)
    _report(
        8, "surface-gradient identity (all pairs, d=2 ell <= 20, d=3 ell <= 15)",
        worst <= 1e-10, f"max defect = {worst:.3e} <= 1e-10", time.perf_counter() - t0, 10.0,
    )


def test_criterion_09_truncation_tail(corpus):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for d in (2, 3):
        for name, prof in corpus:
            spec = spectrum_moment(prof, d, 150)
            rep = truncation_error(spec, 100)
            tails = rep.tail_norms.tolist()
            for cutoff in range(101):
                if not rep.passes[cutoff]:
                    ok, detail = False, f"bound broken at {name}, d={d}, N={cutoff}"
            if any(tails[i + 1] > tails[i] for i in range(100)):
                ok, detail = False, f"tail not monotone at {name}, d={d}"
    _report(
        9, "truncation error monotone and within a-priori bound (N <= 100, corpus)",
        ok, detail or "tail non-increasing and <= C_d ||eta|| (N+1)^(-1/2) everywhere",
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_10_inversion_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for d in (2, 3):
        for _ in range(5):
            a = rng.uniform(-2.0, 2.0, 5)
            spec = spectrum_series(JacobiExpansion(d, a), 10)
            res = invert(spec, 5)
            worst = max(worst, float(np.abs(res.expansion.coeffs - a).max()))
            assert res.effective_rank == 5
    zero = Spectrum(d=2, eigenvalues=np.zeros(10), source="external", eta_norm=0.0)
    zero_exact = bool(np.all(invert(zero, 5).expansion.coeffs == 0.0))
    ok = worst <= 1e-8 and zero_exact
    _report(
        10, "inversion round-trip (K = 5, L = 10)", ok,
        f"max coefficient error = {worst:.3e} <= 1e-8, zero spectrum -> zero: {zero_exact}",
        time.perf_counter() - t0, 1.0,
    )


def test_criterion_11_eigenspace_dimensions():
    t0 = time.perf_counter()
    ok = harmonic_space_dim(0, 2) == 1 and harmonic_space_dim(0, 3) == 1
    for ell in range(1, 101):
        ok = ok and harmonic_space_dim(ell, 2) == 2
        ok = ok and harmonic_space_dim(ell, 3) == 2 * ell + 1
    _report(
        11, "eigenspace dimensions (ell <= 100, d = 2, 3)", ok,
        "d=2: 2 for ell >= 1; d=3: 2 ell + 1; ell = 0: 1 (exact)",
        time.perf_counter() - t0, 1.0,
    )
