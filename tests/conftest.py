import importlib.util
from pathlib import Path

import numpy as np
import pytest

from radialeit import JacobiExpansion, RadialProfile, operator, oracle, preset

# the benchmark's exact-rational reference, which imports nothing from radialeit
_spec = importlib.util.spec_from_file_location(
    "radialeit_exact_reference", Path(__file__).resolve().parents[1] / "perfbench" / "exact.py"
)
_exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_exact)


def _build_corpus() -> list[tuple[str, RadialProfile]]:
    """Deterministic mix of constants, ramps, annuli, polynomials and
    random piecewise profiles; >= 20 entries."""
    rng = np.random.default_rng(20260815)
    out = [
        ("constant_1", preset("constant", [1.0])),
        ("constant_neg", preset("constant", [-2.5])),
        ("constant_tiny", preset("constant", [1e-3])),
        ("zero", preset("constant", [0.0])),
        ("ramp_1", preset("ramp", [1.0])),
        ("ramp_neg", preset("ramp", [-0.7])),
        ("annulus_outer", preset("annulus", [0.5, 1.0, 1.0])),
        ("annulus_mid", preset("annulus", [0.3, 0.8, -1.5])),
        ("annulus_thin", preset("annulus", [0.9, 0.95, 4.0])),
        ("annulus_core", preset("annulus", [0.0, 0.25, 2.0])),
        ("poly_parabola", preset("polynomial", [1.0, 0.0, -1.0])),
        ("poly_cubic", preset("polynomial", [0.2, -1.0, 0.0, 0.5])),
    ]
    for i in range(6):
        deg = int(rng.integers(1, 9))
        out.append((f"poly_rng{i}", preset("polynomial", rng.uniform(-1.0, 1.0, deg + 1))))
    for i in range(3):
        lo, hi = np.sort(rng.uniform(0.1, 0.9, 2))
        pieces = tuple(rng.uniform(-1.0, 1.0, int(rng.integers(1, 4))) for _ in range(3))
        out.append((f"piecewise_rng{i}", RadialProfile(np.array([0.0, lo, hi, 1.0]), pieces)))
    return out


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, RadialProfile]]:
    return _build_corpus()


@pytest.fixture(scope="session")
def exact():
    return _exact


@pytest.fixture(autouse=True)
def _fresh_caches():
    # a plan or weight block built while a test monkeypatches the oracle or the
    # series weights must not reach a later test
    oracle._sphere_plan.cache_clear()
    operator._weight_blocks.clear()
    yield
    oracle._sphere_plan.cache_clear()
    operator._weight_blocks.clear()


@pytest.fixture
def starved_projection(monkeypatch):
    """``operator.project`` with the coefficients past degree 3 zeroed: a
    series route that misses most of the profile, which the dual-route gate
    must catch."""
    project = operator.project

    def starved(profile, d, max_degree):
        coeffs = project(profile, d, max_degree).coeffs.copy()
        coeffs[4:] = 0.0
        return JacobiExpansion(d, coeffs)

    monkeypatch.setattr(operator, "project", starved)
