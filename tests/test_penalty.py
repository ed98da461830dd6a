import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gradcap.penalty import PenaltyFn, blend

# int_0^1 of the blend profile, frozen from adaptive quadrature (abs err < 1e-9)
HALF_INTEGRAL = 0.21256952299097


def test_quadrature_oracle_matches_frozen_constant():
    val, err = quad(lambda t: float(blend(t)), 0.0, 1.0, epsabs=1e-12)
    assert err < 1e-9
    assert val == pytest.approx(HALF_INTEGRAL, abs=1e-10)


def test_psi_branch_values():
    pf = PenaltyFn(0.1)
    assert pf.psi(-5.0) == 0.0
    assert pf.psi(0.3) == pytest.approx(2.0, abs=1e-12)
    assert pf.psi(0.1) == pytest.approx(HALF_INTEGRAL, abs=1e-9)


def test_psi_prime_values():
    pf = PenaltyFn(0.1)
    assert pf.psi_prime(-0.2) == 0.0
    assert pf.psi_prime(0.3) == pytest.approx(10.0, abs=1e-12)
    # midpoint of the symmetric blend: eta(1) = 1/2
    assert pf.psi_prime(0.1) == pytest.approx(5.0, abs=1e-9)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
def test_defining_properties_on_dense_sample(eps):
    pf = PenaltyFn(eps)
    r = np.linspace(-1.0, 1.0, 10001)
    v = pf.psi(r)
    assert np.all(v[r <= 0] == 0.0)
    # strictly positive on r > 0; below r ~ eps/10 the true value sits under
    # the double-precision floor, so nonnegativity is all that is observable
    assert np.all(v[r > 0] >= 0.0)
    assert np.all(v[r > eps / 10] > 0.0)
    lin = r >= 2 * eps
    assert np.max(np.abs(v[lin] - (r[lin] - eps) / eps)) < 1e-10
    vp = pf.psi_prime(r)
    assert np.all(vp >= 0.0)
    # convex: psi' is nondecreasing on the sample
    assert np.all(np.diff(vp) >= -1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
def test_convexity_inequality(eps):
    pf = PenaltyFn(eps)
    r = np.linspace(-1.0, 1.0, 10001)
    assert np.all(pf.psi_prime(r) * r - pf.psi(r) >= -1e-12)


def test_derivative_matches_finite_differences():
    for eps in (0.5, 0.1, 0.02):
        pf = PenaltyFn(eps)
        r = np.linspace(-1.0, 1.0, 2001)
        d = 1e-7
        fd = (pf.psi(r + d) - pf.psi(r - d)) / (2 * d)
        assert np.max(np.abs(pf.psi_prime(r) - fd)) <= 1e-6 / eps


def test_family_monotone_in_eps():
    r = np.linspace(-1.0, 1.0, 10001)
    prev = PenaltyFn(0.5).psi(r)
    for eps in (0.25, 0.1, 0.05, 0.02):
        cur = PenaltyFn(eps).psi(r)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def _legendre(pf, g, eta):
    """The conjugate penalty at one (g, eta), as a one-element batch."""
    val = pf.legendre_batch(np.array([g]), np.array([eta]))
    assert val.shape == (1,)
    return float(val[0])


def test_legendre_zero_effort():
    assert _legendre(PenaltyFn(0.1), 1.0, 0.0) == 0.0


def test_legendre_small_eta_near_linear_value():
    pf = PenaltyFn(0.1)
    got = _legendre(pf, 1.0, 0.01)
    # below the activation point the objective is linear with slope eta
    assert got >= 1.0 * 0.01 - 1e-12
    m = np.linspace(0.0, 3.0, 100001)
    scan = float(np.max(m * 0.01 - pf.psi(m * m - 1.0)))
    assert got == pytest.approx(scan, abs=1e-6)


@pytest.mark.parametrize("g,eta", [(0.5, 0.3), (1.0, 2.0), (0.0, 1.0),
                                   (2.0, 40.0), (1.0, 100.0)])
def test_legendre_matches_dense_scan(g, eta):
    pf = PenaltyFn(0.1)
    got = _legendre(pf, g, eta)
    hi = g + eta * 0.1 / 2 + 3.0
    m = np.linspace(0.0, hi, 200001)
    scan = float(np.max(m * eta - pf.psi(m * m - g * g)))
    assert got == pytest.approx(scan, rel=1e-9, abs=1e-6)


def test_fenchel_equality_at_matched_pair():
    pf = PenaltyFn(0.1)
    for g0, gamma in [(0.7, 1.1), (1.0, 1.5), (0.5, 0.9)]:
        eta = 2.0 * pf.psi_prime(gamma**2 - g0**2) * gamma
        lhs = gamma * eta - _legendre(pf, g0, eta)
        assert lhs == pytest.approx(pf.psi(gamma**2 - g0**2), abs=1e-6)


@settings(max_examples=120, derandomize=True)
@given(st.floats(0.0, 2.0), st.floats(0.0, 5.0), st.floats(0.0, 1.5))
def test_fenchel_young_inequality(m, eta, g):
    pf = PenaltyFn(0.1)
    l_val = _legendre(pf, g, eta)
    assert m * eta <= pf.psi(m * m - g * g) + l_val + 1e-6


@settings(max_examples=150, derandomize=True)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_psi_nonnegative_and_monotone(r1, r2):
    pf = PenaltyFn(0.05)
    lo, hi = sorted((r1, r2))
    assert pf.psi(lo) >= 0.0
    assert pf.psi(lo) <= pf.psi(hi) + 1e-12
