"""Special-function unit tests.

Derived expectations are computed by independent oracles inside the tests
(explicit recurrence steps, quadrature, half-integer closed forms, mpmath)
before being compared against the library code.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import roots_genlaguerre

from landau_td.errors import (
    ContourFailure,
    DivergentSeries,
    DomainError,
    PoleError,
    UnsupportedInstance,
)
from landau_td.specfun import (
    MeijerGSpec,
    bessel,
    gamma_fn,
    hermite,
    hypergeometric,
    laguerre,
    laguerre_all,
    meijer_g,
)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def test_laguerre_order_zero_is_one():
    for alpha in (0.0, 1.0, 2.5):
        for x in (0.0, 0.7, 31.0):
            assert laguerre(0, alpha, x) == 1.0


def test_laguerre_order_one_closed_form():
    # L_1^alpha(x) = 1 + alpha - x; L_1^2(3) = 0
    assert laguerre(1, 2.0, 3.0) == pytest.approx(0.0, abs=1e-15)


def test_laguerre_l2_recurrence_oracle():
    # Oracle: one explicit recurrence step from L_0, L_1 at alpha=0, x=1:
    # 2*L_2 = (2*1 + 0 + 1 - x)*L_1 - (1 + 0)*L_0
    x = 1.0
    l0, l1 = 1.0, 1.0 + 0.0 - x
    l2 = ((3.0 - x) * l1 - 1.0 * l0) / 2.0
    assert l2 == -0.5
    assert laguerre(2, 0.0, x) == pytest.approx(l2, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=29),
    alpha=st.sampled_from([0.0, 1.0, 2.5]),
    x=st.floats(min_value=0.0, max_value=40.0),
)
def test_laguerre_recurrence_residual(n, alpha, x):
    lm1 = laguerre(n - 1, alpha, x)
    l0 = laguerre(n, alpha, x)
    lp1 = laguerre(n + 1, alpha, x)
    res = (n + 1) * lp1 - (2 * n + alpha + 1 - x) * l0 + (n + alpha) * lm1
    scale = max(1.0, abs(lm1), abs(l0), abs(lp1))
    assert abs(res) / scale < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    alpha=st.sampled_from([0.0, 1.0, 2.5]),
    x=st.floats(min_value=0.1, max_value=30.0),
)
def test_laguerre_derivative_identity(n, alpha, x):
    # x dL/dx = n L_n - (n + alpha) L_{n-1}, derivative by central difference
    h = 1e-6 * max(1.0, x)
    deriv = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2 * h)
    lhs = x * deriv - n * laguerre(n, alpha, x) + (n + alpha) * laguerre(n - 1, alpha, x)
    scale = max(1.0, abs(laguerre(n, alpha, x)), abs(laguerre(n - 1, alpha, x)))
    assert abs(lhs) / scale < 1e-8


def test_laguerre_orthogonality_gauss_quadrature():
    # int_0^inf e^{-u} u^alpha L_n L_m du = delta_{nm} Gamma(alpha+n+1)/n!
    for alpha in (0.0, 2.0):
        nodes, weights = roots_genlaguerre(64, alpha)
        for n in range(5):
            for m in range(5):
                val = float(np.dot(weights, laguerre(n, alpha, nodes) * laguerre(m, alpha, nodes)))
                expect = math.gamma(alpha + n + 1) / math.factorial(n) if n == m else 0.0
                assert abs(val - expect) < 1e-8 * max(1.0, expect)


def test_laguerre_generating_function():
    # sum_n L_n^alpha(u) z^n -> (1-z)^{-(1+alpha)} exp(u z/(z-1)) at |z| = 0.5
    for alpha in (0.0, 2.0):
        for u in (0.3, 2.0, 7.5):
            table = laguerre_all(200, alpha, u)[:, 0]
            for theta in (0.0, 1.1, 2.7):
                z = 0.5 * np.exp(1j * theta)
                series = np.sum(table * z ** np.arange(201))
                closed = np.exp(u * z / (z - 1.0)) / (1.0 - z) ** (1.0 + alpha)
                assert abs(series - closed) < 1e-8


def test_laguerre_all_matches_single_orders():
    x = np.linspace(0.0, 12.0, 7)
    table = laguerre_all(8, 1.5, x)
    for n in range(9):
        assert np.allclose(table[n], laguerre(n, 1.5, x), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Hermite
# ---------------------------------------------------------------------------

def test_hermite_base_cases():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 1.5) == 3.0


def test_hermite_h3_recurrence_oracle():
    # Oracle: H_2 = 2x H_1 - 2 H_0, H_3 = 2x H_2 - 4 H_1 at x = 2
    x = 2.0
    h0, h1 = 1.0, 2.0 * x
    h2 = 2.0 * x * h1 - 2.0 * h0
    h3 = 2.0 * x * h2 - 4.0 * h1
    assert h3 == 40.0
    assert hermite(3, x) == pytest.approx(h3, abs=1e-12)


def test_hermite_parity():
    x = 1.37
    for n in range(8):
        sign = (-1.0) ** n
        assert hermite(n, -x) == pytest.approx(sign * hermite(n, x), rel=1e-12)


# ---------------------------------------------------------------------------
# Gamma and Bessel
# ---------------------------------------------------------------------------

def test_gamma_factorial():
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_half_vs_integral_oracle():
    # Oracle: Gamma(1/2) = int_0^inf t^{-1/2} e^{-t} dt by adaptive quadrature
    val, err = integrate.quad(lambda t: math.exp(-t) / math.sqrt(t), 0.0, np.inf)
    assert err < 1e-10
    assert gamma_fn(0.5) == pytest.approx(val, rel=1e-10)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_pole():
    with pytest.raises(PoleError):
        gamma_fn(0.0)
    with pytest.raises(PoleError):
        gamma_fn(-3.0)


def test_bessel_at_origin():
    assert bessel("J", 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel("I", 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_bessel_half_integer_closed_form_oracle():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    for x in (0.5, 1.0, 3.0):
        expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel("K", 0.5, x) == pytest.approx(expect, rel=1e-12)
    assert bessel("K", 0.5, 1.0) == pytest.approx(0.4610685044, rel=1e-9)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel("Y", 0.0, 0.0)
    with pytest.raises(DomainError):
        bessel("K", 1.0, -1.0)
    with pytest.raises(DomainError):
        bessel("Q", 0.0, 1.0)


def test_bessel_wronskian():
    # J_nu Y'_nu - J'_nu Y_nu = 2/(pi x); derivatives by central difference
    h = 1e-5
    for nu in (0.0, 1.0, 3.5):
        for x in (0.4, 2.0, 17.0):
            jp = (bessel("J", nu, x + h) - bessel("J", nu, x - h)) / (2 * h)
            yp = (bessel("Y", nu, x + h) - bessel("Y", nu, x - h)) / (2 * h)
            w = bessel("J", nu, x) * yp - jp * bessel("Y", nu, x)
            assert abs(w - 2.0 / (math.pi * x)) < 1e-8


def test_bessel_series_oracle_small_x():
    # J_0(x) = sum (-1)^k (x/2)^{2k} / (k!)^2, truncated partial sum oracle
    x = 0.35
    expect = sum((-1) ** k * (x / 2.0) ** (2 * k) / math.factorial(k) ** 2 for k in range(12))
    assert bessel("J", 0.0, x) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# Generalized hypergeometric
# ---------------------------------------------------------------------------

def test_pfq_at_zero_is_one():
    assert hypergeometric([0.3, 4.0], [1.2], 0.0) == 1.0


def test_2f1_terminating_oracle():
    # Oracle: explicit three-term sum for 2F1(1, -2; 1; z), z = -0.5
    z = -0.5
    terms = [1.0, (1.0 * -2.0) / 1.0 * z, (1.0 * 2.0) * (-2.0 * -1.0) / (1.0 * 2.0) * z**2 / 2.0]
    expect = sum(terms)
    assert expect == 2.25
    assert hypergeometric([1.0, -2.0], [1.0], z) == pytest.approx(expect, rel=1e-14)


def test_2f3_vs_bessel_cross_check():
    # 2F3(1,1;1,1,1;1) = sum 1/(n!)^2 = I_0(2)
    val = hypergeometric([1.0, 1.0], [1.0, 1.0, 1.0], 1.0)
    assert val == pytest.approx(bessel("I", 0.0, 2.0), rel=1e-12)
    assert val == pytest.approx(2.2795853023360673, rel=1e-12)


def test_pfq_divergence_policy():
    with pytest.raises(DivergentSeries):
        hypergeometric([1.0, 1.0], [2.0], 1.0)  # 2F1 on the unit circle
    with pytest.raises(DivergentSeries):
        hypergeometric([1.0, 1.0, 1.0], [2.0], 0.5)  # 3F1 non-terminating
    # terminating 3F1 is fine anywhere
    val = hypergeometric([-2.0, 1.0, 1.0], [2.0], 2.5)
    expect = 1.0 + (-2.0 * 1.0 * 1.0) / 2.0 * 2.5 + ((-2.0 * -1.0) * 1.0 * 2.0 * 1.0 * 2.0) / (2.0 * 3.0) * 2.5**2 / 2.0
    assert val == pytest.approx(expect, rel=1e-13)


def test_pfq_vs_mpmath():
    cases = [
        ([0.5, 1.5], [2.5], 0.7),
        ([2.0], [3.0, 0.5], -4.0),
        ([1.0, 2.0], [2.0, 3.0, 1.5], 2.0),
    ]
    for a, b, z in cases:
        expect = float(mpmath.hyper(a, b, z))
        assert hypergeometric(a, b, z) == pytest.approx(expect, rel=1e-11)


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

def _mpmath_g2122(a, b, x):
    return float(mpmath.meijerg([[a[0]], [a[1]]], [list(b), []], x))


def _mpmath_g4024(a, b, x):
    return float(mpmath.meijerg([[], list(a)], [list(b), []], x))


def test_meijer_unsupported_instance():
    with pytest.raises(UnsupportedInstance):
        MeijerGSpec(1, 1, 1, 1, (0.5,), (0.0,))


def test_meijer_contour_failure():
    # right boundary 1 - a1 = -0.5 below the left boundary 0
    spec = MeijerGSpec(2, 1, 2, 2, (1.5, 0.0), (0.0, 0.0))
    with pytest.raises(ContourFailure):
        meijer_g(spec, 1.0)


def test_g2122_vs_mpmath():
    # weight layout for (j, p): a = (p-2j-1, p), b = (0, 0)
    for (j, p) in [(1.0, 0), (1.0, 1), (2.0, 2), (1.5, 1)]:
        a = (p - 2 * j - 1.0, float(p))
        b = (0.0, 0.0)
        spec = MeijerGSpec(2, 1, 2, 2, a, b)
        for x in (1e-3, 0.1, 1.0, 3.0, 5.0, 12.0, 20.0):
            mine = meijer_g(spec, x)
            ref = _mpmath_g2122(a, b, x)
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-300), (j, p, x)


def test_g2122_branch_agreement_at_switch():
    # the line-integral branch and the residue series must agree where both
    # are valid; compare them at the same abscissa around the x = 4 switch
    from landau_td.specfun import _contour_integral, _g2122_residue_series

    spec = MeijerGSpec(2, 1, 2, 2, (-2.0, 1.0), (0.0, 0.0))
    for x in (2.0, 4.0, 6.0):
        line = _contour_integral(spec, x, 1.0)
        series = _g2122_residue_series(spec, x)
        assert abs(line - series) < 1e-10 * abs(series)


def test_g2122_residue_series_diverges_near_one():
    # the series converges like x^-k, too slowly just above x = 1 to meet
    # the term criterion in 400 terms; the partial sum must not be returned
    from landau_td.specfun import _g2122_residue_series

    spec = MeijerGSpec(2, 1, 2, 2, (-5.0, 0.0), (0.0, 0.0))
    with pytest.raises(DivergentSeries):
        _g2122_residue_series(spec, 1.01)
    assert _g2122_residue_series(spec, 12.0) == pytest.approx(
        _mpmath_g2122(spec.a, spec.b, 12.0), rel=1e-13
    )


def test_g2122_mellin_moment_property():
    # int_0^inf G dx = Gamma-ratio at s = 1: Gamma(1)^2 Gamma(2j+1-p)/Gamma(p+1)
    j, p = 1.0, 1.0
    spec = MeijerGSpec(2, 1, 2, 2, (p - 2 * j - 1.0, p), (0.0, 0.0))
    val, err = integrate.quad(lambda x: meijer_g(spec, x), 0.0, np.inf, limit=200)
    expect = math.gamma(2 * j + 1.0 - p) / math.gamma(p + 1.0)
    assert err < 1e-8
    assert val == pytest.approx(expect, rel=1e-6)


def test_g4024_vs_mpmath():
    # weight layout for (k, n): a = (0, 2k-1), b = (-n, -n, 2k-1-n, 2k-1-n)
    for (k, n) in [(1.0, 1), (1.0, 2), (1.5, 1)]:
        ell = 2 * k - 1.0
        a = (0.0, ell)
        b = (-float(n), -float(n), ell - n, ell - n)
        spec = MeijerGSpec(4, 0, 2, 4, a, b)
        for x in (1e-3, 0.5, 2.0, 10.0, 20.0):
            mine = meijer_g(spec, x)
            ref = _mpmath_g4024(a, b, x)
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-300), (k, n, x)


def test_g4024_large_x_decay():
    # beyond its last sign change the BG-PA weight decays monotonically
    spec = MeijerGSpec(4, 0, 2, 4, (0.0, 1.0), (-1.0, -1.0, 0.0, 0.0))
    xs = np.linspace(15.0, 40.0, 9)
    vals = [meijer_g(spec, float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


@pytest.mark.parametrize(
    "spec",
    [
        MeijerGSpec(2, 1, 2, 2, (-3.0, 1.0), (0.0, 0.0)),
        MeijerGSpec(2, 1, 2, 2, (-5.0, 2.0), (0.0, 0.0)),
        MeijerGSpec(4, 0, 2, 4, (0.0, 1.0), (-1.0, -1.0, 0.0, 0.0)),
        MeijerGSpec(4, 0, 2, 4, (0.0, 2.0), (-2.0, -2.0, 0.0, 0.0)),
    ],
)
def test_meijer_array_matches_scalar(spec):
    # points of one octave share a contour; the result must not depend on
    # which other points are evaluated with it
    octaves = (1e-9, 1e-3, 0.3, 1.5, 5.0, 20.0)
    x = np.concatenate([np.linspace(lo, 2.0 * lo, 5)[:-1] for lo in octaves])
    arr = meijer_g(spec, x.reshape(4, -1))
    assert arr.shape == (4, x.size // 4)
    scalar = np.array([meijer_g(spec, float(v)) for v in x])
    assert arr.ravel() == pytest.approx(scalar, rel=1e-13, abs=0.0)
    oracle = _mpmath_g2122 if spec.m == 2 else _mpmath_g4024
    for v, got in zip(x[::3], arr.ravel()[::3]):
        assert got == pytest.approx(oracle(spec.a, spec.b, v), rel=1e-12)


def test_meijer_domain():
    spec = MeijerGSpec(2, 1, 2, 2, (-2.0, 1.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        meijer_g(spec, 0.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
