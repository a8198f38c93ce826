"""Special-function unit tests.

Derived expectations are computed by independent oracles inside the tests
(explicit recurrence steps, quadrature, half-integer closed forms, mpmath)
before being compared against the library code.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import roots_genlaguerre

from landau_td.coherent import weight_spec
from landau_td.errors import (
    DivergentSeries,
    DomainError,
)
from landau_td.specfun import (
    bessel,
    hermite,
    hyp2f1_logarithmic,
    hypergeometric,
    laguerre,
    meijer_g,
)
from reference import hermite_function_mp, laguerre_function_mp


# ---------------------------------------------------------------------------
# Laguerre functions f_n^alpha(u) = sqrt(n!/Gamma(n+alpha+1)) u^(alpha/2)
# e^(-u/2) L_n^alpha(u)
# ---------------------------------------------------------------------------

def _laguerre_polynomial(n, alpha, u):
    """L_n^alpha(u) read back from the orthonormal function."""
    log_norm = 0.5 * (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
    return laguerre(n, alpha, u) * np.exp(0.5 * u + log_norm) * np.power(u, -0.5 * alpha)


def test_laguerre_order_zero_is_one():
    # the order-zero polynomial is one: f_0 = u^(alpha/2) e^(-u/2) / sqrt(Gamma(alpha+1))
    for alpha in (0.0, 1.0, 2.5):
        for x in (0.0, 0.7, 31.0):
            expect = x ** (0.5 * alpha) * math.exp(-0.5 * x) / math.sqrt(math.gamma(alpha + 1.0))
            assert laguerre(0, alpha, x) == pytest.approx(expect, rel=1e-14, abs=0.0)
    assert laguerre(0, 0.0, 0.0) == 1.0


def test_laguerre_order_one_closed_form():
    # L_1^alpha(x) = 1 + alpha - x; L_1^2(3) = 0
    assert laguerre(1, 2.0, 3.0) == pytest.approx(0.0, abs=1e-15)
    assert _laguerre_polynomial(1, 2.0, 1.5) == pytest.approx(1.5, rel=1e-14)


def test_laguerre_l2_recurrence_oracle():
    # Oracle: one explicit recurrence step from L_0, L_1 at alpha=0, x=1:
    # 2*L_2 = (2*1 + 0 + 1 - x)*L_1 - (1 + 0)*L_0; at alpha = 0 the
    # normalisation is 1, so f_2 = e^(-x/2) L_2
    x = 1.0
    l0, l1 = 1.0, 1.0 + 0.0 - x
    l2 = ((3.0 - x) * l1 - 1.0 * l0) / 2.0
    assert l2 == -0.5
    assert laguerre(2, 0.0, x) == pytest.approx(math.exp(-0.5 * x) * l2, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=29),
    alpha=st.sampled_from([0.0, 1.0, 2.5]),
    x=st.floats(min_value=0.0, max_value=40.0),
)
def test_laguerre_recurrence_residual(n, alpha, x):
    # sqrt((n+1)(n+1+a)) f_{n+1} = (2n+a+1-x) f_n - sqrt(n(n+a)) f_{n-1}
    terms = (
        math.sqrt((n + 1) * (n + 1 + alpha)) * laguerre(n + 1, alpha, x),
        -(2 * n + alpha + 1 - x) * laguerre(n, alpha, x),
        math.sqrt(n * (n + alpha)) * laguerre(n - 1, alpha, x),
    )
    # relative to the largest term, or to the smallest normal double where
    # u^(alpha/2) makes the terms subnormal
    scale = max(abs(v) for v in terms)
    assert abs(sum(terms)) <= max(1e-10 * scale, sys.float_info.min)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    alpha=st.sampled_from([0.0, 1.0, 2.5]),
    x=st.floats(min_value=0.1, max_value=30.0),
)
@example(n=18, alpha=2.5, x=1.078125)
def test_laguerre_derivative_identity(n, alpha, x):
    # x dL/dx = n L_n - (n + alpha) L_{n-1} with dL_n^alpha/dx = -L_{n-1}^{alpha+1};
    # times u^(alpha/2) e^(-u/2) sqrt((n-1)!/Gamma(n+alpha+1)) it reads
    # sqrt(x) f_{n-1}^{alpha+1} + sqrt(n) f_n^alpha - sqrt(n+alpha) f_{n-1}^alpha = 0
    terms = (
        math.sqrt(x) * laguerre(n - 1, alpha + 1.0, x),
        math.sqrt(n) * laguerre(n, alpha, x),
        -math.sqrt(n + alpha) * laguerre(n - 1, alpha, x),
    )
    assert abs(sum(terms)) / max(abs(v) for v in terms) < 1e-12


def test_laguerre_orthogonality_gauss_quadrature():
    # int_0^inf f_n f_m du = delta_nm; f_n f_m is u^alpha e^(-u) times a
    # polynomial, which the generalised Gauss-Laguerre rule integrates exactly
    for alpha in (0.0, 2.0):
        nodes, weights = roots_genlaguerre(64, alpha)
        weights = weights * np.exp(nodes) * nodes ** (-alpha)
        for n in range(5):
            for m in range(5):
                val = float(np.dot(weights, laguerre(n, alpha, nodes) * laguerre(m, alpha, nodes)))
                assert abs(val - (n == m)) < 1e-8


def test_laguerre_generating_function():
    # sum_n L_n^alpha(u) z^n -> (1-z)^{-(1+alpha)} exp(u z/(z-1)) at |z| = 0.5
    u_values = np.array([0.3, 2.0, 7.5])
    for alpha in (0.0, 2.0):
        tables = np.array([_laguerre_polynomial(n, alpha, u_values) for n in range(201)])
        for u, table in zip(u_values, tables.T):
            for theta in (0.0, 1.1, 2.7):
                z = 0.5 * np.exp(1j * theta)
                series = np.sum(table * z ** np.arange(201))
                closed = np.exp(u * z / (z - 1.0)) / (1.0 - z) ** (1.0 + alpha)
                assert abs(series - closed) < 1e-8


def _check_against_mpmath(got, want, turning):
    """Error at most 1e-12 of the largest |want|, at most 1e-10 of |want|
    past the turning point, and no zero where want is a normal double."""
    want = np.array([float(v) for v in want])
    err = np.abs(got - want)
    assert np.all(err <= 1e-12 * np.max(np.abs(want)))
    normal = np.abs(want) >= sys.float_info.min
    assert np.all(got[normal] != 0.0)
    past = normal & turning
    assert np.all(err[past] <= 1e-10 * np.abs(want[past]))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 400),
    alpha=st.integers(0, 400),
    offset=st.floats(0.0, 1.0),
    extra=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
)
@example(n=0, alpha=300, offset=0.5, extra=[0.0])
@example(n=3, alpha=197, offset=0.1, extra=[1e-3])
@example(n=100, alpha=150, offset=0.9, extra=[2.9])
@example(n=400, alpha=0, offset=0.0, extra=[1.0])
def test_laguerre_matches_mpmath(n, alpha, offset, extra):
    # eight evenly spaced samples and a few drawn ones on [0, 3 u+], with u+
    # = (sqrt(n+alpha+1) + sqrt(n))^2 the turning point, where the parts
    # sqrt(n!/Gamma), u^(alpha/2), e^(-u/2) and L_n can each leave the
    # double range while f does not
    top = (math.sqrt(n + alpha + 1) + math.sqrt(n)) ** 2
    u = 3.0 * top * np.concatenate([(np.arange(8) + offset) / 8.0, np.array(extra) / 3.0])
    want = [laguerre_function_mp(n, alpha, v) for v in u]
    _check_against_mpmath(laguerre(n, float(alpha), u), want, u > top)


def test_laguerre_far_tail_and_domain():
    # e^(-u/2) alone underflows at u = 1500, f_100 does not; far past the
    # turning point the functions are 0 in doubles, with no overflowing step
    assert laguerre(100, 0.0, 1500.0) == pytest.approx(
        float(laguerre_function_mp(100, 0, 1500)), rel=1e-12
    )
    assert np.all(laguerre(3, 2.0, [1e300, math.inf]) == 0.0)
    assert np.all(hermite(3, [1e200, -math.inf]) == 0.0)
    with pytest.raises(DomainError, match="u >= 0"):
        laguerre(2, 0.0, [1.0, -0.5])
    with pytest.raises(ValueError, match="natural number"):
        laguerre(-1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Hermite functions h_n(x) = H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi))
# ---------------------------------------------------------------------------

def _hermite_weight(n, x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))


def test_hermite_base_cases():
    # H_0 = 1, H_1(1.5) = 3
    assert hermite(0, 0.3) == pytest.approx(_hermite_weight(0, 0.3), rel=1e-15)
    assert hermite(1, 1.5) == pytest.approx(3.0 * _hermite_weight(1, 1.5), rel=1e-15)


def test_hermite_h3_recurrence_oracle():
    # Oracle: H_2 = 2x H_1 - 2 H_0, H_3 = 2x H_2 - 4 H_1 at x = 2
    x = 2.0
    h0, h1 = 1.0, 2.0 * x
    h2 = 2.0 * x * h1 - 2.0 * h0
    h3 = 2.0 * x * h2 - 4.0 * h1
    assert h3 == 40.0
    assert hermite(3, x) == pytest.approx(h3 * _hermite_weight(3, x), rel=1e-14)


def test_hermite_parity():
    x = 1.37
    for n in range(8):
        sign = (-1.0) ** n
        assert hermite(n, -x) == pytest.approx(sign * hermite(n, x), rel=1e-12)
    assert hermite(3, 0.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 400),
    offset=st.floats(0.0, 1.0),
    extra=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
)
@example(n=400, offset=0.5, extra=[3.0])
@example(n=170, offset=0.0, extra=[0.0])
def test_hermite_matches_mpmath(n, offset, extra):
    # eight evenly spaced samples and a few drawn ones on [-3 x+, 3 x+],
    # x+ = sqrt(2n+1) the turning point; 2^n n! leaves the double range at
    # n = 171
    top = math.sqrt(2 * n + 1)
    x = 3.0 * top * np.concatenate([(np.arange(8) + offset) / 4.0 - 1.0, np.array(extra) / 3.0])
    want = [hermite_function_mp(n, v) for v in x]
    _check_against_mpmath(hermite(n, x), want, np.abs(x) > top)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

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
# 2F1 in the logarithmic case c = a+b
# ---------------------------------------------------------------------------

@mpmath.workdps(60)
def _mpmath_2f1_log(a, b, w):
    return float(mpmath.hyp2f1(a, b, a + b, 1 - mpmath.mpf(w)))


def test_hyp2f1_logarithmic_vs_mpmath():
    # both branches and both sides of the split w_s = min(1/16, 4/(ab)) (for
    # a, b >= 1); at (42, 40) a split at 1/(a+b) left the log series 4e-10
    # off below it, and at (1000, 0.1) a split at 4/(ab) left it 7e-11 off
    for a, b in [(0.5, 0.5), (1.0, 1.0), (2.5, 3.0), (7.0, 4.0), (96.0, 6.0), (0.3, 40.0), (42.0, 40.0), (1000.0, 0.1)]:
        f = hyp2f1_logarithmic(a, b)
        w_s = min(1.0 / 16.0, 4.0 / (max(a, 1.0) * max(b, 1.0)))
        w = np.array([1e-30, 1e-12, 1e-4, 0.999 * w_s, w_s, 1.001 * w_s, 0.999 / (a + b), 0.02, 0.06, 0.3, 1.0])
        want = np.array([_mpmath_2f1_log(a, b, v) for v in w])
        assert f(w) == pytest.approx(want, rel=1e-12, abs=0.0), (a, b)


def test_hyp2f1_logarithmic_scalar_and_b_zero():
    f = hyp2f1_logarithmic(1.0, 1.0)
    # 2F1(1, 1; 2; 1-w) = -ln(w) / (1-w)
    assert isinstance(f(0.5), float)
    assert f(0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert hyp2f1_logarithmic(3.0, 0.0)(0.25) == 1.0
    assert np.all(hyp2f1_logarithmic(3.0, 0.0)(np.array([1e-9, 1.0])) == 1.0)


def test_hyp2f1_logarithmic_domain_and_term_cap():
    f = hyp2f1_logarithmic(2.0, 1.0)
    for w in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(DomainError):
            f(np.array([0.5, w]))
    with pytest.raises(DomainError):
        hyp2f1_logarithmic(0.0, 1.0)
    # the power series needs about ab terms before its coefficients fall
    with pytest.raises(DivergentSeries):
        hyp2f1_logarithmic(2000.0, 2000.0)


# ---------------------------------------------------------------------------
# Meijer G: G^{2,1}_{2,2} is the su2_pa weight times Gamma(2j+1), evaluated
# by its 2F1 closed form; G^{4,0}_{2,4} is the bg_pa weight
# ---------------------------------------------------------------------------

def _mpmath_g2122(a, b, x):
    return float(mpmath.meijerg([[a[0]], [a[1]]], [list(b), []], x))


def _mpmath_g4024(a, b, x):
    return float(mpmath.meijerg([[], list(a)], [list(b), []], x))


def _g2122_su2_pa(two_j, p):
    """G^{2,1}_{2,2}(x | p-2j-1, p; 0, 0) through the su2_pa weight."""
    weight = weight_spec("su2_pa", {"j": two_j / 2.0, "p": p}).evaluator
    return lambda x: np.exp(weight(x)) * math.gamma(two_j + 1.0)


def test_g2122_vs_mpmath():
    # weight layout for (j, p): a = (p-2j-1, p), b = (0, 0)
    for (j, p) in [(1.0, 0), (1.0, 1), (2.0, 2), (1.5, 1)]:
        a = (p - 2 * j - 1.0, float(p))
        b = (0.0, 0.0)
        g = _g2122_su2_pa(int(2 * j), p)
        for x in (1e-3, 0.1, 1.0, 3.0, 5.0, 12.0, 20.0):
            mine = g(x)
            ref = _mpmath_g2122(a, b, x)
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-300), (j, p, x)


def test_g2122_mellin_moment_property():
    # int_0^inf G dx = Gamma-ratio at s = 1: Gamma(1)^2 Gamma(2j+1-p)/Gamma(p+1)
    j, p = 1.0, 1
    g = _g2122_su2_pa(int(2 * j), p)
    val, err = integrate.quad(g, 0.0, np.inf, limit=200)
    expect = math.gamma(2 * j + 1.0 - p) / math.gamma(p + 1.0)
    assert err < 1e-8
    assert val == pytest.approx(expect, rel=1e-10)


def test_g4024_vs_mpmath():
    # weight layout for (k, n): a = (0, 2k-1), b = (-n, -n, 2k-1-n, 2k-1-n)
    for (k, n) in [(1.0, 1), (1.0, 2), (1.5, 1)]:
        ell = 2 * k - 1.0
        a = (0.0, ell)
        b = (-float(n), -float(n), ell - n, ell - n)
        for x in (1e-3, 0.5, 2.0, 10.0, 20.0):
            mine = meijer_g(a, b, x)
            ref = _mpmath_g4024(a, b, x)
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-300), (k, n, x)


def test_g4024_large_x_decay():
    # beyond its last sign change the BG-PA weight decays monotonically
    xs = np.linspace(15.0, 40.0, 9)
    vals = [meijer_g((0.0, 1.0), (-1.0, -1.0, 0.0, 0.0), float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


@pytest.mark.parametrize(
    "spec",
    [
        # (2j, p) of the G^{2,1}_{2,2} layouts (-3, 1; 0, 0) and (-5, 2; 0, 0)
        (3, 1),
        (6, 2),
        # (a, b) of the G^{4,0}_{2,4} layouts
        ((0.0, 1.0), (-1.0, -1.0, 0.0, 0.0)),
        ((0.0, 2.0), (-2.0, -2.0, 0.0, 0.0)),
    ],
)
def test_meijer_array_matches_scalar(spec):
    # points of one octave share a contour; the result must not depend on
    # which other points are evaluated with it
    if isinstance(spec[0], tuple):
        g = lambda x: meijer_g(*spec, x)  # noqa: E731
        oracle = lambda x: _mpmath_g4024(*spec, x)  # noqa: E731
    else:
        two_j, p = spec
        g = _g2122_su2_pa(two_j, p)
        oracle = lambda x: _mpmath_g2122((p - two_j - 1.0, float(p)), (0.0, 0.0), x)  # noqa: E731
    octaves = (1e-9, 1e-3, 0.3, 1.5, 5.0, 20.0)
    x = np.concatenate([np.linspace(lo, 2.0 * lo, 5)[:-1] for lo in octaves])
    arr = g(x.reshape(4, -1))
    assert arr.shape == (4, x.size // 4)
    scalar = np.array([g(float(v)) for v in x])
    assert arr.ravel() == pytest.approx(scalar, rel=1e-13, abs=0.0)
    for v, got in zip(x[::3], arr.ravel()[::3]):
        assert got == pytest.approx(oracle(v), rel=1e-12)


def test_meijer_domain():
    with pytest.raises(DomainError):
        meijer_g((0.0, 1.0), (-1.0, -1.0, 0.0, 0.0), 0.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
