"""Acceptance gate: twelve end-to-end criteria at their stated tolerances.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured numbers (visible with -s, and in the report on failure), and
enforces the runtime cap where one is stated.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from landau_td import coherent as ch
from landau_td import spectrum, verify
from landau_td.auxode import (
    closed_form_solution,
    default_initial_conditions,
    ep_residual_pointwise,
    solve_ep_numeric,
    stationary_solution,
)
from landau_td.coherent import weight_spec
from landau_td.profiles import make_profile
from landau_td.spectrum import HelicityQuanta
from reference import max_residual


def _line(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} [criterion {num:02d}] {label}: {detail}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def static_pair():
    prof = make_profile(
        "constant",
        {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0},
        q=0.0,
        B=0.0,
        kappa=1.0,
        t0=0.0,
        t1=10.0,
    )
    aux = stationary_solution(prof, np.linspace(0.0, 10.0, 201))
    return prof, aux


@pytest.fixture(scope="module")
def varying_pair():
    prof = make_profile(
        "sinusoidal",
        {"M": 1.0, "omega0": 1.2, "depth": 0.3, "rate": 0.7, "E1": 0.0, "E2": 0.0},
        q=1.0,
        B=0.9,
        kappa=1.0,
        t0=0.0,
        t1=12.0,
    )
    rho0, rho_dot0 = default_initial_conditions(prof)
    aux = solve_ep_numeric(prof, rho0, rho_dot0, np.linspace(0.0, 12.0, 401))
    return prof, aux


@pytest.fixture(scope="module")
def breathing_pair():
    # static magnetic profile carried by a genuinely breathing aux solution
    prof = make_profile(
        "constant",
        {"M": 1.0, "omega": 1.1, "E1": 0.0, "E2": 0.0},
        q=1.0,
        B=0.8,
        kappa=2.0,
        t0=0.0,
        t1=6.0,
    )
    big_omega = math.sqrt(1.1**2 + 0.8**2 / 4.0)
    grid = np.linspace(0.0, 6.0, 301)
    aux = closed_form_solution(
        "pinney_constant",
        {"omega": big_omega, "nu": 2.0, "c2": 0.35},
        grid,
    )
    return prof, aux


# ---------------------------------------------------------------------------
# criteria 1-2: auxiliary-equation closed forms
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_families():
    cases = []

    t0 = time.perf_counter()
    prof = make_profile(
        "constant", {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0}, kappa=1.5
    )
    grid = np.linspace(0.0, 2.0 * math.pi, 400)
    sol = closed_form_solution(
        "pinney_constant", {"omega": 1.0, "nu": 1.5}, grid
    )
    res = max_residual(ep_residual_pointwise(sol, prof))
    cases.append(("pinney_constant", res, time.perf_counter() - t0))

    t0 = time.perf_counter()
    tau, alpha, kappa = 1.0, 0.1, 1.0
    horizon = math.log(1.0 + 4.0 * math.pi * alpha / tau) / alpha
    prof = make_profile(
        "exponential-frequency",
        {"tau": tau, "alpha": alpha},
        kappa=kappa,
        t0=0.0,
        t1=horizon + 1.0,
    )
    grid = np.linspace(0.0, horizon, 400)
    sol = closed_form_solution(
        "bessel_exponential",
        {
            "tau": tau,
            "alpha": alpha,
            "A1": math.sqrt(math.pi * kappa / (2.0 * alpha)),
            "kappa": kappa,
        },
        grid,
    )
    res = max_residual(ep_residual_pointwise(sol, prof))
    cases.append(("bessel_exponential", res, time.perf_counter() - t0))

    t0 = time.perf_counter()
    prof = make_profile(
        "exponential-mass",
        {"alpha": 1.0, "omega": math.sqrt(5.0) / 2.0},
        kappa=1.3,
        t0=0.0,
        t1=2.1,
    )
    grid = np.linspace(0.0, 2.0, 400)
    sol = closed_form_solution(
        "yermakov_dissipative",
        {"alpha": 1.0, "kappa": 1.3, "d1": 1.0, "e1": 1.0, "e2": 1.0},
        grid,
    )
    res = max_residual(ep_residual_pointwise(sol, prof))
    cases.append(("yermakov_dissipative", res, time.perf_counter() - t0))

    ok = all(res < 1e-6 and dt < 1.0 for _, res, dt in cases)
    detail = ", ".join(f"{name} residual={res:.2e} ({dt:.2f}s)" for name, res, dt in cases)
    _line(1, "closed-form family residuals < 1e-6 on 400-point grids", ok, detail)
    for name, res, dt in cases:
        assert res < 1e-6, name
        assert dt < 1.0, name


def test_criterion_02_closed_vs_numeric_pinney():
    t0 = time.perf_counter()
    prof = make_profile(
        "constant", {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0}, kappa=2.0
    )
    grid = np.linspace(0.0, 2.0 * math.pi, 400)
    closed = closed_form_solution(
        "pinney_constant", {"omega": 1.0, "nu": 2.0}, grid
    )
    numeric = solve_ep_numeric(prof, closed.rho[0], closed.rho_dot[0], grid)
    diff = np.max(np.abs(closed.rho - numeric.rho) / closed.rho)
    elapsed = time.perf_counter() - t0
    ok = diff < 1e-6 and elapsed < 1.0
    _line(2, "pinney closed vs numeric over one period", ok,
          f"max relative diff={diff:.2e} ({elapsed:.2f}s)")
    assert diff < 1e-6
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criteria 3-5: quadrature and operator checks of the eigenbasis
# ---------------------------------------------------------------------------

def test_criterion_03_orthonormality_three_times(varying_pair):
    prof, aux = varying_pair
    t0 = time.perf_counter()
    reports = [
        verify.orthonormality_check(prof, aux, t, n_max=3, tol=1e-12)
        for t in (2.0, 5.0, 9.0)
    ]
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 30.0
    _line(3, "Gram residual < 1e-12 for n+,n- <= 3 at three times", ok,
          f"worst residual={worst:.2e} ({elapsed:.1f}s)")
    assert all(r.passed for r in reports)
    assert elapsed < 30.0


def test_criterion_04_invariant_equation(varying_pair):
    prof, aux = varying_pair
    t0 = time.perf_counter()
    report = verify.lr_invariant_check(prof, aux, 2.0, cutoff=40, tol=1e-6)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    _line(4, "transport equation residual < 1e-6 * ||I|| at cutoff 40", ok,
          f"relative residual={report.max_residual:.2e} ({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 60.0


def test_criterion_05_phase_adjudication(static_pair):
    prof, aux = static_pair
    t0 = time.perf_counter()
    report = verify.schrodinger_residual_check(
        HelicityQuanta(1, 0),
        prof,
        aux,
        [(5.0, 0.7, 0.4), (5.0, 1.3, 2.1)],
        tol=1e-4,
    )
    elapsed = time.perf_counter() - t0
    rows = {d["convention"]: d["residual"] for d in report.details if "convention" in d}
    integrated = rows["integrated"]
    closed = rows["closed_form"]
    ok = integrated < 1e-4 and closed >= 100.0 * integrated and elapsed < 60.0
    _line(5, "static-oscillator phase conventions", ok,
          f"integrated={integrated:.2e}, closed_form={closed:.2e} ({elapsed:.1f}s)")
    assert integrated < 1e-4
    assert closed >= 100.0 * integrated
    assert elapsed < 60.0


def _uncertainty_by_quadrature(q, prof, aux, t, n_u=160, n_theta=16, u_max=36.0):
    """Delta x Delta p_x from the polar wavefunction alone.

    Gauss-Legendre in u = kappa r^2 / rho^2, trapezoid in theta; d/dx by a
    6th-order stencil applied directly in the Cartesian x direction.
    """
    rho = float(aux.rho_at(t))
    kap = prof.kappa
    nodes, gl_w = leggauss(n_u)
    u = 0.5 * u_max * (nodes + 1.0)
    w_u = 0.5 * u_max * gl_w
    r = rho * np.sqrt(u / kap)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    rr = r[:, None]
    th = theta[None, :]
    x = rr * np.cos(th)
    y = rr * np.sin(th)
    w2 = (rho**2 / (2.0 * kap)) * w_u[:, None] * (2.0 * math.pi / n_theta)

    psi = spectrum.wavefunction_polar(q, prof, aux, t, rr, th)
    dens = np.abs(psi) ** 2
    norm = float(np.sum(w2 * dens))
    mean_x = float(np.sum(w2 * x * dens)) / norm
    mean_x2 = float(np.sum(w2 * x * x * dens)) / norm

    step = 4e-3 * rho / math.sqrt(kap)
    stencil = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    dpsi = np.zeros_like(psi)
    for k, c in zip(range(-3, 4), stencil):
        if c == 0.0:
            continue
        xs = x + k * step
        dpsi += c * spectrum.wavefunction_polar(
            q, prof, aux, t, np.hypot(xs, y), np.arctan2(y, xs)
        )
    dpsi /= step

    mean_p = complex(np.sum(w2 * np.conj(psi) * (-1j) * dpsi)) / norm
    mean_p2 = float(np.sum(w2 * np.abs(dpsi) ** 2)) / norm
    dx = math.sqrt(mean_x2 - mean_x**2)
    dp = math.sqrt(mean_p2 - abs(mean_p) ** 2)
    return dx * dp


def test_criterion_06_uncertainty_products(static_pair, breathing_pair):
    prof, aux = breathing_pair
    t = 2.1
    rows = []
    for n, ell in [(0, 0), (1, 0), (0, 2)]:
        q = HelicityQuanta(n + max(ell, 0), n + max(-ell, 0))
        quad_val = _uncertainty_by_quadrature(q, prof, aux, t)
        closed = spectrum.uncertainty_product(n, ell, prof, aux, t)
        rows.append((n, ell, quad_val, closed, abs(quad_val - closed)))

    s_prof, s_aux = static_pair
    ground = _uncertainty_by_quadrature(HelicityQuanta(0, 0), s_prof, s_aux, 5.0)
    ground_err = abs(ground - 0.5)

    ok = all(err < 1e-6 for *_, err in rows) and ground_err < 1e-10
    detail = ", ".join(
        f"(n={n},l={ell}) |quad-closed|={err:.2e}" for n, ell, _, _, err in rows
    )
    _line(6, "uncertainty products by quadrature", ok,
          f"{detail}; stationary ground |0.5-quad|={ground_err:.2e}")
    for n, ell, quad_val, closed, err in rows:
        assert err < 1e-6, (n, ell, quad_val, closed)
    assert ground_err < 1e-10


# ---------------------------------------------------------------------------
# criteria 7-8: operator algebra and eigenvector families
# ---------------------------------------------------------------------------

def test_criterion_07_algebra_suite():
    t0 = time.perf_counter()
    report = verify.algebra_check(cutoff=20, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    _line(7, "commutator and Casimir residuals < 1e-10 at cutoff 20", ok,
          f"max residual={report.max_residual:.2e} ({elapsed:.1f}s)")
    assert report.passed
    assert elapsed < 10.0


def test_criterion_08_eigenvector_properties(varying_pair):
    prof, aux = varying_pair
    cutoff = 60
    mats = spectrum.build_operator_matrices(prof, aux, 2.0, cutoff)
    interior = spectrum.interior_mask(cutoff, band=2)

    def interior_resid(op, vec, lam):
        return float(np.max(np.abs((op @ vec - lam * vec)[interior])))

    rows = []

    z_plus, z_minus = 1.2, 0.5 + 0.3j
    vec = ch.canonical_state(z_plus, z_minus, cutoff=cutoff).coeffs.reshape(-1)
    rows.append(("a+", interior_resid(mats["a+"], vec, z_plus)))
    rows.append(("a-", interior_resid(mats["a-"], vec, z_minus)))

    f = lambda n: 1.0 + 0.3 / (n + 1.0)
    vec = ch.nonlinear_state(0.7, 0.4, f, f, cutoff=cutoff).coeffs.reshape(-1)
    n_plus = (mats["a+dag"] @ mats["a+"]).diagonal().real
    n_minus = (mats["a-dag"] @ mats["a-"]).diagonal().real
    f_plus = sp.diags(np.array([f(round(v)) for v in n_plus]))
    f_minus = sp.diags(np.array([f(round(v)) for v in n_minus]))
    rows.append(("A+", interior_resid(mats["a+"] @ f_plus, vec, 0.7)))
    rows.append(("A-", interior_resid(mats["a-"] @ f_minus, vec, 0.4)))

    vec = ch.su11_bg_state(("single_mode", 1), 1.3, cutoff=cutoff).coeffs.reshape(-1)
    rows.append(("K-", interior_resid(mats["K-"], vec, 1.3)))

    # exp(eta K+) vacuum: (K- - eta^2 K+) v = 2 k eta v with 2k = |l|+1
    eta = 0.6
    vec = ch.su11_perelomov_state(("single_mode", 1), eta, cutoff=cutoff).coeffs.reshape(-1)
    op = mats["K-"] - eta**2 * mats["K+"]
    rows.append(("K- - eta^2 K+", interior_resid(op, vec, 2.0 * eta)))

    ok = all(res < 1e-8 for _, res in rows)
    _line(8, "ladder eigenvector residuals < 1e-8", ok,
          ", ".join(f"{name}={res:.2e}" for name, res in rows))
    for name, res in rows:
        assert res < 1e-8, name


# ---------------------------------------------------------------------------
# criteria 9-11: coherent-state closed forms
# ---------------------------------------------------------------------------

def test_criterion_09_closed_form_overlaps():
    rows = []

    z1p, z1m, z2p, z2m = 0.6, -0.4 + 0.2j, -0.3 + 0.5j, 0.8
    got = abs(ch.overlap(ch.canonical_state(z1p, z1m, 40), ch.canonical_state(z2p, z2m, 40)))
    want = ch.canonical_overlap_modulus(z1p, z1m, z2p, z2m)
    rows.append(("canonical", abs(got - want), 1e-8))

    j, zeta1, zeta2 = 1.5, 0.3 + 0.1j, -0.4 + 0.25j
    got = ch.overlap(ch.su2_state(j, zeta1), ch.su2_state(j, zeta2))
    rows.append(("su2", abs(got - ch.su2_overlap(j, zeta1, zeta2)), 1e-8))

    got = ch.overlap(
        ch.su11_bg_state(("single_mode", 2), 0.9, cutoff=40),
        ch.su11_bg_state(("single_mode", 2), 1.4, cutoff=40),
    )
    rows.append(("bg", abs(got - ch.bg_overlap(2, 0.9, 1.4)), 1e-8))

    eta1, eta2 = 0.3 + 0.2j, -0.45
    got = ch.overlap(
        ch.su11_perelomov_state(("single_mode", 1), eta1, cutoff=60),
        ch.su11_perelomov_state(("single_mode", 1), eta2, cutoff=60),
    )
    rows.append(("perelomov", abs(got - ch.perelomov_overlap(1, eta1, eta2)), 1e-8))

    a = ch.su11_pa_bg_state(1.0, 0.5, 1, cutoff=40)
    b = ch.su11_pa_bg_state(1.0, 0.8, 1, cutoff=40)
    got = complex(ch.overlap(b, a))
    rows.append(("pa_bg 2F3", abs(got - ch.pa_bg_overlap(1.0, 1, 1, 0.5, 0.8)), 1e-7))

    ok = all(err < tol for _, err, tol in rows)
    _line(9, "overlap closed forms vs coefficient inner products", ok,
          ", ".join(f"{name}={err:.2e}" for name, err, _ in rows))
    for name, err, tol in rows:
        assert err < tol, name


def test_criterion_10_moment_problems():
    t0 = time.perf_counter()
    rows = []

    report = verify.moment_problem_check(weight_spec("canonical", {}), m_max=6, tol=1e-10)
    rows.append(("canonical", report.max_residual, report.passed))

    worst_su2 = 0.0
    all_su2 = True
    for two_j in (1, 2, 3, 4):
        for p in range(0, min(2, two_j) + 1):
            spec = weight_spec("su2_pa", {"j": two_j / 2.0, "p": p})
            report = verify.moment_problem_check(spec, m_max=6, tol=1e-10)
            worst_su2 = max(worst_su2, report.max_residual)
            all_su2 = all_su2 and report.passed
    rows.append(("su2_pa (j<=2, p<=2)", worst_su2, all_su2))

    report = verify.moment_problem_check(
        weight_spec("bg_pa", {"k": 1.0, "n": 1}), m_max=6, tol=1e-10
    )
    rows.append(("bg_pa (k=1, n=1)", report.max_residual, report.passed))

    elapsed = time.perf_counter() - t0
    ok = all(passed for *_, passed in rows) and elapsed < 120.0
    _line(10, "moment problems", ok,
          ", ".join(f"{name} residual={res:.2e}" for name, res, _ in rows)
          + f" ({elapsed:.1f}s)")
    for name, _, passed in rows:
        assert passed, name
    assert elapsed < 120.0


def _single_mode_fock_sum(state, ell, prof, aux, t, u, theta):
    rho = aux.rho_at(t)
    r = rho * np.sqrt(u / prof.kappa)
    vals = np.zeros(u.shape, dtype=complex)
    for m in range(state.cutoff - ell + 1):
        c = state.coeffs[m + ell, m]
        if c == 0:
            continue
        phi = spectrum.wavefunction_polar(
            HelicityQuanta(m + ell, m), prof, aux, t, r, theta
        )
        vals += c * (-1) ** m * phi
    return vals


def test_criterion_11_generating_function_cross_check(breathing_pair):
    prof, aux = breathing_pair
    t, theta = 2.1, 0.7
    u = np.linspace(0.0, 10.0, 41)
    rows = []
    for ell, z in [(0, 1.0), (1, 1.3), (3, 0.7)]:
        s = ch.su11_bg_state(("single_mode", ell), z, cutoff=45)
        closed = ch.single_mode_wavefunction("bg", ell, z, prof, aux, t, u, theta)
        fock = _single_mode_fock_sum(s, ell, prof, aux, t, u, theta)
        rows.append((f"bg l={ell}", float(np.max(np.abs(closed - fock)))))
    for ell, eta in [(0, 0.4), (1, 0.3 + 0.2j), (2, -0.5)]:
        s = ch.su11_perelomov_state(("single_mode", ell), eta, cutoff=60)
        closed = ch.single_mode_wavefunction("perelomov", ell, eta, prof, aux, t, u, theta)
        fock = _single_mode_fock_sum(s, ell, prof, aux, t, u, theta)
        rows.append((f"perelomov l={ell}", float(np.max(np.abs(closed - fock)))))

    ok = all(err < 1e-7 for _, err in rows)
    _line(11, "closed-form wavefunctions vs truncated sums on u in [0, 10]", ok,
          ", ".join(f"{name}={err:.2e}" for name, err in rows))
    for name, err in rows:
        assert err < 1e-7, name


# ---------------------------------------------------------------------------
# criterion 12: axial-extension diagnostic
# ---------------------------------------------------------------------------

def test_criterion_12_axial_eigenvalue_variation(breathing_pair):
    prof, aux = breathing_pair
    trace = spectrum.invariant3d_diagnostic(HelicityQuanta(0, 0), 1.0, prof, aux, aux.grid)
    expected = 0.5 * (np.max(aux.rho**2) - np.min(aux.rho**2))
    err = abs(trace.variation - expected)
    ok = err < 1e-8
    _line(12, "axial eigenvalue variation equals half the rho^2 swing", ok,
          f"variation={trace.variation:.6f}, |diff|={err:.2e}")
    assert err < 1e-8
