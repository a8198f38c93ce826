"""Tests for the auxiliary equation and the classical trajectory."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from landau_td import auxode, spectrum
from landau_td.errors import (
    BlowUp,
    GridTooShort,
    IntegralNonConvergent,
    OutOfDomain,
    SingularParameter,
    UnsupportedKind,
    ZeroFrequency,
    ZeroFrequencyParticular,
)
from landau_td.profiles import ParameterProfile, make_profile
from reference import (
    KIND_PARAMS,
    ep_rates,
    kind_profile,
    knot_restarted,
    max_residual,
    stacked_dense_reference,
)


def _const_profile(M=1.0, omega=1.0, q=0.0, B=0.0, kappa=1.0, E1=0.0, E2=0.0, t1=10.0):
    return make_profile(
        "constant", {"M": M, "omega": omega, "E1": E1, "E2": E2},
        q=q, B=B, kappa=kappa, t0=0.0, t1=t1,
    )


def _degenerate_zero_omega_profile():
    # bypass make_profile validation on purpose: omega == 0 is rejected there,
    # but the guard paths downstream still need coverage
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))  # noqa: E731
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))  # noqa: E731
    return ParameterProfile(
        kind="constant", q=1.0, B=0.0, kappa=1.0, t0=0.0, t1=10.0,
        mass=one, mass_rate=zero, omega=zero,
        efield1=lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float)),
        efield2=zero, params={},
    )


# ---------------------------------------------------------------------------
# auxiliary equation
# ---------------------------------------------------------------------------

class TestAuxiliaryNumeric:
    def test_stationary_profile_stays_at_fixed_point(self):
        prof = _const_profile()
        rho0, rho_dot0 = auxode.default_initial_conditions(prof)
        assert rho0 == pytest.approx(1.0, abs=1e-15)
        grid = np.linspace(0.0, 2 * math.pi, 400)
        sol = auxode.solve_ep_numeric(prof, rho0, rho_dot0, grid)
        assert np.max(np.abs(sol.rho - 1.0)) < 1e-11
        assert max_residual(auxode.ep_residual_pointwise(sol, prof)) < 1e-10

    def test_default_initial_conditions_scaling(self):
        prof = _const_profile(M=2.0, omega=2.0, kappa=1.0)
        rho0, rho_dot0 = auxode.default_initial_conditions(prof)
        assert rho0 == pytest.approx(0.5, rel=1e-14)
        assert rho_dot0 == 0.0

    def test_nonpositive_rho0_rejected(self):
        prof = _const_profile()
        with pytest.raises(ValueError):
            auxode.solve_ep_numeric(prof, -1.0, 0.0, np.linspace(0, 1, 50))

    def test_blow_up_detection(self):
        # starting 1e7 above the fixed point, the swing down crosses the
        # rho < 1e-6 * rho0 event before the turning point kappa/(Omega rho0)
        prof = _const_profile()
        with pytest.raises(BlowUp, match=r"auxiliary integration stopped early: y\[0\] = .* left"):
            auxode.solve_ep_numeric(prof, 1e7, 0.0, np.linspace(0.0, 3.0, 100))

    def test_step_collapse_is_a_blow_up(self):
        # y' = y^2 from y(0) = 1 reaches infinity at t = 1: the steps shrink
        # toward the pole until they fall below the float spacing there
        with pytest.raises(BlowUp, match="step size fell to"):
            auxode._solve_pieces(lambda t, y: [y[0] * y[0]], [1.0], [0.0, 2.0], "test")

    def test_nan_rates_are_a_blow_up(self):
        # a NaN right-hand side makes the first step size NaN: the run stops
        # at once instead of retrying it forever
        with pytest.raises(BlowUp, match="step size fell to nan"):
            auxode._solve_pieces(lambda t, y: [math.nan], [1.0], [0.0, 2.0], "test")

    def test_dense_output_matches_grid(self):
        prof = _const_profile(omega=1.3, kappa=2.0)
        grid = np.linspace(0.0, 5.0, 200)
        sol = auxode.solve_ep_numeric(prof, 1.4, 0.2, grid)
        t_star = 2.7183
        k = np.searchsorted(grid, t_star)
        assert abs(sol.rho_at(t_star) - sol.rho[k]) < 0.05
        # dense output is the integrator's own interpolant, so much closer
        # than neighbouring samples suggest
        fine = auxode.solve_ep_numeric(prof, 1.4, 0.2, np.array([0.0, t_star]))
        assert abs(sol.rho_at(t_star) - fine.rho[-1]) < 1e-9


class TestClosedForms:
    def test_pinney_quarter_period_value(self):
        # v1 = cos t, v2 = sin t, W = 1: rho(pi/2) = sqrt(0 + nu^2) = nu
        rho, rho_dot = auxode.ep_closed_form(
            "pinney_constant", {"omega": 1.0, "nu": 2.0}, math.pi / 2
        )
        assert rho == pytest.approx(2.0, abs=1e-12)
        assert rho_dot == pytest.approx(0.0, abs=1e-12)

    def test_pinney_unit_circle_degenerate(self):
        t = np.linspace(0.0, 7.0, 23)
        rho, rho_dot = auxode.ep_closed_form("pinney_constant", {"omega": 1.0, "nu": 1.0}, t)
        assert np.max(np.abs(rho - 1.0)) < 1e-14
        assert np.max(np.abs(rho_dot)) < 1e-14

    def test_pinney_closed_vs_numeric(self):
        prof = _const_profile(omega=1.0, kappa=2.0)
        grid = np.linspace(0.0, 2 * math.pi, 400)
        closed = auxode.closed_form_solution(
            "pinney_constant", {"omega": 1.0, "nu": 2.0}, grid
        )
        numeric = auxode.solve_ep_numeric(prof, closed.rho[0], closed.rho_dot[0], grid)
        assert np.max(np.abs(closed.rho - numeric.rho) / closed.rho) < 1e-6
        assert np.max(np.abs(closed.rho_dot - numeric.rho_dot)) < 1e-6

    def test_pinney_zero_wronskian(self):
        with pytest.raises(SingularParameter):
            auxode.ep_closed_form(
                "pinney_constant",
                {"omega": 1.0, "nu": 1.0, "c1": 1.0, "s1": 0.0, "c2": 2.0, "s2": 0.0},
                1.0,
            )

    def test_bessel_exponential_residual(self):
        tau, alpha, kappa = 1.0, 0.1, 1.0
        T = math.log(1.0 + 4 * math.pi * alpha / tau) / alpha
        a1 = math.sqrt(math.pi * kappa / (2 * alpha))
        prof = make_profile(
            "exponential-frequency", {"tau": tau, "alpha": alpha},
            kappa=kappa, t0=0.0, t1=T + 1.0,
        )
        grid = np.linspace(0.0, T, 400)
        sol = auxode.closed_form_solution(
            "bessel_exponential",
            {"tau": tau, "alpha": alpha, "A1": a1, "kappa": kappa},
            grid,
        )
        assert max_residual(auxode.ep_residual_pointwise(sol, prof)) < 1e-8

    def test_bessel_exponential_closed_vs_numeric(self):
        # generic A1 (strongly oscillating member of the family)
        tau, alpha = 1.0, 0.1
        prof = make_profile(
            "exponential-frequency", {"tau": tau, "alpha": alpha}, kappa=1.0, t0=0.0, t1=9.0
        )
        grid = np.linspace(0.0, 8.0, 300)
        sol = auxode.closed_form_solution(
            "bessel_exponential",
            {"tau": tau, "alpha": alpha, "A1": 1.0, "kappa": 1.0},
            grid,
        )
        numeric = auxode.solve_ep_numeric(prof, sol.rho[0], sol.rho_dot[0], grid)
        assert np.max(np.abs(sol.rho - numeric.rho) / sol.rho) < 1e-7

    def test_bessel_exponential_singular_params(self):
        with pytest.raises(SingularParameter):
            auxode.ep_closed_form(
                "bessel_exponential", {"tau": 1.0, "alpha": 0.1, "A1": 0.0}, 1.0
            )
        with pytest.raises(SingularParameter):
            auxode.ep_closed_form(
                "bessel_exponential", {"tau": 1.0, "alpha": -0.1, "A1": 1.0}, 1.0
            )

    def test_yermakov_quadrature_matches_cotangent_oracle(self):
        # independent route: integral_0^t du / s(u)^2 with
        # s = R sin(alpha u + phi) has antiderivative -cot(alpha u + phi)/(alpha R^2)
        al, kap, d1, e1, e2 = 1.0, 1.3, 0.7, 1.0, 0.5
        params = {"alpha": al, "kappa": kap, "d1": d1, "e1": e1, "e2": e2}
        phase = math.atan2(e2, e1)
        r_sq = e1 * e1 + e2 * e2
        t = np.linspace(0.05, 2.3, 37)
        inner = (1.0 / math.tan(phase) - 1.0 / np.tan(al * t + phase)) / (al * r_sq)
        s = e1 * np.sin(al * t) + e2 * np.cos(al * t)
        d2 = d1 / kap
        y_sq = kap * s**2 / d1 + (s**2 / d2) * (d2 + d1 * inner) ** 2
        rho_oracle = np.exp(0.5 * al * t) * np.sqrt(y_sq)
        rho, _ = auxode.ep_closed_form("yermakov_dissipative", params, t)
        assert np.max(np.abs(rho - rho_oracle) / rho_oracle) < 1e-12

    def test_yermakov_residual_and_numeric(self):
        al, kap = 1.0, 1.3
        params = {"alpha": al, "kappa": kap, "d1": 1.0, "e1": 1.0, "e2": 1.0}
        prof = make_profile(
            "exponential-mass", {"alpha": al, "omega": math.sqrt(5) / 2 * al},
            kappa=kap, t0=0.0, t1=2.1,
        )
        grid = np.linspace(0.0, 2.0, 400)
        sol = auxode.closed_form_solution("yermakov_dissipative", params, grid)
        assert max_residual(auxode.ep_residual_pointwise(sol, prof)) < 1e-7
        numeric = auxode.solve_ep_numeric(prof, sol.rho[0], sol.rho_dot[0], grid)
        assert np.max(np.abs(sol.rho - numeric.rho) / sol.rho) < 1e-7

    def test_yermakov_root_in_window_rejected(self):
        # s = sin t + 0.5 cos t vanishes at pi - atan2(0.5, 1) ~ 2.678
        params = {"alpha": 1.0, "kappa": 1.0, "d1": 1.0, "e1": 1.0, "e2": 0.5}
        with pytest.raises(SingularParameter):
            auxode.ep_closed_form("yermakov_dissipative", params, 3.0)

    def test_yermakov_s_zero_at_origin_rejected(self):
        params = {"alpha": 1.0, "kappa": 1.0, "d1": 1.0, "e1": 1.0, "e2": 0.0}
        with pytest.raises(SingularParameter):
            auxode.ep_closed_form("yermakov_dissipative", params, 1.0)

    def test_yermakov_inconsistent_d2_rejected(self):
        params = {"alpha": 1.0, "kappa": 2.0, "d1": 1.0, "e1": 1.0, "e2": 1.0,
                  "d2": 1.0}  # would need d2 = 0.5
        with pytest.raises(ValueError, match="d2"):
            auxode.ep_closed_form("yermakov_dissipative", params, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedKind):
            auxode.ep_closed_form("airy", {}, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        omega=st.floats(0.5, 3.0),
        nu=st.floats(0.5, 3.0),
        phase=st.floats(0.0, 3.0),
    )
    def test_pair_invariant_is_conserved(self, omega, nu, phase):
        # for any solution v of v'' + omega^2 v = 0 and the closed-form rho,
        # (v rho' - v' rho)^2 + nu^2 (v / rho)^2 is time-independent
        t = np.linspace(0.0, 4.0, 17)
        rho, rho_dot = auxode.ep_closed_form(
            "pinney_constant", {"omega": omega, "nu": nu}, t
        )
        v = np.cos(omega * t + phase)
        v_dot = -omega * np.sin(omega * t + phase)
        inv = (v * rho_dot - v_dot * rho) ** 2 + nu**2 * (v / rho) ** 2
        assert np.max(inv) - np.min(inv) < 1e-9 * np.max(inv)


# (kind, params, M(t)) for the closed-form phase and derivative checks
_CLOSED_CASES = [
    ("pinney_constant", {"omega": 1.3, "nu": 2.0, "kappa": 2.0, "c2": 0.35}, lambda t: 1.0 + 0 * t),
    # negative Wronskian: the e^{-i omega t} term of v1 + i (nu/W) v2 dominates
    ("pinney_constant",
     {"omega": 1.0, "tau": 2.0, "kappa": 1.4, "c1": 0.3, "s1": 1.0, "c2": 1.0, "s2": 0.2},
     lambda t: 2.0 + 0 * t),
    ("bessel_exponential", {"tau": 1.0, "alpha": 0.3, "A1": 1.0, "kappa": 1.0},
     lambda t: 1.0 + 0 * t),
    # alpha < 0: x(t) falls, the zeros of J0 are crossed downwards
    ("bessel_exponential", {"tau": -3.0, "alpha": -0.2, "A1": 0.7, "kappa": 1.3},
     lambda t: 1.0 + 0 * t),
    ("yermakov_dissipative", {"alpha": 1.0, "kappa": 1.3, "d1": 0.7, "e1": 1.0, "e2": 0.5},
     lambda t: np.exp(-t)),
]


def _composite_gauss_theta(kind, params, mass, t):
    """integral of kappa/(M rho^2) from t[0] by 64-node Gauss-Legendre on
    each grid interval, independent of the panel rule in auxode."""
    x, w = np.polynomial.legendre.leggauss(64)
    a, b = t[:-1, None], t[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
    rho, _ = auxode.ep_closed_form(kind, params, nodes.ravel())
    f = params["kappa"] / (mass(nodes) * rho.reshape(nodes.shape) ** 2)
    return np.concatenate(([0.0], np.cumsum(0.5 * (b - a)[:, 0] * (f @ w))))


class TestPhase:
    @pytest.mark.parametrize("kind, params, mass", _CLOSED_CASES)
    def test_closed_form_theta_matches_gauss(self, kind, params, mass):
        t_end = 2.0 if kind == "yermakov_dissipative" else 10.0
        t = np.linspace(0.0, t_end, 321)
        sol = auxode.closed_form_solution(kind, params, t)
        ref = _composite_gauss_theta(kind, params, mass, t)
        assert np.max(np.abs(sol.theta_fn(t) - ref)) < 1e-12 * max(1.0, ref[-1])
        # theta is taken from grid[0], whatever the times asked at
        assert sol.theta_fn(t[0]) == 0.0
        np.testing.assert_array_equal(sol.theta_fn(t[::37]), sol.theta_fn(t)[::37])

    @pytest.mark.parametrize("kind, params, mass", _CLOSED_CASES)
    def test_closed_form_rho_dot_is_the_derivative(self, kind, params, mass):
        # 4th-order central difference: truncation ~h^4, roundoff ~1e-16/h
        t = np.linspace(0.1, 1.9 if kind == "yermakov_dissipative" else 9.9, 37)
        h = 1e-4
        rho_of = lambda u: auxode.ep_closed_form(kind, params, u)[0]  # noqa: E731
        fd = (
            8.0 * (rho_of(t + h) - rho_of(t - h)) - (rho_of(t + 2 * h) - rho_of(t - 2 * h))
        ) / (12.0 * h)
        _, rho_dot = auxode.ep_closed_form(kind, params, t)
        assert np.max(np.abs(rho_dot - fd)) < 1e-9 * np.max(np.abs(rho_of(t)))

    def test_numeric_theta_matches_closed_form(self):
        prof = _const_profile(omega=1.3, kappa=2.0)
        grid = np.linspace(0.0, 10.0, 401)
        closed = auxode.closed_form_solution(
            "pinney_constant", {"omega": 1.3, "nu": 2.0, "c2": 0.35}, grid
        )
        numeric = auxode.solve_ep_numeric(prof, closed.rho[0], closed.rho_dot[0], grid)
        assert np.max(np.abs(numeric.theta_fn(grid) - closed.theta_fn(grid))) < 1e-9
        # whole panels are summed once, so a time's theta does not depend on
        # the other times asked at
        t = np.array([0.0, 3.3, 7.77, 10.0])
        np.testing.assert_array_equal(numeric.theta_fn(t)[1:3], numeric.theta_fn(t[1:3]))
        with pytest.raises(OutOfDomain):
            numeric.theta_fn(10.5)

    def test_panel_rule_refuses_a_kink(self):
        f = lambda t: np.abs(t - 0.3)  # noqa: E731
        with pytest.raises(IntegralNonConvergent):
            auxode.running_integral(f, [0.0, 1.0])
        F = auxode.running_integral(f, [0.0, 0.3, 1.0])
        assert F(1.0) == pytest.approx(0.045 + 0.245, rel=1e-14)


class TestEnvelope:
    def test_envelope_on_the_grid_is_the_samples(self):
        prof = make_profile(
            "sinusoidal", {"omega0": 1.2, "depth": 0.3, "rate": 0.7}, q=1.0, B=0.9, t1=6.0
        )
        grid = np.linspace(0.0, 6.0, 61)
        solutions = [
            auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid),
            auxode.closed_form_solution("pinney_constant", {"omega": 1.0, "nu": 2.0}, grid),
            auxode.stationary_solution(_const_profile(), grid),
        ]
        for aux in solutions:
            rho, rho_dot = aux.envelope_fn(aux.grid)
            np.testing.assert_array_equal(rho, aux.rho)
            np.testing.assert_array_equal(rho_dot, aux.rho_dot)
            np.testing.assert_array_equal(aux.rho_at(aux.grid), aux.rho)


def _one_step(run, k, t):
    """Step k of a run alone at the float time t, in Python arithmetic: the
    Horner scheme of the DOP853 dense output on that step's rows."""
    x = (t - run.t[k]) / (run.t[k + 1] - run.t[k])
    out = []
    for i, y_old in enumerate(run.y[k]):
        y = 0.0
        for j, row in enumerate(reversed(run.F[k])):
            y = (y + row[i]) * (x if j % 2 == 0 else 1 - x)
        out.append(y + y_old)
    return out


def _pieces(kind, which):
    prof = kind_profile(kind)
    edges = auxode._panel_edges([0.0, 12.0], prof)
    if which == "auxiliary":
        rhs, y0 = auxode._ep_rhs(prof), list(auxode.default_initial_conditions(prof))
    else:
        rhs, y0 = auxode._classical_rhs(prof), [0.8 - 0.3j, 0.2 + 0.5j]
    return rhs, auxode._solve_pieces(rhs, y0, edges, which)


class TestStepper:
    """The package's DOP853 runs, piece by piece, against scipy's DOP853 at
    the same tolerances."""

    # Measured worst over the ten kind/equation pairs, on one x86-64 machine:
    # step ends 6.7e-2 apart (exponential-mass auxiliary, which starts at a
    # rest point, so its first error estimates are rounding noise and the
    # two step sequences part there; 4.4e-5 on the others), states at the
    # package's step ends 3.9e-11 from scipy's dense output, relative to the
    # largest |y| of the piece (2e-13 on the others).  Bars: 1.5x and 2.5x.
    END_BAR = 0.1
    STATE_BAR = 1e-10

    @pytest.mark.parametrize("which", ["auxiliary", "classical"])
    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_matches_scipy_dop853(self, kind, which):
        rhs, pieces = _pieces(kind, which)
        assert len(pieces) == (24 if kind == "tabulated" else 1)
        for run in pieces:
            ref = solve_ivp(
                rhs, (run.t[0], run.t[-1]), run.y[0], method="DOP853",
                rtol=1e-11, atol=1e-13, dense_output=True,
            )
            assert ref.status == 0
            assert len(run.t) == ref.t.size
            assert np.max(np.abs(np.array(run.t) - ref.t)) <= self.END_BAR
            states = np.array(run.y).T
            expected = ref.sol(np.array(run.t))
            scale = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.max(np.abs(states - expected) / scale) <= self.STATE_BAR

    def test_nfev_counts_every_call(self):
        prof = kind_profile("sinusoidal")
        rhs, calls = auxode._ep_rhs(prof), []

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)

        run = auxode.solve_ivp(counted, (0.0, 12.0), list(auxode.default_initial_conditions(prof)))
        assert run.status == 0 and run.t[-1] == 12.0
        # the start, the initial-step probe, 12 per attempt, 3 dense stages per step
        assert run.nfev == len(calls)
        accepted = len(run.t) - 1
        assert run.nfev == 2 + 12 * (accepted + run.n_rejected) + 3 * accepted


def _node_times(ends, grid):
    """Every time array that ``running_integral`` on panels at ``ends``
    passes its integrand: the whole panels' nodes (30 per panel, unsorted
    within one), then the partial panels up to the grid times and up to the
    ends themselves (zero-width panels, whose nodes are all that end, but
    at the last end, which closes the last panel)."""
    asked = []

    def f(t):
        asked.append(t.copy())
        return np.zeros_like(t)

    F = auxode.running_integral(f, ends)
    F(grid)
    F(ends)
    return asked


class TestStackedDenseOutput:
    """The stacked evaluator against each step's own dense output and
    against the fancy-index evaluator it replaced."""

    @pytest.mark.parametrize("which", ["auxiliary", "classical"])
    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_matches_each_piece_bit_for_bit(self, kind, which):
        _, pieces = _pieces(kind, which)
        evaluate, ends = auxode._stacked_dense(pieces)
        steps = [(run, k) for run in pieces for k in range(len(run.t) - 1)]
        assert ends.size == len(steps) + 1
        # grid times and every step end; a time at a step end is read from
        # the step that ends there, across a knot too
        times = np.concatenate([np.linspace(0.0, 12.0, 401), ends])
        owner = np.clip(np.searchsorted(ends, times, side="left") - 1, 0, len(steps) - 1)
        expected = np.array([_one_step(*steps[j], float(t)) for j, t in zip(owner, times)]).T
        got = evaluate(times)
        assert got.dtype == (complex if which == "classical" else float)
        np.testing.assert_array_equal(got, expected)
        for j in range(0, times.size, 37):
            np.testing.assert_array_equal(evaluate(times[j]), expected[:, j])
        square = times[: (times.size // 8) * 8].reshape(8, -1)
        np.testing.assert_array_equal(
            evaluate(square), expected[:, : square.size].reshape(2, *square.shape)
        )

    @pytest.mark.parametrize("which", ["auxiliary", "classical"])
    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_float_time_is_the_array_path(self, kind, which):
        # a single float time, Python or numpy, takes the Python-arithmetic
        # path: the bytes, dtype and shape of the array path at that time
        _, pieces = _pieces(kind, which)
        evaluate, ends = auxode._stacked_dense(pieces)
        rng = np.random.default_rng(11)
        times = np.concatenate([ends, 0.5 * (ends[1:] + ends[:-1]), rng.uniform(0.0, 12.0, 200)])
        for t in times:
            want = evaluate(np.asarray(t))
            assert want.shape == (2,) and want.dtype == (complex if which == "classical" else float)
            for scalar in (float(t), t):
                got = evaluate(scalar)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (t, got, want)

    @pytest.mark.parametrize("which", ["auxiliary", "classical"])
    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_quadrature_nodes_are_the_reference_bits(self, kind, which):
        # the times theta's panels ask for, flat, one row per panel (2-D)
        # and one at a time as 0-d arrays
        _, pieces = _pieces(kind, which)
        evaluate, ends = auxode._stacked_dense(pieces)
        reference, _ = stacked_dense_reference(pieces)
        steps = [(run, k) for run in pieces for k in range(len(run.t) - 1)]
        asked = _node_times(ends, np.linspace(0.0, 12.0, 401))
        assert len(asked) == 3 and np.isin(ends[:-1], asked[2]).all()
        for nodes in asked:
            got = evaluate(nodes)
            assert got.shape == (2, nodes.size)
            assert got.tobytes() == reference(nodes).tobytes()
            owner = np.clip(np.searchsorted(ends, nodes, side="left") - 1, 0, len(steps) - 1)
            one_step = [_one_step(*steps[j], t) for j, t in zip(owner, nodes.tolist())]
            assert got.tobytes() == np.array(one_step, dtype=got.dtype).T.tobytes()
            panels = nodes.reshape(-1, auxode._PANEL_NODES.size)
            square = evaluate(panels)
            assert square.shape == (2, *panels.shape)
            assert square.tobytes() == reference(panels).tobytes() == got.tobytes()
            for j in range(0, nodes.size, 13):
                zero_d = evaluate(nodes[j].reshape(()))
                assert zero_d.shape == (2,)
                assert zero_d.tobytes() == reference(nodes[j].reshape(())).tobytes()
                assert zero_d.tobytes() == got[:, j].tobytes()

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_theta_and_gamma_are_the_reference_bits(self, kind, monkeypatch):
        prof = kind_profile(kind)
        grid = np.linspace(0.0, 12.0, 401)
        q = spectrum.HelicityQuanta(2, 1)

        def theta_and_gamma():
            aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
            return aux.theta_fn(grid), spectrum.phase_gamma(q, prof, aux, grid).gamma

        got = theta_and_gamma()
        monkeypatch.setattr(auxode, "_stacked_dense", stacked_dense_reference)
        want = theta_and_gamma()
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_solution_reads_the_stacked_pieces(self, kind):
        prof = kind_profile(kind)
        _, pieces = _pieces(kind, "auxiliary")
        evaluate, ends = auxode._stacked_dense(pieces)
        grid = np.linspace(0.0, 12.0, 41)
        aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        np.testing.assert_array_equal(aux.panels, ends)
        np.testing.assert_array_equal(np.stack(aux.envelope_fn(ends)), evaluate(ends))
        np.testing.assert_array_equal(aux.rho, evaluate(grid)[0])


class TestTabulatedAccuracy:
    """Knot-to-knot pieces against the rtol 1e-13 knot-restarted reference."""

    grid = np.linspace(0.0, 12.0, 401)

    def test_envelope(self):
        prof = kind_profile("tabulated")
        y0 = auxode.default_initial_conditions(prof)
        aux = auxode.solve_ep_numeric(prof, *y0, self.grid)
        ref = knot_restarted(lambda t, y: ep_rates(prof, t, *y), list(y0), prof, self.grid)
        assert np.max(np.abs(aux.rho - ref[0]) / ref[0]) <= 1e-11

    def test_classical(self):
        prof = kind_profile("tabulated")
        z0, zd0 = 0.8 - 0.3j, 0.2 + 0.5j

        def rhs(t, y):
            e0 = prof.q * complex(prof.efield2(t) + 1j * prof.efield1(t)) / float(prof.mass(t))
            omega = float(prof.omega(t))
            return [y[1], e0 - 1j * float(prof.omega_c(t)) * y[1] - omega * omega * y[0]]

        traj = auxode.classical_trajectory(prof, z0, zd0, self.grid)
        ref = knot_restarted(rhs, [z0, zd0], prof, self.grid)
        assert np.max(np.abs(traj.z - ref[0])) <= 1e-10


def _field_table_profile():
    params = dict(KIND_PARAMS["tabulated"])
    t = params["t"]
    params["E1"] = 0.2 * (1.0 + 0.3 * np.sin(0.7 * t))
    params["E2"] = -0.1 + 0.1 * np.cos(0.4 * t)
    return make_profile("tabulated", params, q=1.0, B=0.9, kappa=1.0, t0=0.0, t1=12.0)


def _ppoly_calls(prof):
    """The same tabulated profile with every table read by scipy's PPoly
    call, the evaluator the float path reproduces."""
    t = np.asarray(prof.params["t"], dtype=float)

    def call(ip):
        return lambda x: ip(np.asarray(x, dtype=float))

    mass_ip = PchipInterpolator(t, prof.params["M"])
    fields = {
        attr: call(PchipInterpolator(t, prof.params[name]))
        for attr, name in (("efield1", "E1"), ("efield2", "E2"))
        if np.ndim(prof.params[name])
    }
    return dataclasses.replace(
        prof,
        mass=call(mass_ip),
        mass_rate=call(mass_ip.derivative()),
        omega=call(PchipInterpolator(t, prof.params["omega"])),
        **fields,
    )


class TestTabulatedFloatPath:
    """The solvers give the same bits whether the right-hand sides read the
    tables through the float path or through scipy's PPoly call."""

    grid = np.linspace(0.0, 12.0, 401)

    @pytest.mark.parametrize("make", [lambda: kind_profile("tabulated"), _field_table_profile])
    def test_solutions_are_bit_identical(self, make):
        fast = make()
        slow = _ppoly_calls(fast)
        y0 = auxode.default_initial_conditions(fast)
        a = auxode.solve_ep_numeric(fast, *y0, self.grid)
        b = auxode.solve_ep_numeric(slow, *y0, self.grid)
        for x, y in (
            (a.rho, b.rho),
            (a.rho_dot, b.rho_dot),
            (auxode.ep_residual_pointwise(a, fast), auxode.ep_residual_pointwise(b, slow)),
        ):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.theta_fn(self.grid), b.theta_fn(self.grid))
        za = auxode.classical_trajectory(fast, 0.8 - 0.3j, 0.2 + 0.5j, self.grid)
        zb = auxode.classical_trajectory(slow, 0.8 - 0.3j, 0.2 + 0.5j, self.grid)
        for x, y in (
            (za.z, zb.z),
            (za.z_dot, zb.z_dot),
            (auxode.classical_residual_pointwise(za, fast),
             auxode.classical_residual_pointwise(zb, slow)),
        ):
            np.testing.assert_array_equal(x, y)


class TestResidual:
    def test_grid_too_short(self):
        prof = _const_profile()
        sol = auxode.stationary_solution(prof, np.linspace(0.0, 1.0, 3))
        with pytest.raises(GridTooShort):
            auxode.ep_residual_pointwise(sol, prof)

    def test_residual_detects_perturbation(self):
        prof = _const_profile(omega=1.0, kappa=2.0)
        grid = np.linspace(0.0, 2 * math.pi, 400)
        sol = auxode.closed_form_solution(
            "pinney_constant", {"omega": 1.0, "nu": 2.0}, grid
        )
        base = max_residual(auxode.ep_residual_pointwise(sol, prof))
        sol.rho = sol.rho * (1.0 + 1e-4 * np.sin(5.0 * grid))
        assert max_residual(auxode.ep_residual_pointwise(sol, prof)) > 100.0 * max(base, 1e-9)

    def test_pointwise_layout(self):
        prof = _const_profile()
        grid = np.linspace(0.0, 1.0, 9)
        sol = auxode.stationary_solution(prof, grid)
        res = auxode.ep_residual_pointwise(sol, prof)
        assert res.shape == grid.shape
        assert np.all(np.isnan(res[:2])) and np.all(np.isnan(res[-2:]))
        assert np.all(np.isfinite(res[2:-2]))

    def test_tabulated_stencils_across_knots_are_masked(self):
        # rho'' and z'' jump at a C^1 knot; a stencil across one measures
        # its own truncation, so those samples are NaN and the maxima
        # measure the solution
        prof = kind_profile("tabulated")
        grid = np.linspace(0.0, 12.0, 401)
        aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        traj = auxode.classical_trajectory(prof, 0.8 - 0.3j, 0.2 + 0.5j, grid)
        lo, hi = grid[:-4], grid[4:]
        crosses = np.array([np.any((prof.knots > a) & (prof.knots < b)) for a, b in zip(lo, hi)])
        assert crosses.sum() == 85
        for res in (auxode.ep_residual_pointwise(aux, prof),
                    auxode.classical_residual_pointwise(traj, prof)):
            np.testing.assert_array_equal(np.isnan(res[2:-2]), crosses)
            assert max_residual(res) <= 1e-6

    def test_no_stencil_left_gives_nan_without_warning(self):
        prof = kind_profile("tabulated")
        grid = np.linspace(0.3, 0.7, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
            traj = auxode.classical_trajectory(prof, 1.0, 0.0, grid)
            res_aux = auxode.ep_residual_pointwise(aux, prof)
            res_traj = auxode.classical_residual_pointwise(traj, prof)
            assert math.isnan(max_residual(res_aux)) and math.isnan(max_residual(res_traj))


# grids in hundredths of the kind profiles' window [0, 12], strictly increasing
def _ticks(min_size, max_size=12):
    return st.lists(st.integers(0, 1200), min_size=min_size, max_size=max_size, unique=True).map(
        sorted
    )


@st.composite
def _malformed_grid(draw):
    """(grid, the error it must raise), one draw per way a grid is malformed."""
    grid = [k / 100 for k in draw(_ticks(3))]
    how = draw(st.sampled_from(["nonfinite", "decreasing", "unsorted", "repeated", "1 point", "2-D"]))
    if how == "nonfinite":
        i = draw(st.integers(0, len(grid) - 1))
        grid[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif how == "decreasing":
        grid = grid[::-1]
    elif how == "unsorted":
        grid = draw(st.permutations(grid).filter(lambda g: g != sorted(g)))
    elif how == "repeated":
        i = draw(st.integers(0, len(grid) - 1))
        grid.insert(i, grid[i])
    elif how == "1 point":
        return np.array(grid[:1]), GridTooShort
    else:
        return np.array(grid)[:, None], GridTooShort
    return np.array(grid), ValueError


def _solve_both(prof, grid):
    aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
    traj = auxode.classical_trajectory(prof, 0.8 - 0.3j, 0.2 + 0.5j, grid)
    return aux, traj


class TestGridContract:
    """One grid rule for both equations of motion, and one stencil rule for
    both residuals, on every profile kind."""

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @settings(max_examples=30, deadline=None)
    @given(case=_malformed_grid())
    @example(case=(np.linspace(6.0, 0.0, 61), ValueError))
    @example(case=(np.array([0.0, math.nan, 2.0, 3.0, 4.0]), ValueError))
    @example(case=(np.array([0.5]), GridTooShort))
    def test_malformed_grid_is_an_input_error(self, kind, case):
        grid, error = case
        prof = kind_profile(kind)
        with pytest.raises(error):
            auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        with pytest.raises(error):
            auxode.classical_trajectory(prof, 0.8 - 0.3j, 0.2 + 0.5j, grid)

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @settings(max_examples=8, deadline=None)
    @given(ticks=_ticks(2))
    def test_the_start_is_the_state_at_the_first_time(self, kind, ticks):
        prof = kind_profile(kind)
        aux, traj = _solve_both(prof, np.array(ticks) / 100)
        assert (aux.rho[0], aux.rho_dot[0]) == auxode.default_initial_conditions(prof)
        # the stepper starts from the given state; the constant kind's closed
        # form rounds it
        assert traj.z[0] == pytest.approx(0.8 - 0.3j, rel=1e-15, abs=0)
        assert traj.z_dot[0] == pytest.approx(0.2 + 0.5j, rel=1e-15, abs=0)

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @settings(max_examples=8, deadline=None)
    @given(ticks=st.one_of(_ticks(2, 4), _ticks(5).filter(lambda k: len(set(np.diff(k))) > 1)))
    @example(ticks=sorted(set(range(0, 1201, 100)) | set(range(31, 1201, 100))))
    def test_residual_stencil_needs_five_uniform_samples(self, kind, ticks):
        prof = kind_profile(kind)
        aux, traj = _solve_both(prof, np.array(ticks) / 100)
        error = GridTooShort if len(ticks) < 5 else ValueError
        with pytest.raises(error):
            auxode.ep_residual_pointwise(aux, prof)
        with pytest.raises(error):
            auxode.classical_residual_pointwise(traj, prof)


# the three closed forms, each valid on [0, 2]
_SPAN_CLOSED = {
    "pinney_constant": {"omega": 1.3, "nu": 2.0, "kappa": 2.0, "c2": 0.35},
    "bessel_exponential": {"tau": 1.0, "alpha": 0.3, "A1": 1.0, "kappa": 1.0},
    "yermakov_dissipative": {"alpha": 1.0, "kappa": 1.3, "d1": 0.7, "e1": 1.0, "e2": 0.5},
}
SPAN_LABELS = sorted(KIND_PARAMS) + sorted(_SPAN_CLOSED) + ["stationary"]


def span_solution(label, grid):
    """The solution called ``label`` on ``grid``: the numeric route on a
    profile kind (window [0, 12]), a closed form, or the stationary solution
    of a constant profile on [0, 12]."""
    if label in KIND_PARAMS:
        prof = kind_profile(label)
        return auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
    if label in _SPAN_CLOSED:
        return auxode.closed_form_solution(label, _SPAN_CLOSED[label], grid)
    return auxode.stationary_solution(_const_profile(t1=12.0), grid)


def _sub_span_grid(label):
    """A grid well inside its model's window: [1.5, 4.5], or [0.2, 1.8] for
    the closed forms."""
    return np.linspace(0.2, 1.8, 17) if label in _SPAN_CLOSED else np.linspace(1.5, 4.5, 31)


@functools.lru_cache(maxsize=None)
def sub_span_solution(label):
    return span_solution(label, _sub_span_grid(label))


def _theta_reference(label, sol, t):
    """theta at t inside the span, formed as the builder forms it."""
    lo = sol.grid[0]
    if label in KIND_PARAMS:
        prof = kind_profile(label)
        kappa, mass, envelope = prof.kappa, prof.mass, sol.envelope_fn
        return auxode.running_integral(
            lambda s: kappa / (mass(s) * envelope(s)[0] ** 2), sol.panels
        )(t)
    if label in _SPAN_CLOSED:
        theta = auxode._closed_form(label, _SPAN_CLOSED[label], np.array([lo, t]))[2]
        return theta[1] - theta[0]
    prof = _const_profile(t1=12.0)
    rho0 = auxode.default_initial_conditions(prof)[0]
    return prof.kappa / (float(prof.mass(prof.t0)) * rho0 * rho0) * (t - lo)


class TestSpanContract:
    """A solution answers only on the span it was solved on, whichever
    builder made it, and every builder applies the one grid rule."""

    @pytest.mark.parametrize("label", SPAN_LABELS)
    @settings(max_examples=15, deadline=None)
    @given(
        past=st.one_of(
            st.floats(1e-9, 1e300).flatmap(lambda d: st.sampled_from([-d, d])),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
        as_array=st.booleans(),
    )
    @example(past=math.nan, as_array=False)
    @example(past=1e-9, as_array=False)
    def test_times_off_the_span_are_refused(self, label, past, as_array):
        sol = sub_span_solution(label)
        lo, hi = sol.grid[0], sol.grid[-1]
        t = (hi if past >= 0 else lo) + past if math.isfinite(past) else past
        # one bad time among good ones spoils the array
        times = np.array([lo, t, hi]) if as_array else t
        for read in (sol.envelope_fn, sol.theta_fn, sol.rho_at):
            with pytest.raises(OutOfDomain, match="outside solution grid"):
                read(times)

    @pytest.mark.parametrize("label", SPAN_LABELS)
    @settings(max_examples=6, deadline=None)
    @given(u=st.floats(0.0, 1.0), edge=st.sampled_from([0.0, -0.5, 0.5]))
    def test_times_on_the_span_keep_their_values(self, label, u, edge):
        sol = sub_span_solution(label)
        lo, hi = sol.grid[0], sol.grid[-1]
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        t = float(min(max(lo + u * (hi - lo), lo), hi))
        # the samples of a solution on a grid through t are the builder's
        # own evaluator at t, bit for bit
        other = span_solution(label, np.union1d(sol.grid, [t]))
        k = int(np.searchsorted(other.grid, t))
        assert tuple(map(float, sol.envelope_fn(t))) == (other.rho[k], other.rho_dot[k])
        assert float(sol.rho_at(t)) == other.rho[k]
        assert float(sol.theta_fn(t)) == float(_theta_reference(label, sol, t))
        # within the window rule's tolerance of an end is still on the span
        for end in (lo - edge * tol, hi + edge * tol):
            sol.envelope_fn(end)
            sol.theta_fn(np.array([end]))

    @settings(max_examples=20, deadline=None)
    @given(case=_malformed_grid())
    @example(case=(np.array([0.0, math.nan, 2.0]), ValueError))
    @example(case=(np.array([0.0, math.nan, 20.0]), ValueError))
    @example(case=(np.linspace(2.0, 0.0, 5), ValueError))
    @example(case=(np.array([1.0]), GridTooShort))
    def test_every_builder_applies_the_grid_rule(self, case):
        grid, error = case
        with pytest.raises(error):
            auxode.closed_form_solution("pinney_constant", {"omega": 1.0, "nu": 2.0}, grid)
        with pytest.raises(error):
            auxode.stationary_solution(_const_profile(t1=12.0), grid)

    def test_stationary_grid_must_lie_in_the_window(self):
        prof = _const_profile(t1=12.0)
        with pytest.raises(OutOfDomain, match="outside profile window"):
            auxode.stationary_solution(prof, [0.0, 1.0, 20.0])
        with pytest.raises(OutOfDomain, match="outside profile window"):
            auxode.stationary_solution(prof, [-1.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# classical trajectory
# ---------------------------------------------------------------------------

class TestClassical:
    def test_free_oscillator_half_turn(self):
        # omega = 1, B = 0, z(0) = 1, z'(0) = -i picks the pure
        # exp(-i t) branch, so z(pi) = -1
        prof = _const_profile()
        grid = np.linspace(0.0, math.pi, 201)
        traj = auxode.classical_trajectory(prof, 1.0, -1.0j, grid)
        assert traj.z[-1] == pytest.approx(-1.0, abs=1e-12)
        assert max_residual(auxode.classical_residual_pointwise(traj, prof)) < 1e-8

    def test_static_drive_fixed_point(self):
        # z_p = E0/omega^2 = 1 and matching initial data freeze the motion
        prof = _const_profile(q=1.0, E2=1.0)
        grid = np.linspace(0.0, 6.0, 101)
        traj = auxode.classical_trajectory(prof, 1.0, 0.0, grid)
        assert np.max(np.abs(traj.z - 1.0)) < 1e-12
        assert np.max(np.abs(traj.z_dot)) < 1e-12

    def test_constant_closed_form_vs_numeric_route(self):
        # a zero-depth sinusoidal profile has the same physics but goes
        # through the ODE integrator: both routes must agree
        prof_closed = _const_profile(q=1.0, B=1.5, omega=1.2, E1=0.3, E2=-0.2)
        prof_numeric = make_profile(
            "sinusoidal",
            {"omega0": 1.2, "depth": 0.0, "rate": 1.0, "M": 1.0, "E1": 0.3, "E2": -0.2},
            q=1.0, B=1.5, t0=0.0, t1=10.0,
        )
        grid = np.linspace(0.0, 9.0, 301)
        z0, zd0 = 0.7 - 0.4j, 0.1 + 0.2j
        a = auxode.classical_trajectory(prof_closed, z0, zd0, grid)
        b = auxode.classical_trajectory(prof_numeric, z0, zd0, grid)
        assert np.max(np.abs(a.z - b.z)) < 1e-9
        assert np.max(np.abs(a.z_dot - b.z_dot)) < 1e-9

    def test_time_dependent_residual(self):
        prof = make_profile(
            "sinusoidal",
            {"omega0": 1.0, "depth": 0.3, "rate": 2.0, "M": 1.0, "E1": 0.2},
            q=1.0, B=0.5, t0=0.0, t1=10.0,
        )
        grid = np.linspace(0.0, 2 * math.pi, 400)
        traj = auxode.classical_trajectory(prof, 1.0 + 0.5j, -0.3j, grid)
        # the bound is the stencil truncation floor (h^4/90) |z^(6)|, not
        # integrator accuracy; the modulated drive pumps high harmonics
        assert max_residual(auxode.classical_residual_pointwise(traj, prof)) < 1e-6

    def test_zero_frequency_particular_guard(self):
        prof = _degenerate_zero_omega_profile()
        with pytest.raises(ZeroFrequencyParticular):
            auxode.classical_trajectory(prof, 1.0, 0.0, np.linspace(0.0, 1.0, 10))

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @pytest.mark.parametrize(
        "z0, z_dot0, name",
        [
            (complex(math.nan, 0.0), 0.0, "z0"),
            (1.0, complex(0.0, math.inf), "z_dot0"),
            (1.0, complex(math.nan, math.nan), "z_dot0"),
        ],
    )
    def test_nonfinite_start_rejected(self, kind, z0, z_dot0, name):
        # the closed form of the constant kind would return NaN rows, the
        # stepper of the others would stop on a NaN step size
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            auxode.classical_trajectory(kind_profile(kind), z0, z_dot0, np.linspace(0.0, 1.0, 9))


# ---------------------------------------------------------------------------
# gauge map
# ---------------------------------------------------------------------------

class TestGauge:
    def test_shift_values(self):
        # q = 1, M = 1, omega = 1, B = 2, E1 = 0.3, E2 = 0:
        # x = x1 + 0.3, y = x2, px = p1, py = p2 - 0.3
        prof = _const_profile(q=1.0, B=2.0, E1=0.3)
        x, y, px, py = auxode.gauge_map(prof, 1.0, 0.1, 0.2, 0.3, 0.4)
        assert x == pytest.approx(0.4)
        assert y == pytest.approx(0.2)
        assert px == pytest.approx(0.3)
        assert py == pytest.approx(0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        x1=st.floats(-3, 3), x2=st.floats(-3, 3),
        p1=st.floats(-3, 3), p2=st.floats(-3, 3),
        e1=st.floats(-2, 2), e2=st.floats(-2, 2),
    )
    def test_round_trip(self, x1, x2, p1, p2, e1, e2):
        prof = _const_profile(q=1.3, B=0.8, omega=1.1, M=1.7, E1=e1, E2=e2)
        fwd = auxode.gauge_map(prof, 2.0, x1, x2, p1, p2)
        back = auxode.gauge_map_inverse(prof, 2.0, *fwd)
        np.testing.assert_allclose(back, [x1, x2, p1, p2], atol=1e-13)
        # the shift is exactly the explicit formula, in both directions
        q, B, denom = 1.3, 0.8, 1.7 * 1.1**2
        assert fwd == (
            x1 + q * e1 / denom,
            x2 + q * e2 / denom,
            p1 - q**2 * B * e2 / (2.0 * denom),
            p2 - q**2 * B * e1 / (2.0 * denom),
        )
        assert auxode.gauge_map_inverse(prof, 2.0, x1, x2, p1, p2) == (
            x1 - q * e1 / denom,
            x2 - q * e2 / denom,
            p1 + q**2 * B * e2 / (2.0 * denom),
            p2 + q**2 * B * e1 / (2.0 * denom),
        )

    def test_zero_frequency_guard(self):
        prof = _degenerate_zero_omega_profile()
        with pytest.raises(ZeroFrequency):
            auxode.gauge_map(prof, 0.5, 0.0, 0.0, 0.0, 0.0)
