"""Tests for spectra, wavefunctions, phases and operator matrices."""

import dataclasses
import math

import numpy as np
import pytest

from landau_td import auxode, spectrum
from landau_td.errors import CutoffTooSmall, IntegralNonConvergent, OutOfRange
from landau_td.profiles import make_profile
from landau_td.spectrum import HelicityQuanta
from reference import (
    KIND_PARAMS,
    ep_rates,
    kind_profile,
    knot_restarted,
    laguerre_function_mp,
    max_residual,
)


def _static_setup(M=1.0, omega=1.0, q=0.0, B=0.0, kappa=1.0, E1=0.0, E2=0.0):
    prof = make_profile(
        "constant", {"M": M, "omega": omega, "E1": E1, "E2": E2},
        q=q, B=B, kappa=kappa, t0=0.0, t1=10.0,
    )
    aux = auxode.stationary_solution(prof, np.linspace(0.0, 10.0, 21))
    return prof, aux


def _reference_gamma(prof, q, grid):
    """gamma by the knot-restarted reference, carried as a third component
    next to (rho, rho_dot)."""
    kap, n_sum = prof.kappa, q.total + 1

    def rhs(t, y):
        M = float(prof.mass(t))
        drive = prof.q**2 * float(prof.efield_sq(t)) / (2.0 * M * float(prof.omega(t)))
        return [
            *ep_rates(prof, t, y[0], y[1]),
            -kap * n_sum / (M * y[0] ** 2) - 0.5 * q.ell * float(prof.omega_c(t)) + drive,
        ]

    return knot_restarted(rhs, [*auxode.default_initial_conditions(prof), 0.0], prof, grid)[2]


def _moving_setup():
    # breathing pinney solution: rho oscillates, rho_dot != 0 between turns
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, kappa=2.0, t0=0.0, t1=10.0)
    grid = np.linspace(0.0, 2 * math.pi, 200)
    aux = auxode.closed_form_solution(
        "pinney_constant", {"omega": 1.0, "nu": 2.0}, grid
    )
    return prof, aux


class TestScalarSpectra:
    def test_invariant_eigenvalue(self):
        assert spectrum.invariant_eigenvalue(HelicityQuanta(2, 3), 1.0) == 6.0
        assert spectrum.invariant_eigenvalue(HelicityQuanta(0, 0), 1.7) == 1.7
        assert spectrum.invariant_eigenvalue(HelicityQuanta(1, 0), 2.0) == 4.0

    def test_quanta_derived_labels(self):
        q = HelicityQuanta(3, 1)
        assert q.ell == 2
        assert q.n_radial == 1
        assert q.total == 4
        with pytest.raises(ValueError):
            HelicityQuanta(-1, 0)

    def test_hamiltonian_expectation_static_ground(self):
        prof, aux = _static_setup()
        val = spectrum.hamiltonian_expectation(HelicityQuanta(0, 0), prof, aux, 1.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_hamiltonian_expectation_with_field(self):
        # omega_c = qB/M = 2, Omega = sqrt(2), stationary rho = 2^{-1/4}:
        # radial part 2 sqrt(2), angular part +(omega_c/2) ell = +1
        prof, aux = _static_setup(q=1.0, B=2.0)
        val = spectrum.hamiltonian_expectation(HelicityQuanta(1, 0), prof, aux, 0.5)
        assert val == pytest.approx(2.0 * math.sqrt(2.0) + 1.0, rel=1e-12)

    def test_hamiltonian_expectation_drive_shift(self):
        # q=1, |E|^2 = 2, M = omega = 1 shifts any level by -1
        base_prof, base_aux = _static_setup()
        prof, aux = _static_setup(q=1.0, E1=1.0, E2=1.0)
        for nq in ((0, 0), (2, 1)):
            a = spectrum.hamiltonian_expectation(HelicityQuanta(*nq), base_prof, base_aux, 2.0)
            b = spectrum.hamiltonian_expectation(HelicityQuanta(*nq), prof, aux, 2.0)
            assert b - a == pytest.approx(-1.0, rel=1e-12)

    def test_hamiltonian_expectation_array_is_per_time(self):
        # the spectrum CSV's energy column is one array call: each entry must
        # carry the bits of the scalar call at its time
        prof = kind_profile("sinusoidal")
        grid = np.linspace(0.0, 12.0, 61)
        numeric = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        cases = [(prof, numeric), _moving_setup(), _static_setup(q=1.0, B=2.0, E1=0.5)]
        q = HelicityQuanta(2, 1)
        for prof, aux in cases:
            times = np.linspace(prof.t0, min(prof.t1, aux.grid[-1]), 37)
            array = spectrum.hamiltonian_expectation(q, prof, aux, times)
            scalar = [spectrum.hamiltonian_expectation(q, prof, aux, float(t)) for t in times]
            np.testing.assert_array_equal(array, np.array(scalar))


class TestPhase:
    def test_static_ground_phase(self):
        prof, aux = _static_setup()
        grid = np.linspace(0.0, 1.0, 101)
        trace = spectrum.phase_gamma(HelicityQuanta(0, 0), prof, aux, grid)
        assert trace.gamma[0] == 0.0
        assert trace.gamma[-1] == pytest.approx(-1.0, abs=1e-12)
        assert trace.gamma_closed_form[-1] == pytest.approx(-0.5, abs=1e-12)

    def test_static_phase_tracks_energy(self):
        # for any level of the static oscillator gamma(t) = -<H> t
        prof, aux = _static_setup(q=1.0, B=2.0, E1=0.5)
        grid = np.linspace(0.0, 3.0, 301)
        for nq in ((1, 0), (0, 2)):
            quanta = HelicityQuanta(*nq)
            e_n = spectrum.hamiltonian_expectation(quanta, prof, aux, 0.0)
            trace = spectrum.phase_gamma(quanta, prof, aux, grid)
            assert trace.gamma[-1] == pytest.approx(-e_n * 3.0, rel=1e-12)

    def test_phase_is_cumulative(self):
        prof, aux = _moving_setup()
        grid = np.linspace(0.0, 5.0, 300)
        trace = spectrum.phase_gamma(HelicityQuanta(1, 1), prof, aux, grid)
        # split integration must agree with the one-shot run
        k = 120
        trace_a = spectrum.phase_gamma(HelicityQuanta(1, 1), prof, aux, grid[: k + 1])
        assert trace_a.gamma[-1] == pytest.approx(trace.gamma[k], rel=1e-12)


    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    def test_gamma_matches_tight_reference(self, kind):
        prof = kind_profile(kind)
        grid = np.linspace(0.0, 12.0, 401)
        aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        q = HelicityQuanta(2, 1)
        trace = spectrum.phase_gamma(q, prof, aux, grid)
        assert np.max(np.abs(trace.gamma - _reference_gamma(prof, q, grid))) < 1e-10

    def test_gamma_does_not_depend_on_the_grid(self):
        prof = kind_profile("sinusoidal")
        aux = auxode.solve_ep_numeric(
            prof, *auxode.default_initial_conditions(prof), np.linspace(0.0, 12.0, 401)
        )
        q = HelicityQuanta(1, 0)
        ends = [
            spectrum.phase_gamma(q, prof, aux, np.linspace(0.0, 12.0, n)).gamma[-1]
            for n in (2, 401, 801)
        ]
        assert ends[0] == ends[1] == ends[2]
        coarse = spectrum.phase_gamma(q, prof, aux, np.linspace(0.0, 12.0, 401)).gamma
        fine = spectrum.phase_gamma(q, prof, aux, np.linspace(0.0, 12.0, 801)).gamma
        np.testing.assert_allclose(fine[::2], coarse, rtol=0.0, atol=1e-12)

    def test_one_envelope_pass_per_term(self):
        # the rate, <i d/dt> and <H> of the self-check share one grid pass
        prof = kind_profile("tabulated")
        grid = np.linspace(0.0, 12.0, 41)
        aux = auxode.solve_ep_numeric(prof, *auxode.default_initial_conditions(prof), grid)
        before = spectrum.phase_gamma(HelicityQuanta(1, 2), prof, aux, grid)
        calls = []
        envelope = aux.envelope_fn

        def counted(t):
            calls.append(np.shape(t))
            return envelope(t)

        aux.envelope_fn = counted
        after = spectrum.phase_gamma(HelicityQuanta(1, 2), prof, aux, grid)
        assert calls == [grid.shape]
        np.testing.assert_array_equal(after.gamma, before.gamma)
        np.testing.assert_array_equal(after.integrand, before.integrand)

    def test_profile_terms_need_the_knots(self):
        # panels that straddle a knot of the cubic interpolants fail the
        # two-order certification; the knots are added to the panel ends
        prof = kind_profile("tabulated")
        grid = np.linspace(0.0, 12.0, 5)
        aux = auxode.stationary_solution(prof, grid)
        spectrum.phase_gamma(HelicityQuanta(1, 0), prof, aux, grid)
        no_knots = dataclasses.replace(prof, params={})
        with pytest.raises(IntegralNonConvergent):
            spectrum.phase_gamma(HelicityQuanta(1, 0), no_knots, aux, grid)


class TestWavefunctions:
    def test_ground_state_origin_value(self):
        prof, aux = _static_setup()
        val = spectrum.wavefunction_polar(HelicityQuanta(0, 0), prof, aux, 0.0, 0.0, 0.0)
        assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_modulus_theta_independent(self):
        prof, aux = _moving_setup()
        theta = np.linspace(0.0, 2 * math.pi, 13)
        vals = spectrum.wavefunction_polar(
            HelicityQuanta(2, 0), prof, aux, 1.3, 0.8, theta
        )
        assert np.max(np.abs(np.abs(vals) - np.abs(vals[0]))) < 1e-14

    def test_polar_normalization_quadrature(self):
        # Gauss-Legendre in r against the analytic normalization
        prof, aux = _moving_setup()
        t = 0.9
        rho = float(aux.rho_at(t))
        nodes, weights = np.polynomial.legendre.leggauss(160)
        r_max = 10.0 * rho / math.sqrt(prof.kappa)
        r = 0.5 * r_max * (nodes + 1.0)
        w = 0.5 * r_max * weights
        for nq in ((0, 0), (1, 0), (2, 1)):
            phi = spectrum.wavefunction_polar(HelicityQuanta(*nq), prof, aux, t, r, 0.0)
            integral = 2.0 * math.pi * np.sum(w * r * np.abs(phi) ** 2)
            assert integral == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5])
    def test_radius_must_be_finite_and_nonnegative(self, r):
        prof, aux = _static_setup()
        with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
            spectrum.wavefunction_polar(HelicityQuanta(0, 0), prof, aux, 0.0, [0.0, r], 0.0)

    def test_large_quanta_normalisation(self):
        # sqrt(n!/(n+|l|)!), r^|l| and e^(-u/2) ride inside the orthonormal
        # Laguerre function, so quanta where they leave the double range give
        # the true samples: with rho = kappa = 1 and rho' = 0 here,
        # phi(r, 0) = (-1)^n f_n^|l|(r^2) / sqrt(pi)
        prof, aux = _static_setup()
        for quanta in ((171, 171), (170, 0), (171, 0), (300, 0), (200, 3), (3, 200)):
            q = HelicityQuanta(*quanta)
            n, a_ell = q.n_radial, abs(q.ell)
            top = math.sqrt(n + a_ell + 1) + math.sqrt(n)  # the turning radius
            r = np.array([0.0, 1.0, 0.5 * top, top])
            got = spectrum.wavefunction_polar(q, prof, aux, 0.0, r, 0.0)
            want = [(-1) ** n * float(laguerre_function_mp(n, a_ell, v * v)) for v in r]
            np.testing.assert_allclose(got, np.array(want) / math.sqrt(math.pi), rtol=1e-12)
            assert np.all(got[1:] != 0.0)

    def test_overflowing_sample_raises(self):
        # r^170 overflows at r = 1e3 while exp(-r^2/2) underflows: the sample
        # is the true value, 0, with r = 1 next to it at its orthonormal value
        prof, aux = _static_setup()
        got = spectrum.wavefunction_polar(
            HelicityQuanta(170, 0), prof, aux, 0.0, np.array([1.0, 1e3]), 0.0
        )
        want = float(laguerre_function_mp(0, 170, 1.0)) / math.sqrt(math.pi)
        assert got[0] == pytest.approx(want, rel=1e-12) and got[1] == 0.0
        # where r^2 leaves the double range, a moving envelope's chirp has no
        # phase, but the Laguerre factor and so the sample are 0 in doubles
        prof, aux = _moving_setup()
        q = HelicityQuanta(1, 0)
        got = spectrum.wavefunction_polar(q, prof, aux, 0.9, np.array([1.0, 1e160]), 0.0)
        assert np.isfinite(got[0]) and got[0] != 0.0 and got[1] == 0.0
        # a chirp phase of 4.5e308 overflows where the factor is still 1.7e-194:
        # that sample has no phase and is refused
        prof, aux = _static_setup()
        fast = dataclasses.replace(aux, envelope_fn=lambda t: (1.0, 1e306))
        assert spectrum.laguerre(0, 1.0, 900.0) > 1e-195
        with pytest.raises(OutOfRange, match=r"r <= 30"):
            spectrum.wavefunction_polar(q, prof, fast, 0.0, np.array([1.0, 30.0]), 0.0)

    def test_cartesian_origin_and_parity(self):
        prof, aux = _static_setup()
        val = spectrum.wavefunction_cartesian(0, 0, prof, aux, 0.0, 0.0, 0.0)
        assert val == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-14)
        odd = spectrum.wavefunction_cartesian(1, 0, prof, aux, 0.0, 0.0, 0.3)
        assert abs(odd) < 1e-15

    def test_cartesian_orthonormality_quadrature(self):
        prof, aux = _moving_setup()
        t = 1.7
        rho = float(aux.rho_at(t))
        nodes, weights = np.polynomial.legendre.leggauss(80)
        half = 9.0 * rho / math.sqrt(prof.kappa)
        s = half * nodes
        w = half * weights
        xg, yg = np.meshgrid(s, s, indexing="ij")
        w2 = np.outer(w, w)

        def overlap(na, nb):
            fa = spectrum.wavefunction_cartesian(*na, prof, aux, t, xg, yg)
            fb = spectrum.wavefunction_cartesian(*nb, prof, aux, t, xg, yg)
            return np.sum(w2 * np.conj(fa) * fb)

        assert abs(overlap((1, 0), (0, 1))) < 1e-8
        assert overlap((1, 0), (1, 0)) == pytest.approx(1.0, abs=1e-8)

    def test_full_solution_initial_time_and_modulus(self):
        prof, aux = _moving_setup()
        grid = np.linspace(0.0, 2.0, 40)
        r = np.array([0.3, 1.1])
        psi = spectrum.full_solution(HelicityQuanta(1, 0), prof, aux, grid, r, 0.7)
        phi0 = spectrum.wavefunction_polar(HelicityQuanta(1, 0), prof, aux, 0.0, r, 0.7)
        np.testing.assert_allclose(psi[0], phi0, rtol=1e-12)
        phi_last = spectrum.wavefunction_polar(
            HelicityQuanta(1, 0), prof, aux, grid[-1], r, 0.7
        )
        np.testing.assert_allclose(np.abs(psi[-1]), np.abs(phi_last), rtol=1e-12)


class TestUncertainty:
    def test_stationary_values(self):
        prof, aux = _static_setup()
        assert spectrum.uncertainty_product(0, 0, prof, aux, 1.0) == pytest.approx(0.5)
        assert spectrum.uncertainty_product(1, 0, prof, aux, 1.0) == pytest.approx(1.5)

    def test_moving_radical(self):
        # engineered M rho' rho / kappa = 1 doubles the square
        prof, aux = _static_setup()
        envelope = aux.envelope_fn
        aux.envelope_fn = lambda t: (envelope(t)[0], np.ones_like(np.asarray(t, dtype=float)))
        val = spectrum.uncertainty_product(0, 0, prof, aux, 1.0)
        assert val == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-12)


class TestOperatorMatrices:
    def setup_method(self):
        self.prof, self.aux = _moving_setup()
        self.t = 0.8
        self.N = 10
        self.mats = spectrum.build_operator_matrices(self.prof, self.aux, self.t, self.N)
        self.interior = spectrum.interior_mask(self.N, band=2)

    def _dense(self, key):
        return self.mats[key].toarray()

    def _interior_norm(self, mat):
        sub = mat[np.ix_(self.interior, self.interior)]
        return np.max(np.abs(sub))

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            spectrum.build_operator_matrices(self.prof, self.aux, self.t, 1)

    def test_ladder_elements(self):
        a_p_dag = self._dense("a+dag")
        i1 = spectrum.basis_index(1, 0, self.N)
        i0 = spectrum.basis_index(0, 0, self.N)
        assert a_p_dag[i1, i0] == pytest.approx(1.0)
        inv = self._dense("I")
        i23 = spectrum.basis_index(2, 3, self.N)
        # kappa = 2 here, so the (2,3) diagonal entry is 2 * 6
        assert inv[i23, i23] == pytest.approx(self.prof.kappa * 6.0)

    def test_canonical_commutators(self):
        x, y, px, py = (self._dense(k) for k in ("x", "y", "px", "py"))
        ident = np.eye(self.mats["x"].shape[0], dtype=complex)
        assert self._interior_norm(x @ px - px @ x - 1j * ident) < 1e-12
        assert self._interior_norm(y @ py - py @ y - 1j * ident) < 1e-12
        assert self._interior_norm(x @ py - py @ x) < 1e-12
        assert self._interior_norm(x @ y - y @ x) < 1e-12
        assert self._interior_norm(px @ py - py @ px) < 1e-12

    def test_mode_commutators(self):
        a_p, a_m = self._dense("a+"), self._dense("a-")
        a_p_dag, a_m_dag = self._dense("a+dag"), self._dense("a-dag")
        ident = np.eye(self.mats["x"].shape[0], dtype=complex)
        assert self._interior_norm(a_p @ a_p_dag - a_p_dag @ a_p - ident) < 1e-12
        assert self._interior_norm(a_m @ a_m_dag - a_m_dag @ a_m - ident) < 1e-12
        assert self._interior_norm(a_p @ a_m_dag - a_m_dag @ a_p) < 1e-12

    def test_lz_matches_position_composition(self):
        # dual route: the number-operator form against x py - y px
        x, y, px, py = (self._dense(k) for k in ("x", "y", "px", "py"))
        lz = self._dense("Lz")
        assert self._interior_norm(x @ py - y @ px - lz) < 1e-12

    def test_lz_ladder_commutators(self):
        lz = self._dense("Lz")
        a_p, a_m = self._dense("a+"), self._dense("a-")
        assert self._interior_norm(lz @ a_p - a_p @ lz + a_p) < 1e-12
        assert self._interior_norm(lz @ a_m - a_m @ lz - a_m) < 1e-12

    def test_su2_su11_commutators(self):
        jp, jm, j3 = self._dense("J+"), self._dense("J-"), self._dense("J3")
        kp, km, k0 = self._dense("K+"), self._dense("K-"), self._dense("K0")
        assert self._interior_norm(jp @ jm - jm @ jp - 2.0 * j3) < 1e-12
        assert self._interior_norm(j3 @ jp - jp @ j3 - jp) < 1e-12
        assert self._interior_norm(j3 @ jm - jm @ j3 + jm) < 1e-12
        assert self._interior_norm(km @ kp - kp @ km - 2.0 * k0) < 1e-12
        assert self._interior_norm(k0 @ kp - kp @ k0 - kp) < 1e-12
        assert self._interior_norm(k0 @ km - km @ k0 + km) < 1e-12

    def test_invariant_commutes_with_lz(self):
        inv, lz = self._dense("I"), self._dense("Lz")
        assert np.max(np.abs(inv @ lz - lz @ inv)) == 0.0

    def test_hermiticity(self):
        for key in ("I", "H", "Lz", "J3", "K0", "x", "y", "px", "py"):
            mat = self._dense(key)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_hamiltonian_diagonal_matches_expectation(self):
        # matrix composition against the analytic expectation formula
        ham = self._dense("H")
        for nq in ((0, 0), (1, 0), (2, 3), (4, 4)):
            idx = spectrum.basis_index(*nq, self.N)
            expected = spectrum.hamiltonian_expectation(
                HelicityQuanta(*nq), self.prof, self.aux, self.t
            )
            assert ham[idx, idx].real == pytest.approx(expected, rel=1e-12)
            assert abs(ham[idx, idx].imag) < 1e-13

    def test_hamiltonian_diagonal_with_field_and_drive(self):
        prof, aux = _static_setup(q=1.0, B=2.0, E1=1.0, E2=1.0)
        mats = spectrum.build_operator_matrices(prof, aux, 0.5, 6)
        ham = mats["H"].toarray()
        idx = spectrum.basis_index(1, 0, 6)
        expected = spectrum.hamiltonian_expectation(HelicityQuanta(1, 0), prof, aux, 0.5)
        assert ham[idx, idx].real == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.0 * math.sqrt(2.0) + 1.0 - 1.0, rel=1e-12)

    def test_invariant_spectrum_degeneracies(self):
        inv = self.mats["I"].diagonal().real
        labels = spectrum.basis_labels(self.N)
        shells = labels.sum(axis=1)
        for n in range(self.N - 1):
            sel = inv[shells == n]
            assert sel.size == n + 1
            np.testing.assert_allclose(sel, self.prof.kappa * (n + 1), rtol=1e-14)

    def test_cached_skeleton_is_isolated(self):
        # calls interleaved over two profiles and times at one cutoff give
        # the bits of calls that build the skeleton afresh
        other, other_aux = _static_setup(q=1.0, B=2.0, E1=0.3)
        calls = [(self.prof, self.aux, 0.8), (other, other_aux, 0.5), (self.prof, self.aux, 1.9)]
        interleaved = [spectrum.build_operator_matrices(*call, self.N) for call in calls * 2]
        for call, got in zip(calls * 2, interleaved):
            spectrum._ladder_skeleton.cache_clear()
            fresh = spectrum.build_operator_matrices(*call, self.N)
            assert list(got) == list(fresh)
            for key, mat in got.items():
                for part in ("data", "indices", "indptr"):
                    assert getattr(mat, part).tobytes() == getattr(fresh[key], part).tobytes(), key

    def test_returned_matrices_cannot_change_a_later_call(self):
        before = {k: m.toarray() for k, m in self.mats.items()}
        for key, mat in self.mats.items():
            try:
                mat.data *= 3.0
            except ValueError:
                continue
            assert key in ("x", "y", "px", "py", "I", "H"), key
        later = spectrum.build_operator_matrices(self.prof, self.aux, self.t, self.N)
        for key, mat in later.items():
            assert np.array_equal(mat.toarray(), before[key]), key

    def test_edge_band_contents(self):
        labels = spectrum.basis_labels(self.N)
        edge = np.nonzero(~spectrum.interior_mask(self.N, 1))[0]
        for idx in edge:
            assert labels[idx, 0] == self.N or labels[idx, 1] == self.N
        assert len(edge) == 2 * (self.N + 1) - 1


# 6th-order central first-derivative stencil on 7 points
_C1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_OFFSETS = np.arange(-3, 4, dtype=float)


def _driven_static_setup():
    # stationary envelope of a profile with a field and a drive
    return _static_setup(q=1.0, B=0.8, kappa=2.0, omega=1.1, E1=0.3, E2=-0.2)


def _driven_breathing_setup():
    # the same profile carried by an off-equilibrium closed-form envelope
    prof, _ = _driven_static_setup()
    grid = np.linspace(0.0, 6.0, 601)
    aux = auxode.closed_form_solution(
        "pinney_constant", {"omega": float(prof.Omega(0.0)), "nu": 2.0, "c2": 0.35}, grid
    )
    assert max_residual(auxode.ep_residual_pointwise(aux, prof)) <= 1e-6
    return prof, aux


def _position_space_elements(prof, aux, t, states):
    """<a|O|b> of x, y, p_x, p_y, L_z = -i d/dtheta and H between the polar
    eigenfunctions, by a rule exact for these integrands: Gauss-Laguerre in
    u = kappa r^2 / rho^2 and the trapezoid in theta.  Derivatives are
    6th-order central differences; H is taken in its gradient form
    |grad phi|^2 / 2M + M Omega^2 r^2 / 2 + (omega_c/2) L_z - q^2 E^2 / 2 M omega."""
    rho, kap, M = float(aux.rho_at(t)), prof.kappa, float(prof.mass(t))
    u, w_u = np.polynomial.laguerre.laggauss(24)
    n_theta = 16
    r = (rho * np.sqrt(u / kap))[:, None]
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)[None, :]
    weight = (rho * rho / (2.0 * kap)) * (w_u * np.exp(u))[:, None] * (2.0 * math.pi / n_theta)
    h_r, h_theta = 1e-3 * rho / math.sqrt(kap), 1e-3

    def phi(q, rr, th):
        return spectrum.wavefunction_polar(q, prof, aux, t, rr, th)

    vals = np.array([phi(q, r, theta) for q in states])
    d_r = np.array([
        sum(c * phi(q, r + h_r * o, theta) for c, o in zip(_C1, _OFFSETS)) / h_r
        for q in states
    ])
    d_theta = np.array([
        sum(c * phi(q, r, theta + h_theta * o) for c, o in zip(_C1, _OFFSETS)) / h_theta
        for q in states
    ])

    def between(bra, ket, w=weight):
        return np.einsum("ij,aij,bij->ab", w, bra.conj(), ket)

    cos, sin = np.cos(theta), np.sin(theta)
    lz = between(vals, -1j * d_theta)
    grad_sq = between(d_r, d_r) + between(d_theta, d_theta, weight / (r * r))
    return {
        "x": between(vals, r * cos * vals),
        "y": between(vals, r * sin * vals),
        "px": between(vals, -1j * (cos * d_r - sin / r * d_theta)),
        "py": between(vals, -1j * (sin * d_r + cos / r * d_theta)),
        "Lz": lz,
        "H": grad_sq / (2.0 * M)
        + 0.5 * M * float(prof.Omega(t)) ** 2 * between(vals, r * r * vals)
        + 0.5 * float(prof.omega_c(t)) * lz
        - spectrum._drive_energy(prof, t) * np.eye(len(states)),
    }


class TestOrientation:
    """The operator matrices stand for the operators on the polar
    eigenfunctions e^{i ell theta}, with L_z = -i d/dtheta of eigenvalue
    ell = n+ - n-, and their H moves z = y + i x along the classical path."""

    @pytest.mark.parametrize(
        "setup, t",
        [
            (_driven_static_setup, 0.5),
            (_driven_static_setup, 4.0),
            (_driven_breathing_setup, 1.3),
            (_driven_breathing_setup, 3.9),
            (_driven_breathing_setup, 5.2),
        ],
    )
    def test_matrices_are_the_position_space_operators(self, setup, t):
        prof, aux = setup()
        cutoff = 8
        states = [HelicityQuanta(a, b) for a in range(5) for b in range(5 - a)]
        rows = [spectrum.basis_index(q.n_plus, q.n_minus, cutoff) for q in states]
        mats = spectrum.build_operator_matrices(prof, aux, t, cutoff)
        # the basis state |n+, n-> is (-i)^(n+ + n-) times the polar eigenfunction
        phase = np.array([(-1j) ** q.total for q in states])
        for key, elements in _position_space_elements(prof, aux, t, states).items():
            want = np.conj(phase)[:, None] * phase[None, :] * elements
            got = mats[key].toarray()[np.ix_(rows, rows)]
            assert np.max(np.abs(got - want)) < 1e-10, key
        np.testing.assert_array_equal(mats["Lz"].diagonal()[rows], [q.ell for q in states])

    @pytest.mark.parametrize("qB", [0.9, -0.9, 2.5, -2.5])
    def test_heisenberg_motion_is_the_classical_path(self, qB):
        # constant profile, E = 0: z = y + i x obeys z'' + i omega_c z' + omega^2 z = 0
        omega, cutoff = 0.7, 16
        prof = make_profile(
            "constant", {"M": 1.0, "omega": omega}, q=1.0, B=qB, kappa=1.0, t0=0.0, t1=10.0
        )
        grid = np.linspace(0.0, 10.0, 401)
        aux = auxode.solve_ep_numeric(prof, 1.2 * auxode.default_initial_conditions(prof)[0], 0.3, grid)
        mats = spectrum.build_operator_matrices(prof, aux, 2.0, cutoff)
        ham = mats["H"]
        z = mats["y"] + 1j * mats["x"]
        z_dot = 1j * (ham @ z - z @ ham)
        z_ddot = 1j * (ham @ z_dot - z_dot @ ham)
        omega_c = float(prof.omega_c(2.0))
        residual = (z_ddot + 1j * omega_c * z_dot + omega**2 * z).toarray()
        # H couples shells two apart, so the double commutator is exact on
        # rows five shells below the truncation edge
        inside = spectrum.interior_mask(cutoff, band=5)
        assert np.max(np.abs(residual[np.ix_(inside, inside)])) < 1e-11


class TestRelabelings:
    def test_su2(self):
        assert spectrum.su2_relabel(HelicityQuanta(1, 0)) == (0.5, 0.5)
        assert spectrum.su2_relabel(HelicityQuanta(0, 0)) == (0.0, 0.0)

    def test_su11(self):
        assert spectrum.su11_relabel(HelicityQuanta(3, 1)) == (1.5, 1)

    def test_casimir(self):
        assert spectrum.casimir_su11(1) == 0.0
        assert spectrum.casimir_su11(3) == 2.0
        assert spectrum.casimir_su11(0) == -0.25


class TestInvariant3d:
    def test_axial_rest_is_constant(self):
        prof, aux = _moving_setup()
        trace = spectrum.invariant3d_diagnostic(
            HelicityQuanta(1, 1), 0.0, prof, aux, np.linspace(0.0, 6.0, 100)
        )
        assert trace.variation == 0.0
        np.testing.assert_allclose(trace.alpha, prof.kappa * 3.0, rtol=1e-14)

    def test_moving_variation_value(self):
        prof, aux = _moving_setup()
        grid = np.linspace(0.0, 2 * math.pi, 400)
        trace = spectrum.invariant3d_diagnostic(HelicityQuanta(0, 0), 1.0, prof, aux, grid)
        rho_sq = np.asarray(aux.rho_at(grid)) ** 2
        expected = 0.5 * (np.max(rho_sq) - np.min(rho_sq))
        assert trace.variation == pytest.approx(expected, rel=1e-12)

    def test_stationary_profile_constant(self):
        prof, aux = _static_setup()
        trace = spectrum.invariant3d_diagnostic(
            HelicityQuanta(2, 0), 1.3, prof, aux, np.linspace(0.0, 9.0, 50)
        )
        assert trace.variation < 1e-14
