"""Tests for the coherent-state families, overlaps and weight functions."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln, iv

from landau_td import coherent as ch
from landau_td import spectrum
from landau_td.auxode import closed_form_solution, stationary_solution
from landau_td.errors import (
    CutoffMismatch,
    CutoffTooSmall,
    DomainError,
    EtaOutOfDisk,
    InvalidState,
    NormalizationDiverges,
    PTooLarge,
    UnsupportedFamily,
    WrongFamily,
    ZeroF,
)
from landau_td.profiles import make_profile
from landau_td.spectrum import HelicityQuanta


def _moving_setup(q=1.0, B=0.6, kappa=2.0):
    prof = make_profile(
        "constant", {"M": 1.0, "omega": 1.0}, q=q, B=B, kappa=kappa, t0=0.0, t1=10.0
    )
    grid = np.linspace(0.0, 2 * math.pi, 200)
    aux = closed_form_solution(
        "pinney_constant", {"omega": 1.0, "nu": 2.0}, grid, profile=prof
    )
    return prof, aux


def _matrices(prof, aux, t=1.3, cutoff=24):
    raw = spectrum.build_operator_matrices(prof, aux, t, cutoff=cutoff)
    return {k: v.entries for k, v in raw.items()}


class TestCanonical:
    def test_poisson_ground_weight(self):
        s = ch.canonical_state(1.0, 0.0)
        # single-mode Poisson: P(0, 0) = e^{-1}
        assert ch.distribution(s)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_auto_cutoff_deficit(self):
        s = ch.canonical_state(1.5, 0.8 - 0.4j)
        assert s.norm_deficit < 1e-10

    def test_normalized(self):
        s = ch.canonical_state(0.7 + 0.2j, 1.1)
        assert np.sum(np.abs(s.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_modulus_closed_form(self):
        s1 = ch.canonical_state(1.0, 0.5 + 0.2j, cutoff=25)
        s2 = ch.canonical_state(0.3, 0.1, cutoff=25)
        got = abs(ch.overlap(s1, s2))
        want = ch.canonical_overlap_modulus(1.0, 0.5 + 0.2j, 0.3, 0.1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_cutoff_past_poisson_peak(self):
        # past |z| = 7.67 the first term below 1e-16 lies before the Poisson
        # peak n ~ |z|^2; below that the cutoff is that first small term
        def first_small(a):
            n = 8
            while a and -a * a + 2 * n * math.log(a) - gammaln(n + 1) >= math.log(1e-16):
                n += 1
            return n

        for a in np.linspace(0.0, 7.67, 200):
            assert ch._poisson_cutoff(a) == first_small(a)
        s = ch.canonical_state(8.0, 0.0)
        assert s.cutoff == 140
        assert abs(s.norm_deficit) <= 1e-12

    def test_cutoff_mismatch(self):
        s1 = ch.canonical_state(1.0, 0.0, cutoff=20)
        s2 = ch.canonical_state(1.0, 0.0, cutoff=30)
        with pytest.raises(CutoffMismatch):
            ch.overlap(s1, s2)

    @given(
        re1=st.floats(-1.5, 1.5),
        im1=st.floats(-1.5, 1.5),
        re2=st.floats(-1.5, 1.5),
        im2=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_overlap_modulus_property(self, re1, im1, re2, im2):
        z1, z2 = complex(re1, im1), complex(re2, im2)
        s1 = ch.canonical_state(z1, z2, cutoff=40)
        s2 = ch.canonical_state(z2, z1, cutoff=40)
        want = ch.canonical_overlap_modulus(z1, z2, z2, z1)
        assert abs(ch.overlap(s1, s2)) == pytest.approx(want, abs=1e-10)

    def test_ladder_eigenvector(self):
        prof, aux = _moving_setup()
        mats = _matrices(prof, aux)
        interior = spectrum.interior_mask(24, band=3)
        s = ch.canonical_state(0.8, 0.5 + 0.3j, cutoff=24)
        vec = s.coeffs.reshape(-1)
        for name, lam in [("a+", 0.8), ("a-", 0.5 + 0.3j)]:
            resid = (mats[name] @ vec - lam * vec)[interior]
            assert np.max(np.abs(resid)) < 1e-8

    def test_rotation_generator_action(self):
        # expm(i alpha Lz) |z+, z-> = |e^{-i alpha} z+, e^{+i alpha} z->
        prof, aux = _moving_setup()
        mats = _matrices(prof, aux)
        z_p, z_m = 0.8, 0.5 + 0.3j
        s = ch.canonical_state(z_p, z_m, cutoff=24)
        alpha = 0.7
        rotated = expm_multiply(1j * alpha * mats["Lz"].tocsc(), s.coeffs.reshape(-1))
        target = ch.canonical_state(
            np.exp(-1j * alpha) * z_p, np.exp(1j * alpha) * z_m, cutoff=24
        )
        assert np.max(np.abs(rotated - target.coeffs.reshape(-1))) < 1e-8


class TestEvolution:
    def test_static_params(self):
        prof = make_profile(
            "constant", {"M": 1.0, "omega": 1.0}, kappa=1.0, t0=0.0, t1=10.0
        )
        aux = stationary_solution(prof, np.linspace(0.0, 10.0, 11))
        ep = ch.evolution_params(prof, aux, 0.0)
        assert ep.T1 == pytest.approx(1.0, rel=1e-12)
        assert ep.T2 == 0.0
        assert ep.lam == 0.0

    def test_label_rotation(self):
        ep = ch.EvolutionParams(T1=1.0, T2=0.25, lam=0.0)
        s = ch.canonical_state(1.0, 1.0)
        out = ch.evolve_canonical(s, ep, 2.0)
        assert out.params["z_plus"] == pytest.approx(np.exp(-2.5j), abs=1e-12)
        assert out.params["z_minus"] == pytest.approx(np.exp(-1.5j), abs=1e-12)
        assert out.family == "canonical"

    def test_equal_rotation_without_field(self):
        ep = ch.EvolutionParams(T1=0.7, T2=0.0, lam=0.0)
        s = ch.canonical_state(0.5, 0.8)
        out = ch.evolve_canonical(s, ep, 1.0)
        ratio_p = out.params["z_plus"] / s.params["z_plus"]
        ratio_m = out.params["z_minus"] / s.params["z_minus"]
        assert ratio_p == pytest.approx(ratio_m, abs=1e-14)

    def test_stays_normalized_with_global_phase(self):
        ep = ch.EvolutionParams(T1=1.3, T2=0.2, lam=0.4)
        s = ch.canonical_state(0.9, 0.3)
        out = ch.evolve_canonical(s, ep, 3.0)
        assert np.sum(np.abs(out.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert abs(out.params["global_phase"]) == pytest.approx(1.0, abs=1e-14)

    def test_wrong_family(self):
        st2 = ch.su2_state(1.0, 0.5)
        with pytest.raises(WrongFamily):
            ch.evolve_canonical(st2, ch.EvolutionParams(1.0, 0.0, 0.0), 1.0)


class TestNonlinear:
    def test_unit_deformation_is_canonical(self):
        one = lambda n: 1.0
        nl = ch.nonlinear_state(0.8, 0.5 + 0.3j, one, one, cutoff=24)
        can = ch.canonical_state(0.8, 0.5 + 0.3j, cutoff=24)
        assert np.max(np.abs(nl.coeffs - can.coeffs)) < 1e-12

    def test_zero_f(self):
        bad = lambda n: float(n != 3)
        with pytest.raises(ZeroF):
            ch.nonlinear_state(0.5, 0.5, bad, lambda n: 1.0, cutoff=10)

    def test_divergent_normalization(self):
        shrink = lambda n: 0.5 / n
        with pytest.raises(NormalizationDiverges):
            ch.nonlinear_state(1.0, 0.0, shrink, lambda n: 1.0, cutoff=40)

    def test_deformed_lowering_eigenvector(self):
        # the state is an eigenvector of a f(N) with eigenvalue alpha
        prof, aux = _moving_setup()
        mats = _matrices(prof, aux)
        interior = spectrum.interior_mask(24, band=3)
        f = lambda n: 1.0 + 0.3 / (n + 1.0)
        s = ch.nonlinear_state(0.7, 0.4, f, f, cutoff=24)
        n_diag = (mats["a+dag"] @ mats["a+"]).diagonal().real
        f_mat = sp.diags(np.array([f(int(round(v))) for v in n_diag]))
        vec = s.coeffs.reshape(-1)
        resid = ((mats["a+"] @ f_mat) @ vec - 0.7 * vec)[interior]
        assert np.max(np.abs(resid)) < 1e-8


class TestPhotonAdded:
    def test_distribution_matches_display(self):
        a_p, a_m, m_p, m_m = 0.6, 0.5, 1, 2
        s = ch.photon_added_state(a_p, a_m, m_p, m_m, cutoff=30)
        P = ch.distribution(s)
        n_p, n_m = np.arange(31 - m_p), np.arange(31 - m_m)
        logw = (
            2.0 * np.add.outer(n_p * np.log(a_p), n_m * np.log(a_m))
            + np.add.outer(gammaln(n_p + m_p + 1), gammaln(n_m + m_m + 1))
            - 2.0 * np.add.outer(gammaln(n_p + 1), gammaln(n_m + 1))
        )
        want = np.exp(logw)
        want /= want.sum()
        assert np.max(np.abs(P[m_p:, m_m:] - want)) < 1e-10

    def test_vacuum_block_vanishes(self):
        s = ch.photon_added_state(0.7, 0.7, 1, 0, cutoff=20)
        assert np.max(ch.distribution(s)[:1, :]) == 0.0

    def test_matches_deformed_recursion(self):
        # eigenvector recursion of f(N) a with the photon-added deformation
        # function, started on the shifted lattice point n = m
        alpha, m_add, N = 0.9, 2, 24
        s = ch.photon_added_state(alpha, 0.0, m_add, 0, cutoff=N)
        w = np.zeros(N + 1, dtype=complex)
        w[m_add] = 1.0
        for n in range(m_add + 1, N + 1):
            f_prev = ch.pa_nonlinear_function(m_add, 0, n - 1, 0)
            w[n] = w[n - 1] * alpha / (math.sqrt(n) * f_prev)
        w /= np.linalg.norm(w)
        assert np.max(np.abs(s.coeffs[:, 0] - w)) < 1e-10

    def test_pa_function_values(self):
        assert ch.pa_nonlinear_function(1, 0, 0, 0) == 0.0
        assert ch.pa_nonlinear_function(1, 0, 1, 0) == pytest.approx(0.5)
        assert ch.pa_nonlinear_function(0, 0, 5, 7) == 1.0

    def test_small_cutoff_rejected(self):
        with pytest.raises(CutoffTooSmall):
            ch.photon_added_state(0.5, 0.5, 6, 0, cutoff=5)


class TestSu2:
    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            ch.su2_state(3.0, 0.5, cutoff=4)

    def test_zero_parameter_lowest_weight(self):
        s = ch.su2_state(1.5, 0.0)
        assert abs(s.coeffs[0, 3]) == pytest.approx(1.0, abs=1e-14)

    def test_half_spin_overlap(self):
        # j = 1/2, zeta1 = 0, zeta2 = 1 -> 2^{-1/2}
        assert ch.su2_overlap(0.5, 0.0, 1.0) == pytest.approx(2**-0.5, rel=1e-14)
        s1 = ch.su2_state(0.5, 0.0)
        s2 = ch.su2_state(0.5, 1.0)
        assert ch.overlap(s1, s2) == pytest.approx(2**-0.5, rel=1e-12)

    def test_overlap_closed_form_complex(self):
        z1, z2 = 0.3 + 0.1j, 0.2 - 0.4j
        s1 = ch.su2_state(1.5, z1)
        s2 = ch.su2_state(1.5, z2)
        assert ch.overlap(s1, s2) == pytest.approx(ch.su2_overlap(1.5, z1, z2), abs=1e-12)

    def test_exact_normalization(self):
        s = ch.su2_state(2.0, 0.7 - 0.3j)
        assert abs(s.norm_deficit) < 1e-12


class TestSu2PhotonAdded:
    def test_p_too_large(self):
        with pytest.raises(PTooLarge):
            ch.su2_pa_state(1.0, 0.5, 3)

    def test_p_zero_reduces_to_su2(self):
        spa = ch.su2_pa_state(1.0, 0.3 + 0.1j, 0)
        s = ch.su2_state(1.0, 0.3 + 0.1j)
        assert np.max(np.abs(spa.coeffs - s.coeffs)) < 1e-12

    def test_gauss_series_normalization(self):
        for (j, zeta, p) in [(1.5, 0.4, 2), (2.0, 0.9 + 0.2j, 1), (1.0, 1.3, 2)]:
            s = ch.su2_pa_state(j, zeta, p)
            assert np.sum(np.abs(s.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_support_and_top_addition(self):
        s = ch.su2_pa_state(1.0, 0.5, 2)
        # p = 2j: only the highest-weight state survives
        assert abs(s.coeffs[2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_support_starts_at_p(self):
        s = ch.su2_pa_state(2.0, 0.6, 1)
        P = ch.distribution(s)
        assert np.max(P[0, :]) == 0.0
        nz = np.argwhere(P > 1e-30)
        assert set(map(tuple, nz)) == {(1, 3), (2, 2), (3, 1), (4, 0)}


class TestSu11BarutGirardello:
    def test_norm_constant_is_bessel_ratio(self):
        # sum_m 1/(m!)^2 = I_0(2)
        s = ch.su11_bg_state(("single_mode", 0), 1.0)
        assert abs(s.coeffs[0, 0]) ** 2 == pytest.approx(
            1.0 / 2.2795853023360673, rel=1e-12
        )
        assert s.norm_deficit < 1e-10

    def test_lowering_eigenvector(self):
        prof, aux = _moving_setup()
        mats = _matrices(prof, aux)
        interior = spectrum.interior_mask(24, band=3)
        s = ch.su11_bg_state(("single_mode", 1), 1.2, cutoff=24)
        vec = s.coeffs.reshape(-1)
        resid = (mats["K-"] @ vec - 1.2 * vec)[interior]
        assert np.max(np.abs(resid)) < 1e-8

    def test_two_mode_tag(self):
        a = ch.su11_bg_state(("two_mode", 1.5), 0.8)
        b = ch.su11_bg_state(("single_mode", 2), 0.8, cutoff=a.cutoff)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14
        with pytest.raises(UnsupportedFamily):
            ch.su11_bg_state(("two_mode", 0.8), 0.5)

    def test_zero_eigenvalue(self):
        s = ch.su11_bg_state(("single_mode", 2), 0.0)
        assert abs(s.coeffs[2, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_overlap_closed_form(self):
        s1 = ch.su11_bg_state(("single_mode", 1), 1.0, cutoff=40)
        s2 = ch.su11_bg_state(("single_mode", 1), 0.4, cutoff=40)
        want = ch.bg_overlap(1, 1.0, 0.4)
        assert ch.overlap(s1, s2) == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(
            float(iv(1, 2 * math.sqrt(0.4)) / math.sqrt(iv(1, 2.0) * iv(1, 0.8))),
            rel=1e-12,
        )

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            ch.su11_bg_state(("single_mode", -1), 0.5)


class TestSu11Perelomov:
    def test_eta_out_of_disk(self):
        with pytest.raises(EtaOutOfDisk):
            ch.su11_perelomov_state(("single_mode", 0), 1.0)

    def test_truncation_deficit_auto_cutoff(self):
        s = ch.su11_perelomov_state(("single_mode", 1), 0.5)
        assert 0.0 <= s.norm_deficit < 1e-10

    def test_overlap_closed_form(self):
        e1, e2 = 0.5, 0.3 + 0.2j
        s1 = ch.su11_perelomov_state(("single_mode", 2), e1, cutoff=40)
        s2 = ch.su11_perelomov_state(("single_mode", 2), e2, cutoff=40)
        assert ch.overlap(s1, s2) == pytest.approx(
            ch.perelomov_overlap(2, e1, e2), abs=1e-10
        )

    def test_pa_variant_distribution(self):
        # P(m) = N^2 |eta|^{2m} / F_l(k, m) on the shifted diagonal
        k, eta, l = 1.0, 0.5, 2
        ell = 1  # 2k - 1 on the lattice
        s = ch.su11_pa_perelomov_state(k, eta, l)
        P = ch.distribution(s)
        m = np.arange(s.cutoff - (l + ell) + 1)
        probs = np.array([P[mm + l + ell, mm + l] for mm in m])
        weights = abs(eta) ** (2 * m) / ch._pa_weight_f(k, l, m)
        weights /= weights.sum()
        assert np.max(np.abs(probs - weights)) < 1e-10

    def test_pa_variant_reduces_at_l_zero(self):
        k = 1.5
        a = ch.su11_pa_perelomov_state(k, 0.4, 0, cutoff=45)
        b = ch.su11_perelomov_state(("two_mode", k), 0.4, cutoff=45)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


class TestSu11PhotonAddedBG:
    def test_reduces_at_zero_addition(self):
        a = ch.su11_pa_bg_state(1.0, 0.5, 0, cutoff=35)
        b = ch.su11_bg_state(("two_mode", 1.0), 0.5, cutoff=35)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_support_shift(self):
        s = ch.su11_pa_bg_state(1.0, 0.5, 1)
        P = ch.distribution(s)
        nz = np.argwhere(P > 1e-30)
        # support (m + n + 2k - 1, m + n) = (m + 2, m + 1)
        assert all(r - c == 1 for r, c in nz)
        assert nz.min(axis=0).tolist() == [2, 1]

    def test_overlap_closed_form_same_params(self):
        got = ch.pa_bg_overlap(1.0, 1, 1, 0.5, 0.5)
        assert got == pytest.approx(1.0, abs=1e-7)

    def test_overlap_closed_form_lattice(self):
        N = 40
        a = ch.su11_pa_bg_state(1.0, 0.5, 1, cutoff=N)
        b = ch.su11_pa_bg_state(1.0, 0.8, 1, cutoff=N)
        c = ch.su11_pa_bg_state(1.0, 0.5, 2, cutoff=N)
        assert ch.pa_bg_overlap(1.0, 1, 1, 0.5, 0.8) == pytest.approx(
            ch.overlap(b, a), abs=1e-10
        )
        assert ch.pa_bg_overlap(1.0, 2, 1, 0.5, 0.8) == pytest.approx(
            ch.overlap(b, c), abs=1e-10
        )
        d = ch.su11_pa_bg_state(1.0, 0.4 + 0.3j, 1, cutoff=N)
        e = ch.su11_pa_bg_state(1.0, 0.5, 1, cutoff=N)
        assert ch.pa_bg_overlap(1.0, 1, 1, 0.4 + 0.3j, 0.5) == pytest.approx(
            complex(ch.overlap(e, d)), abs=1e-10
        )

    def test_unconverged_norm_raises(self, monkeypatch):
        # the normalization sum at |z| = 5 converges after 26 terms; a
        # 20-term cap must not return the partial sum
        assert ch.pa_bg_overlap(1.0, 1, 1, 5.0, 5.0) == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(ch, "_MAX_CUTOFF", 20)
        with pytest.raises(NormalizationDiverges):
            ch.pa_bg_overlap(1.0, 1, 1, 5.0, 5.0)

    @staticmethod
    @mp.workdps(40)
    def _mp_overlap(k, n1, n2, z1, z2):
        # 2F3 closed form with its normalizations, N_n = Gamma(n+1) Gamma(n+2k)
        # / Gamma(2k)^2 2F3(n+1, n+2k; 1, 2k, 2k; |z|^2), in 40 digits
        d = n1 - n2
        x = mp.conj(mp.mpc(z2)) * mp.mpc(z1)

        def norm(n, z):
            return (
                mp.gamma(n + 1) * mp.gamma(n + 2 * k) / mp.gamma(2 * k) ** 2
                * mp.hyper([n + 1, n + 2 * k], [1, 2 * k, 2 * k], abs(mp.mpc(z)) ** 2)
            )

        series = (
            mp.gamma(n1 + 1) * mp.gamma(n1 + 2 * k)
            / (mp.gamma(d + 1) * mp.gamma(d + 2 * k) * mp.gamma(2 * k))
            * mp.hyper([n1 + 1, n1 + 2 * k], [d + 1, d + 2 * k, 2 * k], x)
        )
        return complex(mp.conj(mp.mpc(z2)) ** d * series / mp.sqrt(norm(n1, z1) * norm(n2, z2)))

    @pytest.mark.parametrize(
        "k, n1, n2, z1, z2",
        [
            (1.0, 1, 1, 30.0, 30.0),
            (1.0, 1, 1, 300.0, 300.0),
            (1.0, 1, 1, 400.0, 400.0),
            (1.5, 2, 1, 300.0, 299.0 + 12j),
            (1.0, 2, 0, 280.0 + 96j, 300.0),
        ],
    )
    def test_overlap_at_large_z(self, k, n1, n2, z1, z2):
        # the constants and the 2F3 terms overflow double precision past
        # |z| ~ 170 unless they are summed in logs
        got = ch.pa_bg_overlap(k, n1, n2, z1, z2)
        assert abs(got - self._mp_overlap(k, n1, n2, z1, z2)) < 1e-12

    def test_overlap_beyond_term_cap_raises(self):
        with pytest.raises(NormalizationDiverges):
            ch.pa_bg_overlap(1.0, 1, 1, 1e4, 1e4)


class TestSingleModeWavefunction:
    @staticmethod
    def _setup():
        prof = make_profile(
            "constant",
            {"M": 1.0, "omega": 1.1},
            q=1.0,
            B=0.8,
            kappa=2.0,
            t0=0.0,
            t1=6.0,
        )
        grid = np.linspace(0.0, 6.0, 301)
        aux = closed_form_solution(
            "pinney_constant", {"omega": 1.1, "nu": 2.0, "c2": 0.35}, grid, profile=prof
        )
        return prof, aux

    @staticmethod
    def _fock_sum(state, ell, prof, aux, t, u, theta):
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

    def test_bg_closed_form(self):
        prof, aux = self._setup()
        t, theta = 2.1, 0.7
        u = np.linspace(0.0, 10.0, 41)
        for ell, z in [(0, 1.0), (1, 1.3), (3, 0.7)]:
            s = ch.su11_bg_state(("single_mode", ell), z, cutoff=45)
            closed = ch.single_mode_wavefunction("bg", ell, z, prof, aux, t, u, theta)
            fock = self._fock_sum(s, ell, prof, aux, t, u, theta)
            assert np.max(np.abs(closed - fock)) < 1e-7

    def test_bg_zero_parameter(self):
        prof, aux = self._setup()
        u = np.linspace(0.0, 10.0, 21)
        s = ch.su11_bg_state(("single_mode", 2), 0.0, cutoff=30)
        closed = ch.single_mode_wavefunction("bg", 2, 0.0, prof, aux, 1.0, u, 0.0)
        fock = self._fock_sum(s, 2, prof, aux, 1.0, u, 0.0)
        assert np.max(np.abs(closed - fock)) < 1e-12

    def test_perelomov_closed_form(self):
        prof, aux = self._setup()
        t, theta = 2.1, 0.7
        u = np.linspace(0.0, 10.0, 41)
        for ell, eta in [(0, 0.4), (1, 0.3 + 0.2j), (2, -0.5)]:
            s = ch.su11_perelomov_state(("single_mode", ell), eta, cutoff=60)
            closed = ch.single_mode_wavefunction(
                "perelomov", ell, eta, prof, aux, t, u, theta
            )
            fock = self._fock_sum(s, ell, prof, aux, t, u, theta)
            assert np.max(np.abs(closed - fock)) < 1e-7

    def test_domain_guards(self):
        prof, aux = self._setup()
        with pytest.raises(DomainError):
            ch.single_mode_wavefunction("bg", 0, -1.0, prof, aux, 1.0, 1.0, 0.0)
        with pytest.raises(EtaOutOfDisk):
            ch.single_mode_wavefunction("perelomov", 0, 1.2, prof, aux, 1.0, 1.0, 0.0)
        with pytest.raises(UnsupportedFamily):
            ch.single_mode_wavefunction("gauss", 0, 0.5, prof, aux, 1.0, 1.0, 0.0)


class TestWeightSpecs:
    def test_unit_deformation_moments(self):
        ws = ch.weight_spec("canonical", {})
        val, _ = quad(lambda x: x**3 * ws.evaluator(x), 0, np.inf)
        assert val == pytest.approx(6.0, rel=1e-10)
        assert ws.moment_target(3) == pytest.approx(6.0)

    def test_su2_pa_target_values(self):
        ws = ch.weight_spec("su2_pa", {"j": 1.0, "p": 0})
        assert ws.moment_target(0) == pytest.approx(1.0)
        assert ws.m_max == 2

    def test_su2_pa_moments(self):
        ws = ch.weight_spec("su2_pa", {"j": 1.0, "p": 1})
        for m in range(ws.m_max + 1):
            val, _ = quad(
                lambda x: x**m * ws.evaluator(x), 0, np.inf, limit=400
            )
            assert val == pytest.approx(ws.moment_target(m), rel=1e-10)

    def test_su2_pa_empty_range(self):
        with pytest.raises(UnsupportedFamily):
            ch.weight_spec("su2_pa", {"j": 1.0, "p": 3})

    def test_bg_pa_offset_moments(self):
        ws = ch.weight_spec("bg_pa", {"k": 1.0, "n": 1})
        assert ws.power_offset == 1
        for m in range(3):
            val, _ = quad(
                lambda x: x ** (m + ws.power_offset) * ws.evaluator(x),
                0,
                np.inf,
                limit=400,
            )
            assert val == pytest.approx(ws.moment_target(m), rel=1e-8)

    @staticmethod
    def _moment(ws, m):
        val, _ = quad(
            lambda x: x**m * ws.evaluator(x), 0, ws.x_max, epsabs=0.0, epsrel=1e-13
        )
        return val

    def test_perelomov_pa_uniform_density(self):
        # k = 1, l = 0: moments 1/(m+1), i.e. the uniform density on (0, 1)
        ws = ch.weight_spec("perelomov_pa", {"k": 1.0, "l": 0})
        assert ws.moment_target(3) == pytest.approx(0.25)
        assert ws.x_max == 1.0
        assert ws.evaluator(0.5) == pytest.approx(1.0, abs=1e-15)
        for m in range(7):
            assert self._moment(ws, m) == pytest.approx(ws.moment_target(m), rel=1e-10)

    def test_perelomov_pa_shifted_family(self):
        ws = ch.weight_spec("perelomov_pa", {"k": 1.0, "l": 1})
        for m in (0, 3, 6):
            assert self._moment(ws, m) == pytest.approx(ws.moment_target(m), rel=1e-10)

    def test_perelomov_pa_branches_agree(self):
        # hyp2f1 above x = 1/16, the DLMF 15.8.10 log series below; at
        # k = 1/2, l = 1 the density is -ln x exactly
        ws = ch.weight_spec("perelomov_pa", {"k": 0.5, "l": 1})
        x = np.array([1e-14, 1e-6, 0.0624, 0.0625, 0.0626, 0.5, 0.99])
        assert ws.evaluator(x) == pytest.approx(-np.log(x), rel=1e-13)

    def test_perelomov_pa_point_mass_rejected(self):
        # k = 1/2, l = 0: every moment is 1, a unit point mass at x = 1
        with pytest.raises(UnsupportedFamily):
            ch.weight_spec("perelomov_pa", {"k": 0.5, "l": 0})

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamily):
            ch.weight_spec("bessel", {})


class TestSerialization:
    def test_round_trip(self):
        s = ch.photon_added_state(0.6, 0.5, 1, 2, cutoff=30)
        back = ch.state_from_json(ch.state_to_json(s))
        assert back.family == s.family
        assert back.cutoff == s.cutoff
        assert np.max(np.abs(back.coeffs - s.coeffs)) == 0.0

    def test_deterministic_dump(self):
        a = ch.state_to_json(ch.su2_state(1.5, 0.3 + 0.1j))
        b = ch.state_to_json(ch.su2_state(1.5, 0.3 + 0.1j))
        assert a == b

    def test_schema_fields(self):
        doc = json.loads(ch.state_to_json(ch.canonical_state(0.5, 0.0)))
        assert set(doc) >= {"family", "params", "cutoff", "coeffs"}
        n_p, n_m, re, im = doc["coeffs"][0]
        assert isinstance(n_p, int) and isinstance(re, float)


# ---------------------------------------------------------------------------
# support storage, JSON codec and validation
# ---------------------------------------------------------------------------

SU11_K = (0.5, 1.0, 1.5, 2.0)


def _disk(r_max):
    """Complex numbers of modulus <= r_max, drawn as modulus and phase."""
    return st.builds(
        lambda r, phi: complex(r * math.cos(phi), r * math.sin(phi)),
        st.floats(0.0, r_max),
        st.floats(0.0, 2.0 * math.pi),
    )


@st.composite
def _builders(draw, family):
    """A builder cutoff -> state of the family, cutoff None meaning automatic."""
    if family == "canonical":
        zp, zm = draw(_disk(4.0)), draw(_disk(4.0))
        return lambda cut: ch.canonical_state(zp, zm, cut)
    if family == "nonlinear":
        ap, am, c = draw(_disk(1.5)), draw(_disk(1.5)), draw(st.floats(0.0, 0.3))
        f = lambda n: 1.0 + c * n  # noqa: E731
        return lambda cut: ch.nonlinear_state(ap, am, f, f, cut or 30)
    if family == "photon_added":
        ap, am = draw(_disk(2.0)), draw(_disk(2.0))
        mp, mm = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        return lambda cut: ch.photon_added_state(ap, am, mp, mm, cut or 40)
    if family in ("su2", "su2_pa"):
        two_j, zeta = draw(st.integers(0, 40)), draw(_disk(3.0))
        if family == "su2":
            return lambda cut: ch.su2_state(two_j / 2.0, zeta, cut)
        p = draw(st.integers(0, two_j))
        return lambda cut: ch.su2_pa_state(two_j / 2.0, zeta, p, cut)
    k = draw(st.sampled_from(SU11_K))
    if family == "su11_bg":
        z = draw(_disk(4.0))
        return lambda cut: ch.su11_bg_state(("two_mode", k), z, cut)
    if family == "su11_pa_bg":
        z, n = draw(_disk(3.0)), draw(st.integers(0, 3))
        return lambda cut: ch.su11_pa_bg_state(k, z, n, cut)
    eta = draw(_disk(0.9))
    if family == "su11_perelomov":
        return lambda cut: ch.su11_perelomov_state(("two_mode", k), eta, cut)
    l_add = draw(st.integers(0, 3))
    return lambda cut: ch.su11_pa_perelomov_state(k, eta, l_add, cut)


FAMILIES = (
    "canonical",
    "nonlinear",
    "photon_added",
    "su2",
    "su2_pa",
    "su11_bg",
    "su11_perelomov",
    "su11_pa_bg",
    "su11_pa_perelomov",
)
_states = st.sampled_from(FAMILIES).flatmap(_builders).map(lambda build: build(None))


def _reference_json(s):
    """The dense-table dump: one row per nonzero entry, in row-major order."""
    table = s.coeffs
    rows = [
        [int(n_p), int(n_m), float(table[n_p, n_m].real), float(table[n_p, n_m].imag)]
        for n_p, n_m in np.argwhere(np.abs(table) > 0)
    ]
    doc = {
        "family": s.family,
        "params": {
            k: ({"re": v.real, "im": v.imag} if isinstance(v, complex) else v)
            for k, v in s.params.items()
        },
        "cutoff": s.cutoff,
        "norm_deficit": s.norm_deficit,
        "coeffs": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


class TestSupport:
    @given(s=_states)
    @settings(max_examples=60, deadline=None)
    def test_json_bytes_match_dense_dump(self, s):
        assert ch.state_to_json(s) == _reference_json(s)

    @given(s=_states)
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_exact(self, s):
        text = ch.state_to_json(s)
        assert ch.state_to_json(ch.state_from_json(text)) == text

    @given(data=st.data(), family=st.sampled_from(FAMILIES))
    @settings(max_examples=60, deadline=None)
    def test_overlap_matches_dense_vdot(self, data, family):
        build_a, build_b = data.draw(_builders(family)), data.draw(_builders(family))
        cut = max(build_a(None).cutoff, build_b(None).cutoff)
        a, b = build_a(cut), build_b(cut)
        want = np.vdot(a.coeffs, b.coeffs)
        assert abs(ch.overlap(a, b) - want) <= 1e-14

    @given(data=st.data(), family=st.sampled_from(["canonical", "su2", "su2_pa", "bg", "perelomov"]))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_norm_deficit(self, data, family):
        # families normalised by an exact constant lose only the truncated tail
        if family == "canonical":
            s = ch.canonical_state(data.draw(_disk(12.0)), data.draw(_disk(12.0)))
        elif family in ("su2", "su2_pa"):
            two_j = data.draw(st.integers(0, 80))
            zeta = data.draw(_disk(5.0))
            if family == "su2":
                s = ch.su2_state(two_j / 2.0, zeta)
            else:
                s = ch.su2_pa_state(two_j / 2.0, zeta, data.draw(st.integers(0, two_j)))
        elif family == "bg":
            k = data.draw(st.sampled_from(SU11_K))
            s = ch.su11_bg_state(("two_mode", k), data.draw(_disk(12.0)))
        else:
            k = data.draw(st.sampled_from(SU11_K))
            s = ch.su11_perelomov_state(("two_mode", k), data.draw(_disk(0.99)))
        assert abs(s.norm_deficit) <= 1e-12

    def test_dense_table_read_only(self):
        s = ch.su2_state(1.0, 0.5)
        with pytest.raises(ValueError):
            s.coeffs[0, 2] = 0.0
        assert s.coeffs[0, 2] != 0.0

    def test_rows_in_any_order_read_back_row_major(self):
        text = ch.state_to_json(ch.su2_state(1.5, 0.4 - 0.2j))
        doc = json.loads(text)
        doc["coeffs"].reverse()
        assert ch.state_to_json(ch.state_from_json(json.dumps(doc))) == text

    @staticmethod
    def _edited(edit):
        doc = json.loads(ch.state_to_json(ch.su2_state(1.0, 0.5)))
        edit(doc["coeffs"])
        return json.dumps(doc)

    def test_negative_index_rejected(self):
        def edit(rows):
            rows[0][0] = -1

        with pytest.raises(InvalidState, match="outside"):
            ch.state_from_json(self._edited(edit))

    def test_index_past_cutoff_rejected(self):
        def edit(rows):
            rows[0][1] = 3

        with pytest.raises(InvalidState, match="outside"):
            ch.state_from_json(self._edited(edit))

    def test_duplicate_row_rejected(self):
        def edit(rows):
            rows.append([rows[0][0], rows[0][1], 0.0, 0.0])

        with pytest.raises(InvalidState, match="twice"):
            ch.state_from_json(self._edited(edit))

    def test_nan_amplitude_rejected(self):
        def edit(rows):
            rows[1][2] = float("nan")

        with pytest.raises(InvalidState, match="non-finite"):
            ch.state_from_json(self._edited(edit))
