"""Tests for the cross-cutting verification checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landau_td import verify
from landau_td.auxode import (
    AuxiliarySolution,
    closed_form_solution,
    default_initial_conditions,
    solve_ep_numeric,
    stationary_solution,
)
from landau_td.coherent import WeightSpec, weight_spec
from landau_td.errors import (
    CutoffTooSmall,
    IntegralNonConvergent,
    OutOfDomain,
    QuadratureNonConvergent,
    StepUnderflow,
)
from landau_td.profiles import make_profile
from landau_td.spectrum import HelicityQuanta, basis_index, build_operator_matrices


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
def flat_aux():
    grid = np.linspace(0.0, 12.0, 401)
    ones = np.ones_like(grid)
    return AuxiliarySolution(
        grid=grid,
        rho=ones,
        rho_dot=np.zeros_like(grid),
        provenance="numeric",
        max_residual=math.nan,
        kappa=1.0,
        rho_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        rho_dot_fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


class TestCheckReport:
    def test_passed_matches_threshold(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(prof, aux, 5.0, n_max=1, tol=1e-7)
        assert rep.passed == (rep.max_residual <= rep.tolerance)

    def test_json_schema(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(prof, aux, 5.0, n_max=1, tol=1e-7)
        payload = json.loads(verify.reports_to_json([rep]))
        assert isinstance(payload, list) and len(payload) == 1
        assert set(payload[0]) == {
            "name",
            "max_residual",
            "tolerance",
            "passed",
            "details",
        }
        assert isinstance(payload[0]["details"], list)

    def test_deterministic(self, static_pair):
        prof, aux = static_pair
        reps = [
            verify.orthonormality_check(prof, aux, 5.0, n_max=2, tol=1e-7)
            for _ in range(2)
        ]
        assert verify.reports_to_json(reps[:1]) == verify.reports_to_json(reps[1:])


class TestOrthonormality:
    def test_static(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(prof, aux, 5.0, n_max=3, tol=1e-8)
        assert rep.passed
        assert rep.max_residual < 1e-8

    def test_non_stationary(self, varying_pair):
        prof, aux = varying_pair
        rep = verify.orthonormality_check(prof, aux, 6.0, n_max=3, tol=1e-7)
        assert rep.max_residual < 1e-7

    def test_unreachable_tolerance_fails(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(
            prof, aux, 5.0, n_max=3, tol=1e-12, n_radial=10, n_angular=16
        )
        assert not rep.passed
        assert rep.max_residual > 1e-12

    def test_uncertified_pass_raises(self, static_pair):
        # refined residual would pass 1e-7 but refinement moved it by ~0.5
        prof, aux = static_pair
        with pytest.raises(QuadratureNonConvergent):
            verify.orthonormality_check(
                prof, aux, 5.0, n_max=3, tol=1e-7, n_radial=10, n_angular=16
            )

    def test_n_max_validation(self, static_pair):
        prof, aux = static_pair
        with pytest.raises(ValueError):
            verify.orthonormality_check(prof, aux, 5.0, n_max=7)
        with pytest.raises(ValueError):
            verify.orthonormality_check(prof, aux, 5.0, n_max=-1)

    def test_details_record_grid(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(prof, aux, 5.0, n_max=2, tol=1e-7)
        row = rep.details[0]
        assert row["states"] == 9
        assert row["radial_nodes"] > 0 and row["angular_nodes"] > 0
        assert row["u_max"] > 0 and row["quadrature_shift"] >= 0


class TestSchrodingerResidual:
    samples_static = [(5.0, 0.8, 0.3), (5.0, 1.3, 2.1)]

    def _by_convention(self, rep):
        return {
            row["convention"]: row["residual"]
            for row in rep.details
            if "convention" in row
        }

    def test_static_adjudication(self, static_pair):
        prof, aux = static_pair
        rep = verify.schrodinger_residual_check(
            HelicityQuanta(1, 0), prof, aux, self.samples_static, tol=1e-4
        )
        res = self._by_convention(rep)
        assert rep.passed
        assert res["integrated"] < 1e-4
        assert res["closed_form"] > 100.0 * res["integrated"]
        # zeroed-phase control sits at the eigenvalue scale (E = 2 here)
        assert res["zeroed"] > 1.5

    def test_static_with_field_and_drive(self):
        prof = make_profile(
            "constant",
            {"M": 1.0, "omega": 1.1, "E1": 0.4, "E2": 0.2},
            q=1.0,
            B=0.8,
            kappa=1.0,
            t0=0.0,
            t1=10.0,
        )
        aux = stationary_solution(prof, np.linspace(0.0, 10.0, 201))
        for q in (HelicityQuanta(1, 0), HelicityQuanta(0, 2)):
            rep = verify.schrodinger_residual_check(
                q, prof, aux, self.samples_static, tol=1e-6
            )
            assert rep.max_residual < 1e-6

    def test_time_dependent_profile(self, varying_pair):
        prof, aux = varying_pair
        rep = verify.schrodinger_residual_check(
            HelicityQuanta(1, 0),
            prof,
            aux,
            [(6.0, 0.8, 0.3), (6.0, 1.3, 2.1)],
            tol=1e-3,
        )
        res = self._by_convention(rep)
        assert rep.passed
        assert res["integrated"] < 1e-3
        assert res["closed_form"] > 1e-2
        assert res["zeroed"] > 1e-1

    def test_breathing_closed_form(self):
        # machine-accurate aux: the residual is limited by the stencils only
        prof = make_profile(
            "constant",
            {"M": 1.0, "omega": 1.1, "E1": 0.0, "E2": 0.0},
            q=1.0,
            B=0.8,
            kappa=2.0,
            t0=0.0,
            t1=10.0,
        )
        big_omega = math.sqrt(1.1**2 + 0.8**2 / 4.0)
        aux = closed_form_solution(
            "pinney_constant",
            {"omega": big_omega, "nu": 2.0, "c2": 0.35, "kappa": 2.0},
            np.linspace(0.0, 10.0, 401),
            profile=prof,
        )
        rep = verify.schrodinger_residual_check(
            HelicityQuanta(1, 0),
            prof,
            aux,
            [(5.0, 0.8, 0.3), (6.2, 1.0, 1.0)],
            tol=1e-5,
        )
        assert rep.max_residual < 1e-5

    def test_step_underflow(self):
        prof = make_profile(
            "constant",
            {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0},
            q=0.0,
            B=0.0,
            kappa=1.0,
            t0=1e9,
            t1=1e9 + 1e-4,
        )
        aux = stationary_solution(prof, np.linspace(1e9, 1e9 + 1e-4, 5))
        with pytest.raises(StepUnderflow):
            verify.schrodinger_residual_check(
                HelicityQuanta(0, 0), prof, aux, [(1e9 + 5e-5, 1.0, 0.0)]
            )

    def test_sample_validation(self, static_pair):
        prof, aux = static_pair
        with pytest.raises(ValueError):
            verify.schrodinger_residual_check(
                HelicityQuanta(0, 0), prof, aux, [(5.0, -0.5, 0.0)]
            )
        with pytest.raises(ValueError):
            verify.schrodinger_residual_check(HelicityQuanta(0, 0), prof, aux, [])
        with pytest.raises(OutOfDomain):
            verify.schrodinger_residual_check(
                HelicityQuanta(0, 0), prof, aux, [(0.0, 1.0, 0.0)]
            )


class TestLRInvariant:
    def test_solution_satisfies_transport(self, varying_pair):
        prof, aux = varying_pair
        rep = verify.lr_invariant_check(prof, aux, 2.0, cutoff=30, tol=1e-6)
        assert rep.passed
        assert rep.max_residual < 1e-6

    def test_non_solution_control(self, varying_pair, flat_aux):
        prof, _ = varying_pair
        rep = verify.lr_invariant_check(prof, flat_aux, 2.0, cutoff=24, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual > 1e-2

    def test_stationary_exact(self, static_pair):
        prof, aux = static_pair
        rep = verify.lr_invariant_check(prof, aux, 5.0, cutoff=16, tol=1e-6)
        assert rep.max_residual < 1e-12

    def test_details(self, varying_pair):
        prof, aux = varying_pair
        rep = verify.lr_invariant_check(prof, aux, 2.0, cutoff=16, tol=1e-6)
        row = rep.details[0]
        assert row["lz_commutator"] == 0.0
        assert row["frozen_reconstruction"] < 1e-10
        assert row["band"] == 2
        assert row["invariant_norm"] > 0

    def test_cutoff_guard(self, static_pair):
        prof, aux = static_pair
        with pytest.raises(CutoffTooSmall):
            verify.lr_invariant_check(prof, aux, 5.0, cutoff=9)


class TestAlgebra:
    def test_all_identities(self):
        rep = verify.algebra_check(cutoff=20, tol=1e-10)
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert len(rep.details) == 21

    def test_raising_amplitude(self):
        rep = verify.algebra_check(cutoff=8)
        row = next(
            r for r in rep.details if r["identity"] == "J+ amplitude (0,1) -> (1,0)"
        )
        assert row["residual"] < 1e-12

    def test_casimir_on_symmetric_states(self, static_pair):
        # lowest-weight tower n+ = n-: the quadratic su(1,1) combination
        # reduces to the scalar -1/4
        prof, aux = static_pair
        mats = build_operator_matrices(prof, aux, 5.0, cutoff=8)
        k0 = mats["K0"].entries
        kp = mats["K+"].entries
        km = mats["K-"].entries
        cas = (k0 @ k0 - 0.5 * (kp @ km + km @ kp)).toarray()
        for n in range(3):
            i = basis_index(n, n, 8)
            assert cas[i, i] == pytest.approx(-0.25, abs=1e-13)

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            verify.algebra_check(cutoff=5)


class TestMomentProblem:
    def test_canonical_factorials(self):
        rep = verify.moment_problem_check(weight_spec("canonical", {}), m_max=6, tol=1e-10)
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert [row["order"] for row in rep.details] == list(range(7))

    def test_su2_pa(self):
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": 1.0, "p": 1}), m_max=6, tol=1e-5
        )
        assert rep.passed
        # admissible orders clamp at 2j - p = 1
        assert [row["order"] for row in rep.details] == [0, 1]

    def test_su2_pa_wider(self):
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": 2.0, "p": 2}), m_max=6, tol=1e-5
        )
        assert rep.max_residual < 1e-5

    def test_bg_pa_offset_power(self):
        rep = verify.moment_problem_check(
            weight_spec("bg_pa", {"k": 1.0, "n": 1}), m_max=4, tol=1e-4
        )
        assert rep.passed
        assert all(row["power"] == row["order"] + 1 for row in rep.details)

    def test_wrong_sign_control(self):
        ws = weight_spec("canonical", {})
        bad = WeightSpec(
            family="canonical",
            evaluator=lambda x: -ws.evaluator(x),
            moment_target=ws.moment_target,
        )
        rep = verify.moment_problem_check(bad, m_max=3, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(2.0, rel=1e-6)

    def test_noisy_integrand_raises(self):
        ws = weight_spec("canonical", {})
        noisy = WeightSpec(
            family="canonical",
            evaluator=lambda x: np.exp(-x) * (1.0 + 1e-6 * np.sin(7000.0 * x)),
            moment_target=ws.moment_target,
        )
        with pytest.raises(IntegralNonConvergent):
            verify.moment_problem_check(noisy, m_max=2, tol=1e-6)

    @settings(max_examples=19, deadline=None)
    @given(
        k=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        l=st.integers(min_value=0, max_value=4),
    )
    def test_perelomov_pa_property(self, k, l):
        assume(not (k == 0.5 and l == 0))  # a point mass, rejected by weight_spec
        rep = verify.moment_problem_check(
            weight_spec("perelomov_pa", {"k": k, "l": l}), m_max=8, tol=1e-10
        )
        assert rep.passed
        assert [row["order"] for row in rep.details] == list(range(9))

    @settings(max_examples=10, deadline=None)
    @given(two_j=st.integers(min_value=1, max_value=8), data=st.data())
    def test_su2_pa_property(self, two_j, data):
        p = data.draw(st.integers(min_value=0, max_value=two_j))
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": two_j / 2.0, "p": p}), m_max=8, tol=1e-10
        )
        assert rep.passed
        assert len(rep.details) == two_j - p + 1

    @settings(max_examples=10, deadline=None)
    @given(
        k=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]),
        n=st.integers(min_value=0, max_value=3),
    )
    def test_bg_pa_property(self, k, n):
        rep = verify.moment_problem_check(
            weight_spec("bg_pa", {"k": k, "n": n}), m_max=6, tol=1e-10
        )
        assert rep.passed

    def test_empty_order_window(self):
        with pytest.raises(ValueError):
            verify.moment_problem_check(weight_spec("canonical", {}), m_max=-1)


class TestSuite:
    def test_static_suite_passes(self, static_pair):
        prof, aux = static_pair
        reports = verify.standard_suite(prof, aux)
        names = [r.name for r in reports]
        assert names == [
            "orthonormality",
            "schrodinger_residual",
            "lr_invariant",
            "algebra",
            "moments_canonical",
            "moments_su2_pa",
        ]
        assert all(r.passed for r in reports)

    def test_subset(self, static_pair):
        prof, aux = static_pair
        reports = verify.standard_suite(prof, aux, checks=["algebra"])
        assert [r.name for r in reports] == ["algebra"]

    def test_unknown_check(self, static_pair):
        prof, aux = static_pair
        with pytest.raises(ValueError):
            verify.standard_suite(prof, aux, checks=["algebra", "spectral_gap"])
