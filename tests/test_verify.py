"""Tests for the cross-cutting verification checks."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from landau_td import spectrum, verify
from landau_td.auxode import (
    AuxiliarySolution,
    closed_form_solution,
    default_initial_conditions,
    solve_ep_numeric,
    stationary_solution,
)
from landau_td.coherent import WeightSpec, single_mode_wavefunction, weight_spec
from landau_td.errors import (
    CutoffTooSmall,
    IntegralNonConvergent,
    OutOfDomain,
    StepUnderflow,
)
from landau_td.profiles import make_profile
from landau_td.spectrum import HelicityQuanta, basis_index, build_operator_matrices
from reference import KIND_PARAMS, kind_profile, lr_invariant_reference


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
        envelope_fn=lambda t: (
            np.ones_like(np.asarray(t, dtype=float)),
            np.zeros_like(np.asarray(t, dtype=float)),
        ),
        # kappa/(M rho^2) at M = 1
        theta_fn=lambda t: np.asarray(t, dtype=float) - grid[0],
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


@functools.lru_cache(maxsize=None)
def _breathing_pair(kind):
    """One profile of each kind (the tabulated one also with E-field tables)
    and an off-equilibrium envelope, so rho' and the chirp are nonzero."""
    base = "tabulated" if kind == "tabulated-fields" else kind
    params = dict(KIND_PARAMS[base])
    if kind == "tabulated-fields":
        t = params["t"]
        params["E1"] = 0.2 * (1.0 + 0.3 * np.sin(0.7 * t))
        params["E2"] = -0.1 + 0.1 * np.cos(0.4 * t)
    prof = make_profile(base, params, q=1.0, B=0.9, kappa=1.3, t0=0.0, t1=12.0)
    rho0, _ = default_initial_conditions(prof)
    aux = solve_ep_numeric(prof, 1.3 * rho0, 0.2, np.linspace(0.0, 12.0, 401))
    return prof, aux


class TestOrthonormality:
    def test_static(self, static_pair):
        prof, aux = static_pair
        rep = verify.orthonormality_check(prof, aux, 5.0, n_max=3, tol=1e-12)
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_non_stationary(self, varying_pair):
        prof, aux = varying_pair
        rep = verify.orthonormality_check(prof, aux, 6.0, n_max=3, tol=1e-12)
        assert rep.max_residual < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(sorted(KIND_PARAMS) + ["tabulated-fields"]),
        t=st.floats(min_value=0.0, max_value=12.0),
        n_max=st.integers(min_value=0, max_value=8),
    )
    def test_exact_rule_property(self, kind, t, n_max):
        prof, aux = _breathing_pair(kind)
        rep = verify.orthonormality_check(prof, aux, t, n_max=n_max, tol=1e-13)
        assert rep.max_residual <= 1e-13
        assert rep.passed

    def test_detects_a_misnormalised_state(self, varying_pair, monkeypatch):
        prof, aux = varying_pair
        exact = verify.wavefunction_polar

        def scaled(q, *args):
            phi = exact(q, *args)
            return phi * (1.0 + 1e-9) if q == HelicityQuanta(1, 0) else phi

        monkeypatch.setattr(verify, "wavefunction_polar", scaled)
        rep = verify.orthonormality_check(prof, aux, 6.0, n_max=2, tol=1e-12)
        assert rep.max_residual == pytest.approx(2e-9, rel=1e-3)
        assert not rep.passed

    def test_n_max_validation(self, static_pair):
        prof, aux = static_pair
        with pytest.raises(ValueError):
            verify.orthonormality_check(prof, aux, 5.0, n_max=-1)

    def test_details_record_grid(self, static_pair):
        prof, aux = static_pair
        for n_max in (0, 2, 5):
            rep = verify.orthonormality_check(prof, aux, 5.0, n_max=n_max)
            assert rep.details == [
                {
                    "states": (n_max + 1) ** 2,
                    "radial_nodes": n_max + 1,
                    "angular_nodes": 2 * n_max + 1,
                }
            ]


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

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(sorted(KIND_PARAMS)),
        fraction=st.floats(0.02, 0.98),
        cutoff=st.integers(10, 40),
    )
    def test_same_bits_as_general_sparse_products(self, kind, fraction, cutoff):
        prof, aux = _kind_pair(kind)
        t = prof.t0 + fraction * prof.span
        rep = verify.lr_invariant_check(prof, aux, t, cutoff=cutoff)
        residual, row = lr_invariant_reference(prof, aux, t, cutoff)
        assert rep.max_residual == residual
        assert rep.details == [row]

    @pytest.mark.parametrize("cutoff", [10, 24])
    def test_same_bits_on_the_stationary_and_non_solution_cases(
        self, static_pair, varying_pair, flat_aux, cutoff
    ):
        for prof, aux, t in ((*static_pair, 5.0), (varying_pair[0], flat_aux, 2.0)):
            rep = verify.lr_invariant_check(prof, aux, t, cutoff=cutoff)
            residual, row = lr_invariant_reference(prof, aux, t, cutoff)
            assert rep.max_residual == residual
            assert rep.details == [row]

    def test_builds_the_matrices_once(self, varying_pair, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return build_operator_matrices(*args, **kwargs)

        monkeypatch.setattr(verify, "build_operator_matrices", counting)
        prof, aux = varying_pair
        for n, cutoff in enumerate((10, 16, 16), start=1):
            verify.lr_invariant_check(prof, aux, 2.0, cutoff=cutoff)
            assert len(calls) == n


@functools.lru_cache(maxsize=None)
def _kind_pair(kind):
    prof = kind_profile(kind)
    grid = np.linspace(prof.t0, prof.t1, 241)
    return prof, solve_ep_numeric(prof, *default_initial_conditions(prof), grid)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(3, 40), keep=st.integers(1, 2**40))
def test_interior_entries_are_the_sorted_block(seed, size, keep):
    # a product leaves each row's columns unsorted; the block copied out by
    # fancy indexing and duplicate-summed lists the same entries, stored
    # zeros included
    from scipy import sparse

    rng = np.random.default_rng(seed)
    a = sparse.random(size, size, density=0.3, format="csr", rng=rng, dtype=complex)
    b = sparse.random(size, size, density=0.3, format="csr", rng=rng, dtype=complex)
    a.data += 1j * rng.standard_normal(a.nnz)
    mat = a @ b
    mat.data[::5] = 0.0
    mask = np.array([(keep >> (i % 40)) & 1 for i in range(size)], dtype=bool)
    block = mat[np.nonzero(mask)[0]][:, np.nonzero(mask)[0]]
    block.sum_duplicates()
    got = verify._interior_entries(mat, mask)
    assert got.tobytes() == block.data.tobytes()


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
        k0, kp, km = mats["K0"], mats["K+"], mats["K-"]
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
            weight_spec("su2_pa", {"j": 1.0, "p": 1}), m_max=6, tol=1e-10
        )
        assert rep.passed
        # admissible orders clamp at 2j - p = 1
        assert [row["order"] for row in rep.details] == [0, 1]

    def test_su2_pa_wider(self):
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": 2.0, "p": 2}), m_max=6, tol=1e-10
        )
        assert rep.max_residual < 1e-10

    def test_bg_pa_offset_power(self):
        rep = verify.moment_problem_check(
            weight_spec("bg_pa", {"k": 1.0, "n": 1}), m_max=4, tol=1e-10
        )
        assert rep.passed
        assert all(row["power"] == row["order"] + 1 for row in rep.details)

    def test_wrong_scale_control(self):
        # twice the weight: every moment is twice its target
        ws = weight_spec("canonical", {})
        bad = WeightSpec(
            family="canonical",
            evaluator=lambda x: ws.evaluator(x) + math.log(2.0),
            moment_target=ws.moment_target,
        )
        rep = verify.moment_problem_check(bad, m_max=3, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual == pytest.approx(0.5, rel=1e-6)

    def test_nan_log_weight_raises(self):
        # a weight that is not positive somewhere has no log there
        ws = weight_spec("canonical", {})
        bad = WeightSpec(
            family="canonical",
            evaluator=lambda x: np.where(x > 3.0, np.nan, ws.evaluator(x)),
            moment_target=ws.moment_target,
        )
        with pytest.raises(IntegralNonConvergent, match="not finite"):
            verify.moment_problem_check(bad, m_max=3, tol=1e-6)

    def test_noisy_integrand_raises(self):
        ws = weight_spec("canonical", {})
        noisy = WeightSpec(
            family="canonical",
            evaluator=lambda x: -x + np.log1p(1e-6 * np.sin(7000.0 * x)),
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
    @given(two_j=st.integers(min_value=1, max_value=100), data=st.data())
    def test_su2_pa_property(self, two_j, data):
        p = data.draw(st.integers(min_value=0, max_value=two_j))
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": two_j / 2.0, "p": p}), m_max=8, tol=1e-10
        )
        assert rep.passed
        assert len(rep.details) == min(two_j - p, 8) + 1

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

    @pytest.mark.parametrize(
        "two_j, p",
        [(100, 89), (100, 90), (100, 92), (100, 93), (100, 99), (100, 100),
         (96, 87), (96, 88), (96, 93)],
    )
    def test_near_edge_su2_pa(self, two_j, p):
        # weights and moments near and below the double underflow threshold
        # (the m = 0 moment at (100, 100) is 1.1e-316): the check works in
        # logs, so their relative error is the quadrature's
        rep = verify.moment_problem_check(
            weight_spec("su2_pa", {"j": two_j / 2.0, "p": p}), m_max=8, tol=1e-10
        )
        assert rep.passed
        assert len(rep.details) == min(two_j - p, 8) + 1

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


# every reader of an auxiliary solution, called at time t
_READERS = {
    "hamiltonian_expectation": lambda p, a, t: spectrum.hamiltonian_expectation(
        HelicityQuanta(0, 0), p, a, t
    ),
    "wavefunction_polar": lambda p, a, t: spectrum.wavefunction_polar(
        HelicityQuanta(1, 0), p, a, t, 0.8, 0.3
    ),
    "wavefunction_cartesian": lambda p, a, t: spectrum.wavefunction_cartesian(
        1, 0, p, a, t, 0.5, 0.2
    ),
    "uncertainty_product": lambda p, a, t: spectrum.uncertainty_product(0, 0, p, a, t),
    "evolution_params": lambda p, a, t: spectrum.evolution_params(p, a, t),
    "build_operator_matrices": lambda p, a, t: build_operator_matrices(p, a, t, 4),
    "single_mode_wavefunction": lambda p, a, t: single_mode_wavefunction(
        "bg", 1, 0.5, p, a, t, np.array([0.5]), 0.0
    ),
    "orthonormality_check": lambda p, a, t: verify.orthonormality_check(p, a, t, n_max=1),
    "schrodinger_residual_check": lambda p, a, t: verify.schrodinger_residual_check(
        HelicityQuanta(1, 0), p, a, [(t, 0.8, 0.4)]
    ),
    "lr_invariant_check": lambda p, a, t: verify.lr_invariant_check(p, a, t, cutoff=10),
}


@pytest.fixture(scope="module")
def sub_span_pair():
    """The sinusoidal kind's profile on [0, 12] and its envelope solved on [2, 5] only."""
    prof = kind_profile("sinusoidal")
    grid = np.linspace(2.0, 5.0, 31)
    return prof, solve_ep_numeric(prof, *default_initial_conditions(prof), grid)


@pytest.fixture(scope="module")
def wide_span_pair():
    """A constant profile on [0, 10] and a closed-form envelope on [0, 12]:
    the solution's span covers times outside the profile's window."""
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, kappa=2.0, t0=0.0, t1=10.0)
    grid = np.linspace(0.0, 12.0, 241)
    return prof, closed_form_solution("pinney_constant", {"omega": 1.0, "nu": 2.0}, grid)


class TestReadersStayInTheWindow:
    """A time on the solution's span but outside the profile's window is
    refused by every reader that reads the profile at one frozen time."""

    @pytest.mark.parametrize(
        "reader",
        [
            "wavefunction_polar",
            "wavefunction_cartesian",
            "uncertainty_product",
            "single_mode_wavefunction",
            "orthonormality_check",
        ],
    )
    def test_past_the_window(self, wide_span_pair, reader):
        prof, aux = wide_span_pair
        with pytest.raises(OutOfDomain, match="outside profile window"):
            _READERS[reader](prof, aux, 11.0)

    def test_the_time_step_past_the_window(self, wide_span_pair):
        # t is the window's end, so the invariant read at t + h lies past it
        prof, aux = wide_span_pair
        _READERS["wavefunction_polar"](prof, aux, 10.0)
        with pytest.raises(OutOfDomain, match="outside profile window"):
            _READERS["lr_invariant_check"](prof, aux, 10.0)


class TestReadersStayOnTheSpan:
    """A time inside the profile's window but past the solution's span is
    refused by every reader, through the solution's own evaluators."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("t", [1.0, 8.0])
    def test_past_the_span(self, sub_span_pair, reader, t):
        prof, aux = sub_span_pair
        with pytest.raises(OutOfDomain, match="outside solution grid"):
            _READERS[reader](prof, aux, t)

    @pytest.mark.parametrize("check", ["schrodinger_residual_check", "lr_invariant_check"])
    @pytest.mark.parametrize("t", [2.0, 5.0])
    def test_the_time_step_past_the_span(self, sub_span_pair, check, t):
        # t is an end of the span, so t - h or t + h lies past it, inside the window
        prof, aux = sub_span_pair
        _READERS["wavefunction_polar"](prof, aux, t)
        with pytest.raises(OutOfDomain, match="outside solution grid"):
            _READERS[check](prof, aux, t)
