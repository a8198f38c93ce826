"""Tests for the landau-td command line interface."""

import json
import math
import re

import numpy as np
import pytest

from landau_td import __version__, coherent
from landau_td.cli import main
from landau_td.profiles import make_profile, profile_to_json
from landau_td.verify import CheckReport


@pytest.fixture()
def static_profile_file(tmp_path):
    prof = make_profile(
        "constant",
        {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0},
        q=0.0,
        B=0.0,
        kappa=1.0,
        t0=0.0,
        t1=10.0,
    )
    path = tmp_path / "static.json"
    path.write_text(profile_to_json(prof))
    return str(path)


@pytest.fixture()
def varying_profile_file(tmp_path):
    prof = make_profile(
        "sinusoidal",
        {"M": 1.0, "omega0": 1.2, "depth": 0.3, "rate": 0.7, "E1": 0.0, "E2": 0.0},
        q=1.0,
        B=0.9,
        kappa=1.0,
        t0=0.0,
        t1=12.0,
    )
    path = tmp_path / "varying.json"
    path.write_text(profile_to_json(prof))
    return str(path)


def run_cli(capsys, args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestAux:
    def test_happy_path(self, capsys, static_profile_file, tmp_path):
        out_file = tmp_path / "rho.csv"
        code, out, err = run_cli(
            capsys,
            ["aux", "--profile", static_profile_file, "--t1", "10", "--out", str(out_file)],
        )
        assert code == 0 and err == ""
        header, rows = parse_csv(out_file.read_text())
        assert header == ["t", "rho", "rho_dot", "residual"]
        assert rows.shape == (401, 4)
        # stationary start: rho stays at the adiabatic value
        assert np.allclose(rows[:, 1], 1.0, atol=1e-8)
        # edge samples carry no centered residual stencil
        assert np.isnan(rows[0, 3]) and np.isnan(rows[-1, 3])
        assert np.nanmax(rows[:, 3]) < 1e-8

    def test_seventeen_digit_format(self, capsys, static_profile_file):
        code, out, _ = run_cli(
            capsys, ["aux", "--profile", static_profile_file, "--samples", "5"]
        )
        assert code == 0
        first_value = out.split("\n")[1].split(",")[0]
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", first_value)

    def test_window_override(self, capsys, static_profile_file):
        code, out, _ = run_cli(
            capsys,
            ["aux", "--profile", static_profile_file, "--t1", "5", "--samples", "11"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1, 0] == pytest.approx(5.0)

    def test_byte_identical(self, capsys, varying_profile_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, ["aux", "--profile", varying_profile_file, "--out", str(path)]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_profile(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["aux", "--profile", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "cannot read profile" in err

    def test_bad_window(self, capsys, static_profile_file):
        code, _, err = run_cli(
            capsys, ["aux", "--profile", static_profile_file, "--t1", "-1"]
        )
        assert code == 1
        assert "t1 > t0" in err

    def test_blowup_exits_2(self, capsys, tmp_path):
        prof = make_profile(
            "exponential-mass",
            {"M0": 1.0, "alpha": 4.0, "omega": 1.0, "E1": 0.0, "E2": 0.0},
            q=0.0,
            B=0.0,
            kappa=1.0,
            t0=0.0,
            t1=40.0,
        )
        path = tmp_path / "blow.json"
        path.write_text(profile_to_json(prof))
        code, _, err = run_cli(capsys, ["aux", "--profile", str(path)])
        assert code == 2
        assert "numerical failure" in err


class TestClassical:
    def test_trajectory(self, capsys, varying_profile_file):
        code, out, _ = run_cli(
            capsys,
            [
                "classical",
                "--profile",
                varying_profile_file,
                "--z0",
                "1+0.5i",
                "--z-dot0",
                "0",
                "--samples",
                "201",
            ],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "re_z", "im_z", "re_z_dot", "im_z_dot", "residual"]
        assert rows[0, 1] == pytest.approx(1.0)
        assert rows[0, 2] == pytest.approx(0.5)
        assert np.nanmax(rows[:, 5]) < 1e-4

    def test_bad_complex_literal(self, capsys, varying_profile_file):
        code, _, err = run_cli(
            capsys,
            ["classical", "--profile", varying_profile_file, "--z0", "1+2x"],
        )
        assert code == 1
        assert "a+bi" in err


class TestSpectrum:
    def test_static_ground_trace(self, capsys, static_profile_file):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--profile", static_profile_file, "--samples", "101"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "rho", "energy", "gamma", "gamma_closed_form"]
        assert np.allclose(rows[:, 2], 1.0, atol=1e-8)
        # d(gamma)/dt = -kappa/(M rho^2) = -1 for the stationary ground state
        assert rows[-1, 3] == pytest.approx(-10.0, abs=1e-8)
        assert rows[-1, 4] == pytest.approx(-5.0, abs=1e-8)

    def test_inconsistent_phase_exits_2(self, capsys, static_profile_file, monkeypatch):
        # phase_gamma cross-checks its integrand against <i d/dt> - <H>; a
        # disagreement is a typed numerical failure, not an AssertionError
        from landau_td import auxode, spectrum
        from landau_td.errors import InconsistentPhase
        from landau_td.profiles import profile_from_json

        true_energy = spectrum.hamiltonian_expectation
        monkeypatch.setattr(
            spectrum, "hamiltonian_expectation", lambda *args: true_energy(*args) + 1.0
        )
        with open(static_profile_file) as fh:
            prof = profile_from_json(fh.read())
        grid = np.linspace(0.0, 1.0, 11)
        aux = auxode.stationary_solution(prof, grid)
        with pytest.raises(InconsistentPhase):
            spectrum.phase_gamma(spectrum.HelicityQuanta(0, 0), prof, aux, grid)
        code, out, err = run_cli(
            capsys, ["spectrum", "--profile", static_profile_file, "--samples", "11"]
        )
        assert code == 2
        assert out == ""
        assert "numerical failure" in err


class TestWavefunction:
    def test_polar_samples(self, capsys, static_profile_file):
        code, out, _ = run_cli(
            capsys,
            [
                "wavefunction",
                "--profile",
                static_profile_file,
                "--t",
                "2.0",
                "--r-points",
                "5",
                "--theta-points",
                "4",
            ],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "theta", "re_psi", "im_psi", "prob"]
        assert rows.shape == (20, 5)
        # stationary ground state: |psi(0)|^2 = kappa/pi
        assert rows[0, 4] == pytest.approx(1.0 / math.pi, rel=1e-10)
        # the accumulated phase rotates the components but not the modulus
        assert rows[0, 2] ** 2 + rows[0, 3] ** 2 == pytest.approx(
            rows[0, 4], rel=1e-12
        )
        assert abs(rows[0, 3]) > 0.1

    def test_time_outside_window(self, capsys, static_profile_file):
        code, _, err = run_cli(
            capsys,
            ["wavefunction", "--profile", static_profile_file, "--t", "11.0"],
        )
        assert code == 1


class TestCoherent:
    def test_su2_dump_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys,
            [
                "coherent",
                "--family",
                "su2",
                "--j",
                "1.5",
                "--zeta",
                "0.3+0.1i",
                "--out",
                str(out_file),
            ],
        )
        assert code == 0
        text = out_file.read_text()
        state = coherent.state_from_json(text)
        ref = coherent.su2_state(1.5, 0.3 + 0.1j)
        assert state.family == "su2"
        assert state.cutoff == ref.cutoff
        assert np.allclose(state.coeffs, ref.coeffs)

    def test_bg_dump_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["coherent", "--family", "bg", "--k", "1.0", "--z", "0.8"],
        )
        assert code == 0
        state = coherent.state_from_json(out)
        ref = coherent.su11_bg_state(("two_mode", 1.0), 0.8)
        assert np.allclose(state.coeffs, ref.coeffs)

    def test_pa_canonical(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "coherent",
                "--family",
                "pa_canonical",
                "--z-plus",
                "0.5",
                "--z-minus",
                "0.2i",
                "--m-plus",
                "1",
                "--m-minus",
                "0",
            ],
        )
        assert code == 0
        state = coherent.state_from_json(out)
        ref = coherent.photon_added_state(0.5, 0.2j, 1, 0, 40)
        assert np.allclose(state.coeffs, ref.coeffs)

    def test_validation_exit_codes(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["coherent", "--family", "perelomov", "--k", "1.0", "--eta", "1.5"],
        )
        assert code == 1 and "eta" in err
        code, _, err = run_cli(capsys, ["coherent", "--family", "su2", "--zeta", "0.3"])
        assert code == 1 and "--j is required" in err
        code, _, err = run_cli(capsys, ["coherent", "--family", "warped"])
        assert code == 1

    def test_deterministic_stdout(self, capsys):
        args = ["coherent", "--family", "canonical", "--z-plus", "0.4+0.2i", "--z-minus", "0.1"]
        code_a, out_a, _ = run_cli(capsys, args)
        code_b, out_b, _ = run_cli(capsys, args)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestVerify:
    def test_subset_suite(self, capsys, static_profile_file):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--suite", "algebra,moments", "--profile", static_profile_file],
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["name"] for r in reports] == [
            "algebra",
            "moments_canonical",
            "moments_su2_pa",
        ]
        assert all(r["passed"] for r in reports)
        assert all(
            set(r) == {"name", "max_residual", "tolerance", "passed", "details"}
            for r in reports
        )

    def test_unknown_suite_entry(self, capsys, static_profile_file):
        code, _, err = run_cli(
            capsys,
            ["verify", "--suite", "algebra,warp", "--profile", static_profile_file],
        )
        assert code == 1
        assert "warp" in err

    def test_failing_check_exits_3(self, capsys, static_profile_file, monkeypatch):
        import landau_td.verify as verify_mod

        def fake_suite(profile, aux, checks=None):
            return [
                CheckReport(
                    name="algebra",
                    max_residual=1.0,
                    tolerance=1e-10,
                    passed=False,
                    details=[],
                )
            ]

        monkeypatch.setattr(verify_mod, "standard_suite", fake_suite)
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "algebra", "--profile", static_profile_file]
        )
        assert code == 3
        assert json.loads(out)[0]["passed"] is False


class TestEnvironment:
    def test_thread_cap_applied(self, capsys, static_profile_file, monkeypatch):
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("LANDAU_TD_THREADS", "2")
        code, _, _ = run_cli(
            capsys, ["aux", "--profile", static_profile_file, "--samples", "5"]
        )
        assert code == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_invalid_thread_cap(self, capsys, static_profile_file, monkeypatch):
        monkeypatch.setenv("LANDAU_TD_THREADS", "zero")
        code, _, err = run_cli(
            capsys, ["aux", "--profile", static_profile_file, "--samples", "5"]
        )
        assert code == 1
        assert "LANDAU_TD_THREADS" in err

    def test_version_and_help(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "a+bi" in out
        code, out, _ = run_cli(capsys, ["--version"])
        assert code == 0
        assert out == f"landau-td, version {__version__}\n"
