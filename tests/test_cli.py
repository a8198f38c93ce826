"""Tests for the landau-td command line interface."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from landau_td import __version__, coherent
from landau_td.cli import main
from landau_td.profiles import make_profile, profile_to_json
from landau_td.verify import CheckReport
from reference import KIND_PARAMS, kind_profile, laguerre_function_mp


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

    def test_overflowing_first_rates_exit_2(self, capsys, tmp_path):
        # rho'' = -Omega^2 rho at Omega = 1e100, far from the stationary
        # envelope: the rates overflow the first step's norm
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1e100}}))
        code, out, err = run_cli(capsys, ["aux", "--profile", str(path), "--rho0", "1"])
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


_BASE_PROFILE = {"kind": "constant", "params": {"M": 1.0, "omega": 1.0}, "t1": 5.0}
_BASE_TEXT = '{"kind": "constant", "params": {"M": 1.0, "omega": 1.0}, %s}'
_TABLES = {"t": [0.0, 1.0, 2.0, 3.0], "M": [1.0] * 4, "omega": [1.0] * 4}


def _tabulated(**tables):
    return {"kind": "tabulated", "params": {**_TABLES, **tables}, "t1": 3.0}


# valid scalar entries of each analytic kind, and of the window
_KIND_SCALARS = {
    "constant": {"M": 1.0, "omega": 1.0, "E1": 0.1, "E2": 0.1},
    "exponential-mass": {"M0": 1.0, "alpha": 0.1, "omega": 1.0},
    "exponential-frequency": {"M": 1.0, "tau": 1.0, "alpha": 0.1},
    "sinusoidal": {"M": 1.0, "omega0": 1.0, "depth": 0.3, "rate": 0.7},
}
_WINDOW = {"q": 0.5, "B": 0.5, "kappa": 1.0, "t0": 0.0, "t1": 5.0}


def _string_entries():
    """Every scalar entry, and a table sample, given as a JSON string of a
    valid number: numpy reads "1" as 1, JSON does not."""
    for kind, params in _KIND_SCALARS.items():
        for name, value in params.items():
            doc = {"kind": kind, "params": {**params, name: str(value)}, **_WINDOW}
            yield pytest.param(doc, name, id=f"{kind}-{name}-string")
    for name, value in _WINDOW.items():
        doc = {"kind": "constant", "params": _KIND_SCALARS["constant"], **_WINDOW, name: str(value)}
        yield pytest.param(doc, name, id=f"{name}-string")
    yield pytest.param(_tabulated(M=[1.0, "1.0", 1.0, 1.0]), "M", id="tabulated-M-string")


@pytest.mark.parametrize(
    "doc, entry",
    [
        pytest.param({**_BASE_PROFILE, "q": None}, "q", id="q-null"),
        pytest.param({**_BASE_PROFILE, "t1": None}, "t1", id="t1-null"),
        pytest.param({**_BASE_PROFILE, "params": 5}, "params", id="params-number"),
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": [1, 2], "omega": 1.0}}, "M", id="constant-M-list"
        ),
        pytest.param(_tabulated(E1=[[1]]), "E1", id="tabulated-E1-nested"),
        pytest.param(_tabulated(E1=[[1], [1, 2], [1], [1]]), "E1", id="tabulated-E1-ragged"),
        pytest.param(_tabulated(M=[[1.0]] * 4), "M", id="tabulated-M-nested"),
        # non-finite entries; JSON text where 1e400 or a 400-digit integer
        # overflows a float, Python's NaN/Infinity extensions elsewhere
        pytest.param(_BASE_TEXT % '"t1": 1e400', "t1", id="t1-1e400"),
        pytest.param(_BASE_TEXT % ('"t1": 1' + "0" * 400), "t1", id="t1-huge-int"),
        pytest.param({**_BASE_PROFILE, "kappa": math.nan}, "kappa", id="kappa-nan"),
        pytest.param(_BASE_TEXT % '"q": 1e400', "q", id="q-1e400"),
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1.0, "E1": math.inf}},
            "E1",
            id="constant-E1-inf",
        ),
        pytest.param(_tabulated(t=[0.0, 1.0, math.nan, 3.0]), "t", id="tabulated-t-nan"),
        pytest.param(_tabulated(M=[1.0, math.inf, 1.0, 1.0]), "M", id="tabulated-M-inf"),
        pytest.param(_tabulated(omega=[1.0, None, 1.0, 1.0]), "omega", id="tabulated-omega-null"),
        pytest.param(_tabulated(E1=[0.0, -math.inf, 0.0, 0.0]), "E1", id="tabulated-E1-inf"),
        pytest.param(_tabulated(E2=[0.0, math.nan, 0.0, 0.0]), "E2", id="tabulated-E2-nan"),
        pytest.param(_tabulated(t=[0.0, 2.0, 1.0, 3.0]), "t", id="tabulated-t-not-increasing"),
        pytest.param(_tabulated(t=[0.0, 1.0, 1.0, 3.0]), "t", id="tabulated-t-repeated"),
        # JSON true and false are not numbers
        pytest.param(
            {"kind": "exponential-mass", "params": {"alpha": True, "omega": 1.0}, "t1": 5.0},
            "alpha",
            id="alpha-true",
        ),
        pytest.param({**_BASE_PROFILE, "kappa": False}, "kappa", id="kappa-false"),
        pytest.param(_tabulated(M=[1.0, True, 1.0, 1.0]), "M", id="tabulated-M-true"),
        # JSON strings are not numbers either
        *_string_entries(),
        # the secants of a finite table overflow
        pytest.param(_tabulated(E1=[1e308, -1e308, 0.0, 0.0]), "E1", id="tabulated-E1-overflow"),
        # Omega = sqrt(omega^2 + ...) overflows although omega is finite
        pytest.param(
            {
                "kind": "exponential-mass",
                "params": {"alpha": 0.1, "omega": 1e300},
                "kappa": 1e-200,
                "t1": 5.0,
            },
            "omega",
            id="Omega-overflow",
        ),
        # and omega^2 underflows to 0 although omega > 0
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1e-200}}, "omega", id="Omega-underflow"
        ),
        # |E|^2 or the drive energy q^2 |E|^2 / (2 M omega) overflows
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1.0, "E1": 1e200}}, "E1", id="E1-squared"
        ),
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1.0, "E1": 1.0, "E2": -1e160}},
            "E2",
            id="E2-squared",
        ),
        pytest.param(_tabulated(E1=[0.0, 1e200, 0.0, 0.0]), "E1", id="tabulated-E1-squared"),
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1.0, "E1": 1e100}, "q": 1e110},
            "q",
            id="drive-energy-overflow",
        ),
        # kappa^2 overflows in the envelope equation
        pytest.param({**_BASE_PROFILE, "kappa": 1e160}, "kappa", id="kappa-squared-overflow"),
        # the stationary envelope sqrt(kappa / (M Omega)) underflows to 0
        pytest.param(
            {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1e100}, "kappa": 1e-300},
            "kappa",
            id="stationary-envelope-underflow",
        ),
    ],
)
def test_malformed_profile_is_an_input_error(capsys, tmp_path, doc, entry):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, ["aux", "--profile", str(path), "--samples", "5"])
    assert code == 1 and out == ""
    # one error line naming the entry, and nothing else: no traceback, no warning
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert f"'{entry}'" in err


@pytest.mark.parametrize("verb", ["aux", "classical", "spectrum", "verify"])
def test_overflowing_field_is_an_input_error_without_warnings(tmp_path, verb):
    # a cold process, so numpy's warnings reach stderr as a user sees them
    import landau_td

    doc = {**_BASE_PROFILE, "params": {"M": 1.0, "omega": 1.0, "E1": 1e200}, "q": 1.0}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(landau_td.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "landau_td.cli", verb, "--profile", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "Warning" not in done.stderr
    assert done.stderr.startswith("error: profile entry 'E1'")


@pytest.mark.parametrize("verb", ["aux", "spectrum", "verify"])
@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--rho0", "nan", "rho0 must be positive and finite, got nan"),
        ("--rho0", "inf", "rho0 must be positive and finite, got inf"),
        ("--rho-dot0", "inf", "rho_dot0 must be finite, got inf"),
        ("--rho-dot0", "nan", "rho_dot0 must be finite, got nan"),
    ],
)
def test_nonfinite_initial_condition_is_an_input_error(
    capsys, static_profile_file, verb, option, value, message
):
    code, out, err = run_cli(capsys, [verb, "--profile", static_profile_file, option, value])
    assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("option", ["--z0", "--z-dot0"])
    @pytest.mark.parametrize("value", ["nan", "1+nani", "1e309", "-1e400i"])
    def test_nonfinite_start_is_an_input_error(
        self, capsys, static_profile_file, varying_profile_file, option, value
    ):
        # the constant kind's closed form printed NaN rows and exited 0
        for path in (static_profile_file, varying_profile_file):
            code, out, err = run_cli(capsys, ["classical", "--profile", path, f"{option}={value}"])
            assert (code, out, err) == (1, "", f"error: {option} must be finite, got {value!r}\n")

    @pytest.mark.parametrize("omega, z0, samples", [(1e100, "1", "9"), (1.0, "1e308+1e308i", "5")])
    def test_unrepresentable_motion_exits_2(self, capsys, tmp_path, omega, z0, samples):
        # omega t ~ 1e101 leaves the closed-form phase no digit of a radian,
        # and a start near the top of the double range overflows the residual
        # stencil: both printed a trajectory and exited 0
        prof = make_profile("constant", {"M": 1.0, "omega": omega}, kappa=1.0, t0=0.0, t1=10.0)
        path = tmp_path / "constant.json"
        path.write_text(profile_to_json(prof))
        code, out, err = run_cli(
            capsys, ["classical", "--profile", str(path), f"--z0={z0}", "--samples", samples]
        )
        assert code == 2 and out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


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

        # the self-check's <H> comes from the envelope pair phase_gamma holds
        true_energy = spectrum._energy
        monkeypatch.setattr(spectrum, "_energy", lambda *args: true_energy(*args) + 1.0)
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


    def test_one_envelope_pass(self, capsys, varying_profile_file, monkeypatch):
        # the energy column is the <H> phase_gamma computes for its self-check,
        # from its one envelope read on the grid
        from landau_td import auxode, spectrum
        from landau_td.profiles import profile_from_json

        solve, calls, sols = auxode.solve_ep_numeric, [], []

        def counted_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            envelope = sol.envelope_fn

            def counted(t):
                calls.append(np.shape(t))
                return envelope(t)

            sol.envelope_fn = counted
            sols.append(sol)
            return sol

        monkeypatch.setattr(auxode, "solve_ep_numeric", counted_solve)
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--profile", varying_profile_file, "--samples", "41", "--n-plus", "1"],
        )
        assert code == 0
        assert calls == [(41,)]
        with open(varying_profile_file) as fh:
            prof = profile_from_json(fh.read())
        sol = sols[0]
        energy = spectrum.hamiltonian_expectation(spectrum.HelicityQuanta(1, 0), prof, sol, sol.grid)
        np.testing.assert_array_equal(parse_csv(out)[1][:, 2], energy)


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

    def test_large_equal_quanta(self, capsys, static_profile_file):
        # 171! alone is past the double range; n!/(n+|l|)! = 1 is not
        code, out, err = run_cli(
            capsys,
            [
                "wavefunction", "--profile", static_profile_file, "--t", "2.0",
                "--n-plus", "171", "--n-minus", "171", "--r-points", "5", "--theta-points", "4",
            ],
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)[1]
        assert np.all(np.isfinite(rows))
        assert rows[0, 4] == pytest.approx(1.0 / math.pi, rel=1e-10)

    @pytest.mark.parametrize("n_plus, n_minus", [("300", "0"), ("200", "3")])
    def test_normalisation_past_double_range_exits_0(
        self, capsys, static_profile_file, n_plus, n_minus
    ):
        # n!/(n+|l|)! is below the normal doubles, but the orthonormal
        # Laguerre function is not: |psi|^2 at r_max = 4 (u = 16) is its
        # 60-digit value, about 1e-131 at (200, 3) and 1e-261 at (300, 0)
        code, out, err = run_cli(
            capsys,
            [
                "wavefunction", "--profile", static_profile_file, "--t", "2.0",
                "--n-plus", n_plus, "--n-minus", n_minus, "--theta-points", "2",
            ],
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)[1]
        assert np.all(np.isfinite(rows)) and rows[-1, 0] == 4.0
        n, a_ell = min(int(n_plus), int(n_minus)), abs(int(n_plus) - int(n_minus))
        want = float(laguerre_function_mp(n, a_ell, 16.0)) ** 2 / math.pi
        assert rows[-1, 4] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r_max", ["nan", "inf", "-inf"])
    def test_nonfinite_radius(self, capsys, static_profile_file, r_max):
        code, out, err = run_cli(
            capsys,
            ["wavefunction", "--profile", static_profile_file, "--t", "2.0", f"--r-max={r_max}"],
        )
        assert (code, out, err) == (1, "", f"error: --r-max must be finite, got {r_max}\n")


@pytest.fixture(scope="module")
def kind_profile_files(tmp_path_factory):
    """One profile document of each kind on [0, 12], by kind."""
    folder = tmp_path_factory.mktemp("kinds")
    paths = {}
    for kind in sorted(KIND_PARAMS):
        paths[kind] = str(folder / f"{kind}.json")
        with open(paths[kind], "w", encoding="utf-8") as fh:
            fh.write(profile_to_json(kind_profile(kind)))
    return paths


def _option_float(lo, hi):
    """Absent, a value in [lo, hi], any float (tiny, huge, negative, both
    infinities, NaN) or one of 0, -1, NaN and inf."""
    return st.one_of(
        st.none(),
        st.floats(lo, hi),
        st.floats(),
        st.sampled_from([0.0, -1.0, math.nan, math.inf]),
    )


@st.composite
def _eigenstate_argv(draw, paths):
    """argv of one spectrum or wavefunction call over the options that
    reach the eigensystem; the profiles' window is [0, 12]."""
    verb = draw(st.sampled_from(["spectrum", "wavefunction"]))
    argv = [verb, "--profile", paths[draw(st.sampled_from(sorted(paths)))]]
    argv += ["--n-plus", str(draw(st.integers(0, 400)))]
    argv += ["--n-minus", str(draw(st.integers(0, 400)))]
    if verb == "wavefunction":
        t = draw(st.one_of(st.floats(-3.0, 15.0), st.just(math.nan)))
        argv.append(f"--t={t!r}")
        r_max = draw(_option_float(0.0, 50.0))
        if r_max is not None:
            argv.append(f"--r-max={r_max!r}")
        argv += ["--r-points", str(draw(st.integers(0, 64)))]
        argv += ["--theta-points", str(draw(st.integers(0, 64)))]
    for option, lo, hi in (("--rho0", 0.1, 10.0), ("--rho-dot0", -2.0, 2.0)):
        value = draw(_option_float(lo, hi))
        if value is not None:
            argv.append(f"{option}={value!r}")
    return argv


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_eigenstate_verbs_never_escape(capsys, kind_profile_files, data):
    # every option set exits with a documented code and one line on stderr
    # (no traceback, no warning: pytest turns a RuntimeWarning into an error)
    argv = data.draw(_eigenstate_argv(kind_profile_files), label="argv")
    code, out, err = run_cli(capsys, argv)
    if code == 0:
        assert err == ""
        rows = parse_csv(out)[1]
        assert rows.size and np.all(np.isfinite(rows))
    else:
        assert code in (1, 2) and out == ""
        assert err.startswith(("error: ", "numerical failure: ")) and err.count("\n") == 1


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_wavefunction_large_quanta_exit_0(capsys, kind_profile_files, data):
    # the orthonormal Laguerre function keeps every sample a finite double,
    # so quanta up to 400 are no numerical failure at any radial extent
    # whose square (the chirp's phase) is a double
    path = kind_profile_files[data.draw(st.sampled_from(sorted(kind_profile_files)))]
    r_max = data.draw(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e150)))
    argv = [
        "wavefunction", "--profile", path,
        f"--t={data.draw(st.floats(0.0, 12.0))!r}",
        "--n-plus", str(data.draw(st.integers(0, 400))),
        "--n-minus", str(data.draw(st.integers(0, 400))),
        f"--r-max={r_max!r}",
        "--r-points", "8", "--theta-points", "3",
    ]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert np.all(np.isfinite(parse_csv(out)[1]))


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

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "su2_pa", "--j", "85.5", "--zeta", "0.5", "--p", "1"],
            ["--family", "bg", "--k", "1", "--z", "400"],
            ["--family", "bg", "--k", "500.5", "--z", "1"],
            ["--family", "su2", "--j", "500", "--zeta", "3"],
        ],
    )
    def test_large_labels_normalized(self, capsys, args):
        # constants past the double range are built in logs
        code, out, err = run_cli(capsys, ["coherent"] + args)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["coeffs"] and abs(doc["norm_deficit"]) <= 1e-10

    def test_deficit_gate_exits_2(self, capsys, monkeypatch):
        # a closed-form constant that disagrees with the amplitudes is a
        # typed numerical failure, not a state with a large norm_deficit
        from landau_td.errors import NormalizationDiverges

        true_norm = coherent._pa_bg_log_norm
        monkeypatch.setattr(coherent, "_pa_bg_log_norm", lambda *args: true_norm(*args) + 1e-9)
        with pytest.raises(NormalizationDiverges):
            coherent.su11_bg_state(("two_mode", 1.0), 0.8)
        code, out, err = run_cli(capsys, ["coherent", "--family", "bg", "--k", "1.0", "--z", "0.8"])
        assert code == 2
        assert out == ""
        assert "numerical failure" in err and "norm deficit" in err

    def test_deterministic_stdout(self, capsys):
        args = ["coherent", "--family", "canonical", "--z-plus", "0.4+0.2i", "--z-minus", "0.1"]
        code_a, out_a, _ = run_cli(capsys, args)
        code_b, out_b, _ = run_cli(capsys, args)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize(
        "args, message",
        [
            (["su2", "--j", "inf", "--zeta", "0.3"], "j must be finite"),
            (["su2", "--j", "nan", "--zeta", "0.3"], "j must be finite"),
            (["su2_pa", "--j", "1e300", "--zeta", "0.3"], "j must be finite"),
            (["bg", "--k", "inf", "--z", "1"], "k must be finite"),
            (["pa_perelomov", "--k", "nan", "--eta", "0.3"], "k must be finite"),
            (["su2", "--j", "1", "--zeta", "nan"], "--zeta must be finite"),
            (["canonical", "--z-plus", "nan", "--z-minus", "0"], "--z-plus must be finite"),
            (["pa_canonical", "--z-plus", "0", "--z-minus", "1e309"], "--z-minus must be finite"),
            (["perelomov", "--k", "1", "--eta", "nan+0.1i"], "--eta must be finite"),
        ],
    )
    def test_nonfinite_label_is_an_input_error(self, capsys, args, message):
        # these died with an OverflowError traceback, named no option, or
        # failed later as a norm deficit of nan or a cutoff search
        code, out, err = run_cli(capsys, ["coherent", "--family"] + args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def _label_float(lo, hi):
    """A value in [lo, hi], or one that is not finite or far out of range."""
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e9]),
    )


def _label_literal(lo, hi):
    """An a+bi literal: both parts in [lo, hi], or each drawn by _label_float."""
    literal = lambda re, im: f"{re!r}+{im!r}i".replace("+-", "-")  # noqa: E731
    return st.one_of(
        st.builds(literal, st.floats(lo, hi), st.floats(lo, hi)),
        st.builds(literal, _label_float(lo, hi), _label_float(lo, hi)),
    )


# half-integer spins and lattice Bargmann indices k = (ell + 1)/2, or any value
_SPIN = st.one_of(st.integers(-2, 80).map(lambda two_j: two_j / 2), _label_float(-1.0, 40.0))
_BARGMANN = st.one_of(st.integers(-1, 30).map(lambda ell: (ell + 1) / 2), _label_float(-1.0, 20.0))

# per family: options and the strategies of their values, magnitudes bounded
# so that no finite draw builds a large table
_COHERENT_OPTIONS = {
    "canonical": {"--z-plus": _label_literal(-8.0, 8.0), "--z-minus": _label_literal(-8.0, 8.0)},
    "pa_canonical": {
        "--z-plus": _label_literal(-4.0, 4.0),
        "--z-minus": _label_literal(-4.0, 4.0),
        "--m-plus": st.integers(-1, 6),
        "--m-minus": st.integers(-1, 6),
    },
    "su2": {"--j": _SPIN, "--zeta": _label_literal(-5.0, 5.0)},
    "su2_pa": {"--j": _SPIN, "--zeta": _label_literal(-5.0, 5.0), "--p": st.integers(-1, 80)},
    "bg": {"--k": _BARGMANN, "--z": _label_literal(-30.0, 30.0)},
    "perelomov": {"--k": _BARGMANN, "--eta": _label_literal(-1.2, 1.2)},
    "pa_bg": {"--k": _BARGMANN, "--z": _label_literal(-30.0, 30.0), "--n-add": st.integers(-1, 12)},
    "pa_perelomov": {
        "--k": _BARGMANN,
        "--eta": _label_literal(-1.2, 1.2),
        "--l": st.integers(-1, 12),
    },
}


@pytest.mark.parametrize("family", sorted(_COHERENT_OPTIONS))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_coherent_verb_never_escapes(capsys, family, data):
    # every label set exits with a documented code and one line on stderr;
    # a printed state reads back with finite amplitudes
    argv = ["coherent", "--family", family]
    for option, values in _COHERENT_OPTIONS[family].items():
        argv.append(f"{option}={data.draw(values, label=option)!s}")
    cutoff = data.draw(st.one_of(st.none(), st.integers(-5, 200)), label="--cutoff")
    if cutoff is not None:
        argv.append(f"--cutoff={cutoff}")
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        state = coherent.state_from_json(out)
        assert np.all(np.isfinite(state.amps)) and coherent.state_to_json(state) + "\n" == out
    else:
        assert out == ""
        assert err.startswith(("error: ", "numerical failure: ")) and err.count("\n") == 1


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


def test_package_never_imports_mpmath():
    # mpmath is a test oracle only: importing every module of the package
    # in a fresh interpreter must not pull it in
    import landau_td

    src = os.path.dirname(os.path.dirname(landau_td.__file__))
    code = (
        "import importlib, pkgutil, sys, landau_td\n"
        "names = [m.name for m in pkgutil.iter_modules(landau_td.__path__, 'landau_td.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert 'landau_td.coherent' in names and 'landau_td.cli' in names, names\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _loaded_after(imports: str, names, run: str = "") -> str:
    """The printed sorted list of the modules among ``names``, or inside
    those packages, that a fresh interpreter has loaded after ``imports``
    and the statements ``run``."""
    import landau_td

    src = os.path.dirname(os.path.dirname(landau_td.__file__))
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"{run}\n"
        f"names = {tuple(names)!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == n or m.startswith(n + '.') for n in names)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dynamics_imports_no_scipy_solvers():
    # the envelope stepper and the PCHIP tables are the package's own: the
    # cold verbs load neither scipy's integrators, its interpolants nor the
    # optimizers those pull in, and the aux/classical modules no scipy at all
    banned = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse.linalg")
    assert _loaded_after("landau_td.cli, landau_td.verify", banned) == "[]\n"
    assert _loaded_after("landau_td.cli, landau_td.auxode", ("scipy",)) == "[]\n"
    assert _loaded_after("landau_td.cli, landau_td.spectrum", ("scipy",)) == "[]\n"


def test_eigenstate_verbs_load_no_scipy(kind_profile_files):
    # the spectrum and wavefunction verbs run through without scipy.special
    # or scipy.sparse on every profile kind, at large quanta too: those load
    # only in the calls that use them (Bessel, 2F1, Meijer G, operator
    # matrices), and the Laguerre normalisation is math.lgamma
    argvs = []
    for path in kind_profile_files.values():
        argvs.append(["spectrum", "--profile", path, "--n-plus", "2", "--samples", "21"])
        argvs.append(["wavefunction", "--profile", path, "--t", "3.5", "--n-minus", "1"])
        argvs.append(["wavefunction", "--profile", path, "--t", "3.5", "--n-plus", "300"])
    run = (
        "import contextlib, io\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert landau_td.cli.main(argv) == 0, argv\n"
    )
    assert _loaded_after("landau_td.cli", ("scipy",), run) == "[]\n"


def test_coherent_imports_no_dynamics():
    # the coherent states are algebra on the Fock lattice: importing them in a
    # fresh interpreter loads neither the dynamics modules nor the scipy
    # solvers, sparse matrices and interpolants those use
    banned = (
        "landau_td.profiles", "landau_td.auxode", "landau_td.spectrum",
        "scipy.integrate", "scipy.sparse", "scipy.interpolate",
    )
    assert _loaded_after("landau_td.coherent", banned) == "[]\n"
