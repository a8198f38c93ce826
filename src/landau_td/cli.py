"""Command line front end, installed as ``landau-td``.

Verbs
-----
- ``aux``: integrate the auxiliary envelope equation, emit a CSV table
  ``t, rho, rho_dot, residual``.
- ``classical``: integrate the transformed planar motion z(t), emit CSV.
- ``spectrum``: energy and accumulated-phase trace for one occupation
  pair, emit CSV.
- ``wavefunction``: sample the phased eigenfunction on a polar grid at one
  time, emit CSV.
- ``coherent``: construct a coherent-state family member, emit the state
  JSON document.
- ``verify``: run the verification battery, emit a JSON report array.

Conventions
-----------
Complex values on the command line are ``a+bi`` literals ("0.3+0.1i",
"-2i", "1.5").  CSV numbers carry 17 significant digits so they round-trip
exactly; identical invocations produce byte-identical output.  Exit codes:
0 success, 1 invalid input, 2 numerical failure, 3 at least one
verification check failed.  The environment variable ``LANDAU_TD_THREADS``
caps the thread pools of the numerical backends.

Profile documents are JSON objects with keys ``kind`` (constant,
exponential-mass, exponential-frequency, sinusoidal, tabulated), ``params``
(kind-specific table), ``q``, ``B``, ``kappa``, ``t0``, ``t1``.
"""

from __future__ import annotations

import cmath
import json
import os
from typing import Iterable, Optional, Sequence

import click

from . import __version__
from .errors import MissingParameter, NumericalError, ValidationError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Honor LANDAU_TD_THREADS before the numerical backends start pools."""
    raw = os.environ.get("LANDAU_TD_THREADS")
    if raw is None or raw == "":
        return
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"LANDAU_TD_THREADS must be a positive integer, got {raw!r}"
        ) from exc
    if cap < 1:
        raise ValidationError(
            f"LANDAU_TD_THREADS must be a positive integer, got {raw!r}"
        )
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, str(cap))


def _parse_complex(text: str, flag: str) -> complex:
    """Parse a finite a+bi literal ('0.3+0.1i', '-2i', '1.5')."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise MissingParameter(f"{flag} expects an a+bi literal, got {text!r}") from exc
    if not cmath.isfinite(value):
        raise MissingParameter(f"{flag} must be finite, got {text!r}")
    return value


def _need(value, flag: str):
    if value is None:
        raise MissingParameter(f"{flag} is required for this family")
    return value


def _load_profile(path: str, t0: Optional[float], t1: Optional[float]):
    from .profiles import profile_from_doc

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MissingParameter(f"cannot read profile {path!r}: {exc}") from exc
    doc = json.loads(text) if text.strip().startswith("{") else None
    if doc is None:
        raise MissingParameter(f"profile {path!r} is not a JSON object")
    if t0 is not None:
        doc["t0"] = t0
    if t1 is not None:
        doc["t1"] = t1
    return profile_from_doc(doc)


def _grid(profile, samples: int):
    import numpy as np

    if samples < 5:
        raise MissingParameter("--samples must be at least 5")
    return np.linspace(profile.t0, profile.t1, samples)


def _solve_aux(profile, rho0: Optional[float], rho_dot0: float, samples: int):
    from .auxode import default_initial_conditions, solve_ep_numeric

    if rho0 is None:
        rho0 = default_initial_conditions(profile)[0]
    return solve_ep_numeric(profile, rho0, rho_dot0, _grid(profile, samples))


def _fmt(x) -> str:
    return f"{float(x):.16e}"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_csv(header: Sequence[str], rows: Iterable[Sequence[float]], out: Optional[str]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _emit("\n".join(lines) + "\n", out)


@click.group()
@click.version_option(version=__version__, prog_name="landau-td")
def cli() -> None:
    """Time-dependent Landau levels: solvers, spectra, coherent states.

    Complex option values use a+bi literals, e.g. --zeta 0.3+0.1i.
    """


_profile_opt = click.option(
    "--profile", "profile_path", required=True, metavar="PATH", help="Profile JSON document."
)
_t0_opt = click.option("--t0", type=float, default=None, help="Override the window start.")
_t1_opt = click.option("--t1", type=float, default=None, help="Override the window end.")
_samples_opt = click.option("--samples", type=int, default=401, show_default=True, help="Grid points.")
_out_opt = click.option("--out", type=str, default=None, metavar="PATH", help="Output file (stdout when omitted).")
_rho0_opt = click.option("--rho0", type=float, default=None, help="Initial envelope value (default: adiabatic stationary point).")
_rho_dot0_opt = click.option("--rho-dot0", type=float, default=0.0, show_default=True, help="Initial envelope rate.")


@cli.command("aux")
@_profile_opt
@_t0_opt
@_t1_opt
@_samples_opt
@_rho0_opt
@_rho_dot0_opt
@_out_opt
def aux_cmd(profile_path, t0, t1, samples, rho0, rho_dot0, out):
    """Integrate the auxiliary equation; CSV t,rho,rho_dot,residual."""
    from .auxode import ep_residual_pointwise

    profile = _load_profile(profile_path, t0, t1)
    sol = _solve_aux(profile, rho0, rho_dot0, samples)
    residual = ep_residual_pointwise(sol, profile)
    rows = zip(sol.grid, sol.rho, sol.rho_dot, residual)
    _emit_csv(["t", "rho", "rho_dot", "residual"], rows, out)


@cli.command("classical")
@_profile_opt
@_t0_opt
@_t1_opt
@_samples_opt
@click.option("--z0", default="1", show_default=True, help="Initial position, a+bi.")
@click.option("--z-dot0", default="0", show_default=True, help="Initial velocity, a+bi.")
@_out_opt
def classical_cmd(profile_path, t0, t1, samples, z0, z_dot0, out):
    """Integrate the planar trajectory; CSV with z and the equation residual."""
    from .auxode import classical_residual_pointwise, classical_trajectory

    profile = _load_profile(profile_path, t0, t1)
    grid = _grid(profile, samples)
    traj = classical_trajectory(
        profile, _parse_complex(z0, "--z0"), _parse_complex(z_dot0, "--z-dot0"), grid
    )
    residual = classical_residual_pointwise(traj, profile)
    rows = zip(
        grid, traj.z.real, traj.z.imag, traj.z_dot.real, traj.z_dot.imag, residual
    )
    _emit_csv(
        ["t", "re_z", "im_z", "re_z_dot", "im_z_dot", "residual"], rows, out
    )


@cli.command("spectrum")
@_profile_opt
@_t0_opt
@_t1_opt
@_samples_opt
@_rho0_opt
@_rho_dot0_opt
@click.option("--n-plus", type=int, default=0, show_default=True)
@click.option("--n-minus", type=int, default=0, show_default=True)
@_out_opt
def spectrum_cmd(profile_path, t0, t1, samples, rho0, rho_dot0, n_plus, n_minus, out):
    """Energy and phase trace of one eigenstate; CSV over the window."""
    from .spectrum import HelicityQuanta, phase_gamma

    profile = _load_profile(profile_path, t0, t1)
    sol = _solve_aux(profile, rho0, rho_dot0, samples)
    trace = phase_gamma(HelicityQuanta(n_plus, n_minus), profile, sol, sol.grid)
    rows = zip(sol.grid, sol.rho, trace.energy, trace.gamma, trace.gamma_closed_form)
    _emit_csv(["t", "rho", "energy", "gamma", "gamma_closed_form"], rows, out)


@cli.command("wavefunction")
@_profile_opt
@_t0_opt
@_t1_opt
@click.option("--t", "t_eval", type=float, required=True, help="Evaluation time.")
@click.option("--n-plus", type=int, default=0, show_default=True)
@click.option("--n-minus", type=int, default=0, show_default=True)
@click.option("--r-max", type=float, default=None, help="Radial extent (default: 4 rho/sqrt(kappa)).")
@click.option("--r-points", type=int, default=48, show_default=True)
@click.option("--theta-points", type=int, default=24, show_default=True)
@_rho0_opt
@_rho_dot0_opt
@_out_opt
def wavefunction_cmd(
    profile_path,
    t0,
    t1,
    t_eval,
    n_plus,
    n_minus,
    r_max,
    r_points,
    theta_points,
    rho0,
    rho_dot0,
    out,
):
    """Phased eigenfunction on a polar grid; CSV r,theta,re,im,prob."""
    import math

    import numpy as np

    from .spectrum import HelicityQuanta, phase_gamma, wavefunction_polar

    profile = _load_profile(profile_path, t0, t1)
    profile.check_time(t_eval)
    if r_points < 2 or theta_points < 1:
        raise MissingParameter("need --r-points >= 2 and --theta-points >= 1")
    sol = _solve_aux(profile, rho0, rho_dot0, 401)
    q = HelicityQuanta(n_plus, n_minus)
    gamma_t = float(phase_gamma(q, profile, sol, [profile.t0, t_eval]).gamma[-1])
    rho_t = float(sol.rho_at(t_eval))
    if r_max is None:
        r_max = 4.0 * rho_t / math.sqrt(profile.kappa)
    elif not math.isfinite(r_max):
        raise MissingParameter(f"--r-max must be finite, got {r_max}")
    r = np.linspace(0.0, r_max, r_points)
    theta = np.linspace(0.0, 2.0 * math.pi, theta_points, endpoint=False)
    psi = np.exp(1j * gamma_t) * wavefunction_polar(
        q, profile, sol, t_eval, r[:, None], theta[None, :]
    )
    rows = (
        (r[i], theta[j], psi[i, j].real, psi[i, j].imag, abs(psi[i, j]) ** 2)
        for i in range(r_points)
        for j in range(theta_points)
    )
    _emit_csv(["r", "theta", "re_psi", "im_psi", "prob"], rows, out)


@cli.command("coherent")
@click.option(
    "--family",
    required=True,
    type=click.Choice(
        [
            "canonical",
            "pa_canonical",
            "su2",
            "su2_pa",
            "bg",
            "perelomov",
            "pa_bg",
            "pa_perelomov",
        ]
    ),
    help="State family.",
)
@click.option("--z-plus", default=None, help="Canonical label, a+bi.")
@click.option("--z-minus", default=None, help="Canonical label, a+bi.")
@click.option("--m-plus", type=int, default=0, show_default=True, help="Added quanta (pa_canonical).")
@click.option("--m-minus", type=int, default=0, show_default=True, help="Added quanta (pa_canonical).")
@click.option("--j", type=float, default=None, help="Spin label (su2 families).")
@click.option("--zeta", default=None, help="Spin label, a+bi (su2 families).")
@click.option("--p", type=int, default=0, show_default=True, help="Raising order (su2_pa).")
@click.option("--k", type=float, default=None, help="Bargmann index (su(1,1) families).")
@click.option("--z", default=None, help="Lowering-eigenvalue label, a+bi (bg, pa_bg).")
@click.option("--eta", default=None, help="Disk label, a+bi (perelomov, pa_perelomov).")
@click.option("--l", "l_add", type=int, default=0, show_default=True, help="Raising order (pa_perelomov).")
@click.option("--n-add", type=int, default=0, show_default=True, help="Raising order (pa_bg).")
@click.option("--cutoff", type=int, default=None, help="Truncation override.")
@_out_opt
def coherent_cmd(
    family,
    z_plus,
    z_minus,
    m_plus,
    m_minus,
    j,
    zeta,
    p,
    k,
    z,
    eta,
    l_add,
    n_add,
    cutoff,
    out,
):
    """Construct a coherent state and emit its JSON document."""
    from . import coherent as coh

    def label(value, flag: str) -> complex:
        return _parse_complex(_need(value, flag), flag)

    # options are read in argument order: the first missing one is named
    builders = {
        "canonical": lambda: coh.canonical_state(
            label(z_plus, "--z-plus"), label(z_minus, "--z-minus"), cutoff
        ),
        "pa_canonical": lambda: coh.photon_added_state(
            label(z_plus, "--z-plus"), label(z_minus, "--z-minus"), m_plus, m_minus,
            cutoff if cutoff is not None else 40,
        ),
        "su2": lambda: coh.su2_state(_need(j, "--j"), label(zeta, "--zeta"), cutoff),
        "su2_pa": lambda: coh.su2_pa_state(_need(j, "--j"), label(zeta, "--zeta"), p, cutoff),
        "bg": lambda: coh.su11_bg_state(("two_mode", _need(k, "--k")), label(z, "--z"), cutoff),
        "perelomov": lambda: coh.su11_perelomov_state(
            ("two_mode", _need(k, "--k")), label(eta, "--eta"), cutoff
        ),
        "pa_bg": lambda: coh.su11_pa_bg_state(_need(k, "--k"), label(z, "--z"), n_add, cutoff),
        "pa_perelomov": lambda: coh.su11_pa_perelomov_state(
            _need(k, "--k"), label(eta, "--eta"), l_add, cutoff
        ),
    }
    state = builders[family]()
    _emit(coh.state_to_json(state) + "\n", out)


@cli.command("verify")
@_profile_opt
@_t0_opt
@_t1_opt
@click.option(
    "--suite",
    default="all",
    show_default=True,
    help="'all' or comma-separated subset of orthonormality,schrodinger,invariant,algebra,moments.",
)
@_rho0_opt
@_rho_dot0_opt
@_out_opt
@click.pass_context
def verify_cmd(ctx, profile_path, t0, t1, suite, rho0, rho_dot0, out):
    """Run verification checks; JSON report array, exit 3 on failure."""
    from .verify import reports_to_json, standard_suite

    profile = _load_profile(profile_path, t0, t1)
    sol = _solve_aux(profile, rho0, rho_dot0, 401)
    checks = None if suite == "all" else [s.strip() for s in suite.split(",") if s.strip()]
    reports = standard_suite(profile, sol, checks)
    _emit(reports_to_json(reports) + "\n", out)
    if not all(r.passed for r in reports):
        ctx.exit(3)


def main(argv=None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    try:
        _apply_thread_cap()
        # click returns the Exit code as a value when standalone_mode is off
        status = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ValidationError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    return int(status) if isinstance(status, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
