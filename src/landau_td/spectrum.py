"""Invariant eigensystem: spectra, wavefunctions, phases, operator matrices.

The quadratic invariant I(t) = kappa (a+^dag a+ + a-^dag a- + 1) is built
from helicity ladder operators

    a_pm = (1/(2 sqrt(kappa))) [ (M rho' + i kappa/rho)(x +- i y)
                                 - rho (p_x +- i p_y) ],

with (rho, rho') an auxiliary-equation solution carried by an
AuxiliarySolution.  States are labelled by occupation pairs (n_plus,
n_minus); derived labels: ell = n_plus - n_minus, SU(2) pair
(j, m) = ((n+ + n-)/2, (n+ - n-)/2) and the single-mode su(1,1) Bargmann
index k = (|ell| + 1)/2.

Sign conventions: L_z = x p_y - y p_x = -i d/dtheta, with eigenvalue ell on
e^{i ell theta}, so L_z = a+^dag a+ - a-^dag a-.  H holds +(omega_c/2) L_z,
[L_z, a_pm] = -+a_pm and J_3 = L_z/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from .auxode import AuxiliarySolution, _panel_edges, running_integral
from .errors import CutoffTooSmall, InconsistentPhase, OutOfRange
from .profiles import ParameterProfile
from .specfun import hermite, laguerre

if TYPE_CHECKING:
    from scipy import sparse

    from .coherent import EvolutionParams

__all__ = [
    "HelicityQuanta",
    "PhaseTrace",
    "Invariant3dTrace",
    "DEFAULT_CUTOFF",
    "invariant_eigenvalue",
    "hamiltonian_expectation",
    "evolution_params",
    "phase_gamma",
    "wavefunction_polar",
    "wavefunction_cartesian",
    "full_solution",
    "uncertainty_product",
    "build_operator_matrices",
    "basis_index",
    "basis_labels",
    "interior_mask",
    "su2_relabel",
    "su11_relabel",
    "casimir_su11",
    "invariant3d_diagnostic",
]

DEFAULT_CUTOFF = 40


@dataclass(frozen=True)
class HelicityQuanta:
    """Occupation pair (n_plus, n_minus) of the helicity modes."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("occupation numbers must be nonnegative")

    @property
    def ell(self) -> int:
        """L_z eigenvalue n_plus - n_minus, the angular index of e^{i ell theta}."""
        return self.n_plus - self.n_minus

    @property
    def n_radial(self) -> int:
        """Radial quantum number min(n_plus, n_minus)."""
        return min(self.n_plus, self.n_minus)

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus


@dataclass
class PhaseTrace:
    """Accumulated phase gamma(t) along a grid, from grid[0], both conventions.

    ``gamma`` is the integral of d(gamma)/dt = <i d/dt> - <H>, which is
    -(n+ + n- + 1) theta(t) plus the integral of the omega_c and drive terms,
    with theta taken from the auxiliary solution (exact for the closed forms,
    certified Gauss panels for the numeric route), so gamma(t) does not
    depend on the grid.  ``integrand`` is that rate on the grid, and
    ``energy`` is <H> there, from the same envelope read.
    ``gamma_closed_form`` is the alternative closed form whose first term
    carries kappa/2 instead of kappa (kept for comparison, see the
    static-oscillator check).
    """

    grid: np.ndarray
    gamma: np.ndarray
    integrand: np.ndarray
    energy: np.ndarray
    gamma_closed_form: np.ndarray


@dataclass
class Invariant3dTrace:
    """Axial-mode eigenvalue trace alpha(t) = rho^2 p^2 / 2 + kappa (n+1)."""

    grid: np.ndarray
    alpha: np.ndarray
    variation: float


# ---------------------------------------------------------------------------
# scalar spectra
# ---------------------------------------------------------------------------

def invariant_eigenvalue(q: HelicityQuanta, kappa: float) -> float:
    """Eigenvalue kappa (n_plus + n_minus + 1) of the invariant."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return kappa * (q.total + 1)


def _radial_energy(profile: ParameterProfile, t, rho, rho_dot):
    """(1/2 kappa)(M rho'^2 + kappa^2/(M rho^2) + M Omega^2 rho^2) at the
    times t, where the envelope is (rho, rho_dot)."""
    M = profile.mass(t)
    Om = profile.Omega(t)
    kap = profile.kappa
    # float_power squares through pow(), as ** does on a float, where numpy's
    # array ** 2 multiplies: a time's energy has the same bits in an array
    rho_sq = np.float_power(rho, 2)
    return (
        M * np.float_power(rho_dot, 2)
        + kap**2 / (M * rho_sq)
        + M * np.float_power(Om, 2) * rho_sq
    ) / (2.0 * kap)


def _drive_energy(profile: ParameterProfile, t):
    """q^2 E^2 / (2 M omega), the c-number drive term of H, over t."""
    if profile.q == 0.0:
        return 0.0
    return profile.q**2 * profile.efield_sq(t) / (2.0 * profile.mass(t) * profile.omega(t))


def _energy(q: HelicityQuanta, profile: ParameterProfile, t, rho, rho_dot):
    """<H> on the eigenstate at the times t, where the envelope is (rho, rho_dot)."""
    return (
        _radial_energy(profile, t, rho, rho_dot) * (q.total + 1)
        + 0.5 * profile.omega_c(t) * q.ell
        - _drive_energy(profile, t)
    )


def _frozen(profile: ParameterProfile, aux: AuxiliarySolution, t: float) -> tuple:
    """(rho, rho_dot, M) as floats at the one time t, which must lie in the
    profile's window (OutOfDomain) as well as on the solution's span."""
    profile.check_time(t)
    rho, rho_dot = map(float, aux.envelope_fn(t))
    return rho, rho_dot, float(profile.mass(t))


def hamiltonian_expectation(
    q: HelicityQuanta, profile: ParameterProfile, aux: AuxiliarySolution, t
):
    """<H(t)> on the invariant eigenstate labelled by q; t scalar or array."""
    return _energy(q, profile, t, *aux.envelope_fn(t))


def evolution_params(profile: ParameterProfile, aux: AuxiliarySolution, t) -> EvolutionParams:
    """Frozen-time rotation rates (T1, T2, lam) of the canonical family."""
    from .coherent import EvolutionParams

    return EvolutionParams(
        T1=_radial_energy(profile, t, *aux.envelope_fn(t)),
        T2=0.5 * float(profile.omega_c(t)),
        lam=_drive_energy(profile, t),
    )


def _i_dt_expectation(
    q: HelicityQuanta, profile: ParameterProfile, t: np.ndarray, rho, rho_dot
) -> np.ndarray:
    """<i d/dt> on the eigenstate at the times t, where the envelope is
    (rho, rho_dot): (n+1)(M rho'^2 + M Omega^2 rho^2 - kappa^2/(M rho^2))
    / (2 kappa).  Vanishes at the stationary point."""
    M = np.asarray(profile.mass(t), dtype=float)
    Om = np.asarray(profile.Omega(t), dtype=float)
    kap = profile.kappa
    return (
        (q.total + 1)
        * (M * rho_dot**2 + M * Om**2 * rho**2 - kap**2 / (M * rho**2))
        / (2.0 * kap)
    )


def phase_gamma(
    q: HelicityQuanta, profile: ParameterProfile, aux: AuxiliarySolution, grid
) -> PhaseTrace:
    """Accumulated phase of the eigenstate along the grid, from grid[0].

    The authoritative gamma integrates <i d/dt> - <H>; after the analytic
    cancellation the integrand is

        -kappa (n+ + n- + 1) / (M rho^2) - (omega_c/2) ell
        + q^2 E^2 / (2 M omega),

    so gamma = -(n+ + n- + 1) theta + the integral of the last two terms.
    theta comes from ``aux.theta_fn``; the profile terms are integrated on
    the solution's panels plus the profile knots, with the same certified
    Gauss rule.  The envelope is read once on the grid; the integrand and
    <i d/dt> - <H> both come from it and must agree (InconsistentPhase).
    ``gamma_closed_form`` halves the first term (the alternative display);
    the Schroedinger-residual check adjudicates between the two.
    """
    grid = np.asarray(grid, dtype=float)
    n_sum = q.total + 1

    def field_rate(t):
        return -0.5 * q.ell * profile.omega_c(t) + _drive_energy(profile, t)

    rho, rho_dot = aux.envelope_fn(grid)
    integrand = -profile.kappa * n_sum / (profile.mass(grid) * rho**2) + field_rate(grid)
    energy = _energy(q, profile, grid, rho, rho_dot)
    defining = _i_dt_expectation(q, profile, grid, rho, rho_dot) - energy
    if np.max(np.abs(defining - integrand)) > 1e-9 * max(1.0, float(np.max(np.abs(integrand)))):
        raise InconsistentPhase("phase integrand disagrees with <i d/dt> - <H>")

    theta = aux.theta_fn(grid)
    field = running_integral(field_rate, _panel_edges(aux.panels, profile))(grid)
    radial = n_sum * (theta - theta[0])
    field = field - field[0]
    return PhaseTrace(
        grid=grid,
        gamma=field - radial,
        integrand=integrand,
        energy=energy,
        gamma_closed_form=field - 0.5 * radial,
    )


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------

def wavefunction_polar(
    q: HelicityQuanta,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    r,
    theta,
):
    """Invariant eigenfunction in polar coordinates at time t.

    phi = (-1)^n sqrt(kappa/pi) / rho  f_n^{|l|}(kappa r^2 / rho^2)
          exp(i M rho' r^2 / (2 rho)) e^{i l theta},

    with l = n_plus - n_minus, n = min(n_plus, n_minus) and f_n^{|l|} the
    orthonormal Laguerre function sqrt(n!/(n+|l|)!) u^{|l|/2} e^{-u/2}
    L_n^{|l|}(u), which carries the r^{|l|}, the Gaussian and the
    normalisation.  A sample is 0 where f is 0 in doubles, even where the
    chirp's phase overflows; OutOfRange when any other sample is not a
    finite double.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not np.all((r >= 0) & (r < math.inf)):
        raise ValueError("radius must be finite and nonnegative")
    rho, rho_dot, M = _frozen(profile, aux, t)
    kap, n, a_ell = profile.kappa, q.n_radial, abs(q.ell)
    with np.errstate(over="ignore", invalid="ignore"):
        f = laguerre(n, float(a_ell), kap * r * r / (rho * rho))
        psi = (
            (-1.0) ** n * math.sqrt(kap / math.pi) / rho * f
            * np.exp(0.5j * M * rho_dot / rho * r * r)
            * np.exp(1j * q.ell * theta)
        )
    # exp(i inf) is NaN where the chirp's phase overflows; psi is 0 wherever f is
    lost = ~np.isfinite(psi)
    if np.any(lost & (f != 0.0)):
        raise OutOfRange(
            f"the wavefunction of (n, |l|) = ({n}, {a_ell}) overflows a double on r <= {np.max(r):.6g}"
        )
    return np.where(lost, 0.0, psi) if np.any(lost) else psi


def wavefunction_cartesian(
    n_x: int,
    n_y: int,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    x,
    y,
):
    """Hermite-product eigenfunction sharing the polar chirp: sqrt(kappa)/rho
    h_{n_x}(xi) h_{n_y}(eta) times it, orthonormal h_n, (xi, eta) = sqrt(kappa) (x, y)/rho."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho, rho_dot, M = _frozen(profile, aux, t)
    root_k = math.sqrt(profile.kappa)
    return (
        root_k / rho
        * hermite(n_x, root_k * x / rho)
        * hermite(n_y, root_k * y / rho)
        * np.exp(0.5j * M * rho_dot / rho * (x * x + y * y))
    )


def full_solution(
    q: HelicityQuanta,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    grid,
    r,
    theta,
) -> np.ndarray:
    """psi(t_i) = exp(i gamma(t_i)) phi(r, theta, t_i) along the grid."""
    grid = np.asarray(grid, dtype=float)
    trace = phase_gamma(q, profile, aux, grid)
    return np.asarray([
        np.exp(1j * gamma) * wavefunction_polar(q, profile, aux, float(t), r, theta)
        for gamma, t in zip(trace.gamma, grid)
    ])


def uncertainty_product(
    n: int, ell: int, profile: ParameterProfile, aux: AuxiliarySolution, t: float
) -> float:
    """Delta x Delta p_x = (2n+|l|+1)/2 sqrt(1 + M^2 rho'^2 rho^2 / kappa^2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rho, rho_dot, M = _frozen(profile, aux, t)
    kap = profile.kappa
    return 0.5 * (2 * n + abs(ell) + 1) * math.sqrt(1.0 + (M * rho_dot * rho / kap) ** 2)


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

def basis_index(n_plus: int, n_minus: int, cutoff: int) -> int:
    """Row index of |n_plus, n_minus> in the flattened truncated basis."""
    return n_plus * (cutoff + 1) + n_minus


def basis_labels(cutoff: int) -> np.ndarray:
    """(dim, 2) array mapping row index -> (n_plus, n_minus)."""
    side = cutoff + 1
    n_plus, n_minus = np.divmod(np.arange(side * side), side)
    return np.column_stack([n_plus, n_minus])


def interior_mask(cutoff: int, band: int = 2) -> np.ndarray:
    """Boolean mask of rows with n_plus, n_minus <= cutoff - band."""
    labels = basis_labels(cutoff)
    return (labels[:, 0] <= cutoff - band) & (labels[:, 1] <= cutoff - band)


@functools.lru_cache(maxsize=4)
def _ladder_skeleton(cutoff: int) -> Dict[str, sparse.csr_matrix]:
    """The time-independent matrices at one cutoff, built once per process:
    the ladders, a+dag - a-, a- + a+dag, n+ + n- + 1 and the rotation, su(2)
    and su(1,1) generators.  Their arrays are read-only, so no caller can
    change them for the next one."""
    from scipy import sparse

    side = cutoff + 1
    dim = side * side
    eye = sparse.identity(side, format="csr", dtype=complex)
    low = sparse.diags(np.sqrt(np.arange(1.0, side)), offsets=1, format="csr", dtype=complex)
    a_p = sparse.kron(low, eye, format="csr")
    a_m = sparse.kron(eye, low, format="csr")
    a_p_dag = a_p.conj().T.tocsr()
    a_m_dag = a_m.conj().T.tocsr()
    # the number operators from their integer diagonals, not as a+-dag a+-,
    # so Lz, I, J3 and K0 carry no roundoff
    count = sparse.diags(np.arange(float(side)), format="csr", dtype=complex)
    n_p = sparse.kron(count, eye, format="csr")
    n_m = sparse.kron(eye, count, format="csr")
    ident = sparse.identity(dim, format="csr", dtype=complex)
    lz = (n_p - n_m).tocsr()
    n_sum = n_p + n_m + ident
    skeleton = {
        "a+": a_p,
        "a-": a_m,
        "a+dag": a_p_dag,
        "a-dag": a_m_dag,
        "a+dag - a-": a_p_dag - a_m,
        "a- + a+dag": a_m + a_p_dag,
        "identity": ident,
        "Lz": lz,
        "n+ + n- + 1": n_sum,
        "J+": (a_p_dag @ a_m).tocsr(),
        "J-": (a_m_dag @ a_p).tocsr(),
        "J3": (0.5 * lz).tocsr(),
        "K+": (a_p_dag @ a_m_dag).tocsr(),
        "K-": (a_p @ a_m).tocsr(),
        "K0": (0.5 * n_sum).tocsr(),
    }
    for mat in skeleton.values():
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
    return skeleton


def build_operator_matrices(
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    cutoff: int = DEFAULT_CUTOFF,
) -> Dict[str, sparse.csr_matrix]:
    """All operator matrices (CSR) on the truncated two-mode basis at time t.

    Keys: a+, a-, a+dag, a-dag, x, y, px, py, Lz, I, H, J+, J-, J3,
    K+, K-, K0, and the two sums of squares that H is formed from,
    "x^2 + y^2" (x @ x + y @ y) and "px^2 + py^2", which the invariant check
    reads too.  Position and momentum come from the ladder inversion

        x + i y    = (i rho / sqrt(kappa)) (a+dag - a-)
        p_x + i p_y = (i M rho' / sqrt(kappa)) (a+dag - a-)
                      - (sqrt(kappa)/rho)(a- + a+dag)

    and H is composed from x, y, p_x, p_y, L_z = n+ - n- with profile
    scalars, holding +(omega_c/2) L_z.  The time-independent matrices come
    from a skeleton built once per cutoff per process and are returned
    read-only; x, y, px, py, I, H and the two sums are new at each call.
    """
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    sk = _ladder_skeleton(cutoff)
    ladder_diff, ladder_sum = sk["a+dag - a-"], sk["a- + a+dag"]

    rho, rho_dot, M = _frozen(profile, aux, t)
    kap = profile.kappa
    root_k = math.sqrt(kap)

    w_plus = (1j * rho / root_k) * ladder_diff                                     # x + i y
    w_minus = w_plus.conj().T.tocsr()                                               # x - i y
    v_plus = (1j * M * rho_dot / root_k) * ladder_diff - (root_k / rho) * ladder_sum  # p_x + i p_y
    v_minus = v_plus.conj().T.tocsr()

    x_op = 0.5 * (w_plus + w_minus)
    y_op = (w_plus - w_minus) / 2j
    px_op = 0.5 * (v_plus + v_minus)
    py_op = (v_plus - v_minus) / 2j

    q2 = x_op @ x_op + y_op @ y_op
    p2 = px_op @ px_op + py_op @ py_op
    omega_c = float(profile.omega_c(t))
    Om = float(profile.Omega(t))
    ham = (
        p2 / (2.0 * M)
        + 0.5 * M * Om**2 * q2
        + 0.5 * omega_c * sk["Lz"]
        - _drive_energy(profile, t) * sk["identity"]
    ).tocsr()

    mats = {key: sk[key] for key in ("a+", "a-", "a+dag", "a-dag")}
    mats.update(x=x_op, y=y_op, px=px_op, py=py_op, Lz=sk["Lz"], I=kap * sk["n+ + n- + 1"], H=ham)
    mats.update({"x^2 + y^2": q2, "px^2 + py^2": p2})
    mats.update((key, sk[key]) for key in ("J+", "J-", "J3", "K+", "K-", "K0"))
    return mats


# ---------------------------------------------------------------------------
# group relabelings and the 3D diagnostic
# ---------------------------------------------------------------------------

def su2_relabel(q: HelicityQuanta) -> tuple:
    """(j, m) = ((n+ + n-)/2, (n+ - n-)/2)."""
    return 0.5 * q.total, 0.5 * (q.n_plus - q.n_minus)


def su11_relabel(q: HelicityQuanta) -> tuple:
    """Single-mode su(1,1) labels (k, m_k) = ((|l|+1)/2, min(n+, n-))."""
    return 0.5 * (abs(q.ell) + 1), q.n_radial


def casimir_su11(ell: int) -> float:
    """Casimir value (|l|+1)(|l|-1)/4 of the single-mode realization."""
    return 0.25 * (abs(ell) + 1) * (abs(ell) - 1)


def invariant3d_diagnostic(
    q: HelicityQuanta, p: float, profile: ParameterProfile, aux: AuxiliarySolution, grid
) -> Invariant3dTrace:
    """Axial-extension eigenvalue trace: how far alpha(t) drifts.

    The free axial mode contributes rho^2 p^2 / 2 on top of the planar
    eigenvalue kappa (n+ + n- + 1); a nonzero drift quantifies why the
    naive 3D extension fails to be invariant.
    """
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(aux.rho_at(grid), dtype=float)
    alpha = 0.5 * rho**2 * p**2 + profile.kappa * (q.total + 1)
    return Invariant3dTrace(
        grid=grid, alpha=alpha, variation=float(np.max(alpha) - np.min(alpha))
    )
