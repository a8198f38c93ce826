"""Invariant eigensystem: spectra, wavefunctions, phases, operator matrices.

The quadratic invariant I(t) = kappa (a+^dag a+ + a-^dag a- + 1) is built
from helicity ladder operators

    a_pm = (1/(2 sqrt(kappa))) [ (M rho' + i kappa/rho)(x +- i y)
                                 - rho (p_x +- i p_y) ],

with (rho, rho') an auxiliary-equation solution carried by an
AuxiliarySolution.  States are labelled by occupation pairs (n_plus,
n_minus); derived labels: ell = n_plus - n_minus (the angular index of the
polar wavefunctions), angular momentum l = n_minus - n_plus, SU(2) pair
(j, m) = ((n+ + n-)/2, (n+ - n-)/2) and the single-mode su(1,1) Bargmann
index k = (|ell| + 1)/2.

Sign conventions: L_z = a-^dag a- - a+^dag a+ (so that the eigenvalue is
n_minus - n_plus) and J_3 = (a+^dag a+ - a-^dag a-)/2 = -L_z/2.  The
commutators then close as [L_z, a_pm] = +-a_pm; this is the unique sign
set consistent with the adopted L_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np
from scipy import sparse
from scipy.integrate import cumulative_trapezoid

from .auxode import AuxiliarySolution
from .errors import CutoffTooSmall, InconsistentPhase
from .profiles import ParameterProfile
from .specfun import gamma_fn, hermite, laguerre

__all__ = [
    "HelicityQuanta",
    "PhaseTrace",
    "OperatorMatrix",
    "Invariant3dTrace",
    "DEFAULT_CUTOFF",
    "invariant_eigenvalue",
    "lz_eigenvalue",
    "hamiltonian_expectation",
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
        """Angular index of the polar wavefunction, n_plus - n_minus."""
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
    """Cumulative phase gamma(t) along a grid, both conventions.

    ``gamma`` integrates d(gamma)/dt = <i d/dt> - <H>; ``gamma_closed_form``
    is the alternative closed form whose first term carries kappa/2 instead
    of kappa (kept for comparison, see the static-oscillator check).
    """

    grid: np.ndarray
    gamma: np.ndarray
    integrand: np.ndarray
    gamma_closed_form: np.ndarray


@dataclass
class OperatorMatrix:
    """Truncated two-mode matrix with its cutoff bookkeeping."""

    dim: int
    entries: sparse.csr_matrix
    cutoff: int
    edge_band: frozenset = field(repr=False)


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


def lz_eigenvalue(q: HelicityQuanta) -> int:
    """Angular-momentum eigenvalue n_minus - n_plus."""
    return q.n_minus - q.n_plus


def _radial_energy(profile: ParameterProfile, aux: AuxiliarySolution, t: float) -> float:
    """(1/2 kappa)(M rho'^2 + kappa^2/(M rho^2) + M Omega^2 rho^2)."""
    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
    Om = float(profile.Omega(t))
    kap = profile.kappa
    return (M * rho_dot**2 + kap**2 / (M * rho**2) + M * Om**2 * rho**2) / (2.0 * kap)


def _drive_energy(profile: ParameterProfile, t: float) -> float:
    """q^2 E^2 / (2 M omega), the c-number drive term of H."""
    if profile.q == 0.0:
        return 0.0
    return (
        profile.q**2
        * float(profile.efield_sq(t))
        / (2.0 * float(profile.mass(t)) * float(profile.omega(t)))
    )


def hamiltonian_expectation(
    q: HelicityQuanta, profile: ParameterProfile, aux: AuxiliarySolution, t: float
) -> float:
    """<H(t)> on the invariant eigenstate labelled by q."""
    profile.check_time(t)
    omega_c = float(profile.omega_c(t))
    return (
        _radial_energy(profile, aux, t) * (q.total + 1)
        - 0.5 * omega_c * lz_eigenvalue(q)
        - _drive_energy(profile, t)
    )


def _i_dt_expectation(
    q: HelicityQuanta, profile: ParameterProfile, aux: AuxiliarySolution, t
) -> np.ndarray:
    """<i d/dt> on the eigenstate: (n+1)(M rho'^2 + M Omega^2 rho^2
    - kappa^2/(M rho^2)) / (2 kappa).  Vanishes at the stationary point."""
    t = np.asarray(t, dtype=float)
    rho = np.asarray(aux.rho_at(t), dtype=float)
    rho_dot = np.asarray(aux.rho_dot_at(t), dtype=float)
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
    """Accumulated phase of the eigenstate along the grid.

    The authoritative gamma integrates <i d/dt> - <H>; after the analytic
    cancellation the integrand is

        -kappa (n+ + n- + 1) / (M rho^2) + (omega_c/2)(n- - n+)
        + q^2 E^2 / (2 M omega).

    ``gamma_closed_form`` halves the first term (the alternative display);
    the Schroedinger-residual check adjudicates between the two.
    """
    grid = np.asarray(grid, dtype=float)
    profile.check_time(grid)
    t = grid
    rho = np.asarray(aux.rho_at(t), dtype=float)
    M = np.asarray(profile.mass(t), dtype=float)
    omega_c = np.asarray(profile.omega_c(t), dtype=float)
    drive = np.array([_drive_energy(profile, float(ti)) for ti in t])
    ell_z = lz_eigenvalue(q)
    kap = profile.kappa

    radial_rate = -kap * (q.total + 1) / (M * rho**2)
    integrand = radial_rate + 0.5 * omega_c * ell_z + drive
    # consistency with the defining rate d(gamma)/dt = <i d_t> - <H>
    h_expect = np.array(
        [hamiltonian_expectation(q, profile, aux, float(ti)) for ti in t]
    )
    defining = _i_dt_expectation(q, profile, aux, t) - h_expect
    if np.max(np.abs(defining - integrand)) > 1e-9 * max(1.0, float(np.max(np.abs(integrand)))):
        raise InconsistentPhase("phase integrand disagrees with <i d/dt> - <H>")

    gamma = np.concatenate(([0.0], cumulative_trapezoid(integrand, t)))
    alt = 0.5 * radial_rate + 0.5 * omega_c * ell_z + drive
    gamma_alt = np.concatenate(([0.0], cumulative_trapezoid(alt, t)))
    return PhaseTrace(grid=grid, gamma=gamma, integrand=integrand, gamma_closed_form=gamma_alt)


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

    phi = (-1)^n kappa^{(1+|l|)/2} rho^{-(1+|l|)} pi^{-1/2}
          sqrt(n! / Gamma(n+|l|+1)) r^{|l|}
          exp[(i M rho'/rho - kappa/rho^2) r^2 / 2]
          L_n^{|l|}(kappa r^2 / rho^2) e^{i l theta},

    with l = n_plus - n_minus and n = min(n_plus, n_minus).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
    kap = profile.kappa
    ell = q.ell
    n = q.n_radial
    a_ell = abs(ell)

    norm = (
        (-1.0) ** n
        * kap ** (0.5 * (1 + a_ell))
        * rho ** (-(1 + a_ell))
        / math.sqrt(math.pi)
        * math.sqrt(math.factorial(n) / gamma_fn(n + a_ell + 1))
    )
    u = kap * r * r / (rho * rho)
    envelope = np.exp((1j * M * rho_dot / rho - kap / rho**2) * r * r / 2.0)
    return norm * r**a_ell * envelope * laguerre(n, float(a_ell), u) * np.exp(1j * ell * theta)


def wavefunction_cartesian(
    n_x: int,
    n_y: int,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    x,
    y,
):
    """Hermite-product eigenfunction sharing the polar envelope."""
    if n_x < 0 or n_y < 0:
        raise ValueError("mode indices must be nonnegative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
    kap = profile.kappa
    root_k = math.sqrt(kap)
    norm = (
        math.sqrt(kap / math.pi)
        / rho
        / math.sqrt(2.0 ** (n_x + n_y) * math.factorial(n_x) * math.factorial(n_y))
    )
    envelope = np.exp((1j * M * rho_dot / rho - kap / rho**2) * (x * x + y * y) / 2.0)
    return (
        norm
        * hermite(n_x, root_k * x / rho)
        * hermite(n_y, root_k * y / rho)
        * envelope
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
    out = []
    for k, t in enumerate(grid):
        out.append(
            np.exp(1j * trace.gamma[k])
            * wavefunction_polar(q, profile, aux, float(t), r, theta)
        )
    return np.asarray(out)


def uncertainty_product(
    n: int, ell: int, profile: ParameterProfile, aux: AuxiliarySolution, t: float
) -> float:
    """Delta x Delta p_x = (2n+|l|+1)/2 sqrt(1 + M^2 rho'^2 rho^2 / kappa^2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
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


def _mode_lowering(cutoff: int) -> sparse.csr_matrix:
    return sparse.diags(
        np.sqrt(np.arange(1.0, cutoff + 1)), offsets=1, format="csr", dtype=complex
    )


def build_operator_matrices(
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    cutoff: int = DEFAULT_CUTOFF,
) -> Dict[str, OperatorMatrix]:
    """All operator matrices on the truncated two-mode basis at time t.

    Keys: a+, a-, a+dag, a-dag, x, y, px, py, Lz, I, H, J+, J-, J3,
    K+, K-, K0.  Position and momentum come from the ladder inversion

        x + i y    = (i rho / sqrt(kappa)) (a-dag - a+)
        p_x + i p_y = (i M rho' / sqrt(kappa)) (a-dag - a+)
                      - (sqrt(kappa)/rho)(a+ + a-dag)

    and H is composed from x, y, p_x, p_y, L_z with profile scalars.
    """
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    profile.check_time(t)
    side = cutoff + 1
    dim = side * side
    eye = sparse.identity(side, format="csr", dtype=complex)
    low = _mode_lowering(cutoff)
    a_p = sparse.kron(low, eye, format="csr")
    a_m = sparse.kron(eye, low, format="csr")
    a_p_dag = a_p.conj().T.tocsr()
    a_m_dag = a_m.conj().T.tocsr()

    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
    kap = profile.kappa
    root_k = math.sqrt(kap)

    w_plus = (1j * rho / root_k) * (a_m_dag - a_p)          # x + i y
    w_minus = w_plus.conj().T.tocsr()                        # x - i y
    v_plus = (1j * M * rho_dot / root_k) * (a_m_dag - a_p) - (root_k / rho) * (
        a_p + a_m_dag
    )                                                        # p_x + i p_y
    v_minus = v_plus.conj().T.tocsr()

    x_op = 0.5 * (w_plus + w_minus)
    y_op = (w_plus - w_minus) / 2j
    px_op = 0.5 * (v_plus + v_minus)
    py_op = (v_plus - v_minus) / 2j

    n_p = (a_p_dag @ a_p).tocsr()
    n_m = (a_m_dag @ a_m).tocsr()
    ident = sparse.identity(dim, format="csr", dtype=complex)
    lz = (n_m - n_p).tocsr()
    inv = kap * (n_p + n_m + ident)

    omega_c = float(profile.omega_c(t))
    Om = float(profile.Omega(t))
    ham = (
        (px_op @ px_op + py_op @ py_op) / (2.0 * M)
        + 0.5 * M * Om**2 * (x_op @ x_op + y_op @ y_op)
        - 0.5 * omega_c * lz
        - _drive_energy(profile, t) * ident
    ).tocsr()

    j_plus = (a_p_dag @ a_m).tocsr()
    j_minus = (a_m_dag @ a_p).tocsr()
    j3 = (0.5 * (n_p - n_m)).tocsr()
    k_plus = (a_p_dag @ a_m_dag).tocsr()
    k_minus = (a_p @ a_m).tocsr()
    k0 = (0.5 * (n_p + n_m + ident)).tocsr()

    labels = basis_labels(cutoff)
    edge = frozenset(
        int(i)
        for i in np.nonzero((labels[:, 0] == cutoff) | (labels[:, 1] == cutoff))[0]
    )

    def wrap(mat) -> OperatorMatrix:
        return OperatorMatrix(dim=dim, entries=mat.tocsr(), cutoff=cutoff, edge_band=edge)

    return {
        "a+": wrap(a_p),
        "a-": wrap(a_m),
        "a+dag": wrap(a_p_dag),
        "a-dag": wrap(a_m_dag),
        "x": wrap(x_op),
        "y": wrap(y_op),
        "px": wrap(px_op),
        "py": wrap(py_op),
        "Lz": wrap(lz),
        "I": wrap(inv),
        "H": wrap(ham),
        "J+": wrap(j_plus),
        "J-": wrap(j_minus),
        "J3": wrap(j3),
        "K+": wrap(k_plus),
        "K-": wrap(k_minus),
        "K0": wrap(k0),
    }


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
    q: HelicityQuanta, p: float, aux: AuxiliarySolution, grid
) -> Invariant3dTrace:
    """Axial-extension eigenvalue trace: how far alpha(t) drifts.

    The free axial mode contributes rho^2 p^2 / 2 on top of the planar
    eigenvalue kappa (n+ + n- + 1); a nonzero drift quantifies why the
    naive 3D extension fails to be invariant.
    """
    grid = np.asarray(grid, dtype=float)
    rho = np.asarray(aux.rho_at(grid), dtype=float)
    alpha = 0.5 * rho**2 * p**2 + aux.kappa * (q.total + 1)
    return Invariant3dTrace(
        grid=grid, alpha=alpha, variation=float(np.max(alpha) - np.min(alpha))
    )
