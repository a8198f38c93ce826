"""Coherent-state families on the truncated two-mode helicity lattice.

Every state is stored on its support, the lattice points (n_plus, n_minus)
it occupies and their amplitudes; the dense table is derived on demand.
Closed-form overlaps, photon distributions and weight functions serve as
verification targets against the states.

Families and supports:

``canonical``           full lattice, c = Poisson amplitudes in each mode.
``nonlinear``           full lattice, f-deformed amplitudes with the
                        factorial convention [f(n)]! = f(1)...f(n), [f(0)]! = 1.
``photon_added``        lattice shifted by the added quanta (m_plus, m_minus).
``su2``                 anti-diagonal shell n_plus + n_minus = 2j.
``su2_pa``              same shell, support starting at n_plus = p.
``su11_bg``             diagonal n_plus - n_minus = ell (Bargmann k = (ell+1)/2).
``su11_perelomov``      same diagonal.
``su11_pa_perelomov``   diagonal shifted by the added index l.
``su11_pa_bg``          diagonal shifted by n_add.

Normalization policy: families with an exact closed-form constant
(canonical, su2, su2_pa, su11_bg, su11_perelomov) use it, so norm_deficit
measures pure truncation loss; the photon-added families normalize by the
truncated series itself, so their norm_deficit is zero by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, hyp2f1, psi, xlogy

from .auxode import AuxiliarySolution
from .errors import (
    CutoffMismatch,
    CutoffOverflow,
    CutoffTooSmall,
    DivergentSeries,
    DomainError,
    EtaOutOfDisk,
    InvalidState,
    NormalizationDiverges,
    PTooLarge,
    UnsupportedFamily,
    WrongFamily,
    ZeroF,
)
from .profiles import ParameterProfile
from .specfun import MeijerGSpec, bessel, gamma_fn, hypergeometric, meijer_g
from .spectrum import _drive_energy, _radial_energy

__all__ = [
    "StateVector",
    "EvolutionParams",
    "WeightSpec",
    "canonical_state",
    "overlap",
    "distribution",
    "evolution_params",
    "evolve_canonical",
    "nonlinear_state",
    "photon_added_state",
    "pa_nonlinear_function",
    "su2_state",
    "su2_pa_state",
    "su11_bg_state",
    "su11_perelomov_state",
    "su11_pa_perelomov_state",
    "su11_pa_bg_state",
    "single_mode_wavefunction",
    "weight_spec",
    "canonical_overlap_modulus",
    "su2_overlap",
    "bg_overlap",
    "perelomov_overlap",
    "pa_bg_overlap",
    "state_to_json",
    "state_from_json",
]

_MAX_CUTOFF = 10_000
_TAIL_LOG = math.log(1e-16)
_LOG_SERIES_TERMS = 400


@dataclass
class StateVector:
    """Truncated coherent state stored on its support.

    Amplitude amps[i] sits at lattice point (n_plus[i], n_minus[i]); the
    entries are kept in row-major order of (n_plus, n_minus), each point once.
    """

    cutoff: int
    n_plus: np.ndarray  # intp
    n_minus: np.ndarray  # intp
    amps: np.ndarray  # complex
    family: str
    params: dict = field(repr=False)
    norm_deficit: float = 0.0

    def __post_init__(self):
        self.n_plus = np.asarray(self.n_plus, dtype=np.intp)
        self.n_minus = np.asarray(self.n_minus, dtype=np.intp)
        self.amps = np.asarray(self.amps, dtype=complex)
        if not self.n_plus.shape == self.n_minus.shape == self.amps.shape == (self.amps.size,):
            raise InvalidState("support indices and amplitudes must be 1-D of one length")
        if np.any(np.minimum(self.n_plus, self.n_minus) < 0) or np.any(
            np.maximum(self.n_plus, self.n_minus) > self.cutoff
        ):
            raise InvalidState(f"support index outside [0, {self.cutoff}]")
        if not np.all(np.isfinite(self.amps)):
            raise InvalidState("non-finite amplitude")
        _, order = np.unique(_flat_index(self), return_index=True)
        if order.size < self.amps.size:
            raise InvalidState("lattice point listed twice")
        self.n_plus, self.n_minus, self.amps = self.n_plus[order], self.n_minus[order], self.amps[order]
        total = float(np.sum(np.abs(self.amps) ** 2))
        if total > 1.0 + 1e-12:
            raise InvalidState(f"state over-normalized: {total}")

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only dense table, shape (cutoff+1, cutoff+1), index [n+, n-]."""
        table = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=complex)
        table[self.n_plus, self.n_minus] = self.amps
        table.flags.writeable = False
        return table


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp per entry, whose last bit numpy's vector exp does not always match."""
    return np.array([math.exp(v) for v in x.tolist()])


def _flat_index(s: StateVector) -> np.ndarray:
    """Row-major position of each support entry in the dense table."""
    return s.n_plus * (s.cutoff + 1) + s.n_minus


def _table_state(table, family, params, deficit=0.0) -> StateVector:
    """State on the nonzero entries of a product-family table."""
    n_plus, n_minus = np.nonzero(table)
    return StateVector(
        table.shape[0] - 1, n_plus, n_minus, table[n_plus, n_minus], family, params, deficit
    )


def _first_index(log_term: Callable, m0: int, small: Callable, what: str) -> int:
    """First m >= m0 at which small(log_term(m), running peak, m) holds.

    log_term is evaluated on blocks of 256 indices, up to _MAX_CUTOFF.
    """
    best = -math.inf
    for start in range(m0, _MAX_CUTOFF, 256):
        m = np.arange(start, min(start + 256, _MAX_CUTOFF))
        terms = log_term(m)
        peak = np.maximum.accumulate(np.maximum(terms, best))
        hit = np.flatnonzero(small(terms, peak, m))
        if hit.size:
            return int(m[hit[0]])
        best = peak[-1]
    raise CutoffOverflow(f"{what} needs a cutoff beyond {_MAX_CUTOFF}")


@dataclass(frozen=True)
class EvolutionParams:
    """Mode-rotation rates of the evolved canonical family.

    T1 is the radial energy scale, T2 = omega_c/2 splits the two
    helicities, lam is the c-number drive term.
    """

    T1: float
    T2: float
    lam: float


@dataclass
class WeightSpec:
    """Moment-problem data for a family's resolution of the identity.

    The check integrates x^(m + power_offset) * evaluator(x) over
    (0, x_max or inf) and compares with moment_target(m) for admissible
    m in [m_min, m_max], calling the evaluator on an array of x.
    """

    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    moment_target: Callable[[int], float]
    m_min: int = 0
    m_max: Optional[int] = None
    power_offset: int = 0
    x_max: Optional[float] = None


# ---------------------------------------------------------------------------
# canonical family
# ---------------------------------------------------------------------------

def _poisson_cutoff(abs_z: float) -> int:
    """First n past the Poisson peak n ~ |z|^2 whose term is below 1e-16."""
    if abs_z == 0.0:
        return 8
    return _first_index(
        lambda n: -abs_z**2 + 2 * n * math.log(abs_z) - gammaln(n + 1),
        8,
        lambda term, peak, n: (n > abs_z**2) & (term < _TAIL_LOG),
        f"|z| = {abs_z}",
    )


def _canonical_mode(z: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    if z == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -abs(z) ** 2 / 2.0 + n * math.log(abs(z)) - 0.5 * gammaln(n + 1)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(z))


def canonical_state(
    z_plus: complex, z_minus: complex, cutoff: Optional[int] = None
) -> StateVector:
    """Two-mode canonical coherent state with Poisson amplitudes.

    c(n+, n-) = exp(-(|z+|^2 + |z-|^2)/2) z+^{n+} z-^{n-} / sqrt(n+! n-!).
    The cutoff is raised until the per-mode tail drops below 1e-16.
    """
    needed = max(_poisson_cutoff(abs(z_plus)), _poisson_cutoff(abs(z_minus)))
    if cutoff is not None and cutoff > _MAX_CUTOFF:
        raise CutoffOverflow(f"cutoff {cutoff} beyond supported {_MAX_CUTOFF}")
    n_cut = max(cutoff or 0, needed)
    table = np.outer(_canonical_mode(z_plus, n_cut), _canonical_mode(z_minus, n_cut))
    return _table_state(
        table,
        "canonical",
        {"z_plus": complex(z_plus), "z_minus": complex(z_minus)},
        1.0 - float(np.sum(np.abs(table) ** 2)),
    )


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>, summed over the lattice points both states hold."""
    if a.cutoff != b.cutoff:
        raise CutoffMismatch(f"cutoffs differ: {a.cutoff} vs {b.cutoff}")
    _, ia, ib = np.intersect1d(
        _flat_index(a), _flat_index(b), assume_unique=True, return_indices=True
    )
    return complex(np.vdot(a.amps[ia], b.amps[ib]))


def distribution(s: StateVector) -> np.ndarray:
    """Occupation probabilities P(n+, n-) = |c|^2."""
    return np.abs(s.coeffs) ** 2


def evolution_params(
    profile: ParameterProfile, aux: AuxiliarySolution, t: float
) -> EvolutionParams:
    """Frozen-time rotation rates (T1, T2, lam) of the canonical family."""
    return EvolutionParams(
        T1=_radial_energy(profile, aux, t),
        T2=0.5 * float(profile.omega_c(t)),
        lam=_drive_energy(profile, t),
    )


def evolve_canonical(s: StateVector, params: EvolutionParams, tau: float) -> StateVector:
    """Rotate the canonical labels: z_pm -> exp(-i(T1 +- T2) tau) z_pm,
    with global phase exp(-i(T1 - lam) tau)."""
    if s.family != "canonical":
        raise WrongFamily(f"evolution closed form applies to canonical, got {s.family}")
    z_p = s.params["z_plus"] * np.exp(-1j * (params.T1 + params.T2) * tau)
    z_m = s.params["z_minus"] * np.exp(-1j * (params.T1 - params.T2) * tau)
    out = canonical_state(z_p, z_m, cutoff=s.cutoff)
    phase = np.exp(-1j * (params.T1 - params.lam) * tau)
    out.amps = out.amps * phase
    out.params["global_phase"] = complex(phase)
    return out


# ---------------------------------------------------------------------------
# deformed and photon-added families
# ---------------------------------------------------------------------------

def _deformed_mode(alpha: complex, f: Callable[[int], float], cutoff: int) -> np.ndarray:
    """Unnormalized amplitudes alpha^n / (sqrt(n!) [f(n)]!)."""
    out = np.empty(cutoff + 1, dtype=complex)
    out[0] = 1.0
    acc = 1.0 + 0.0j
    for n in range(1, cutoff + 1):
        fn = float(f(n))
        if fn == 0.0:
            raise ZeroF(f"deformation function vanishes at n = {n}")
        acc = acc * alpha / (math.sqrt(n) * fn)
        out[n] = acc
    return out


def _check_mode_tail(weights: np.ndarray, label: str) -> None:
    total = float(np.sum(np.abs(weights) ** 2))
    tail = float(np.abs(weights[-1]) ** 2)
    if tail > 1e-10 * total:
        raise NormalizationDiverges(
            f"{label}: last-shell weight {tail:.3e} not negligible against "
            f"{total:.3e}; the truncated normalization has not converged"
        )


def nonlinear_state(
    alpha_plus: complex,
    alpha_minus: complex,
    f_plus: Callable[[int], float],
    f_minus: Callable[[int], float],
    cutoff: int = 40,
) -> StateVector:
    """f-deformed coherent state, eigenvector of a f(N) in each mode."""
    w_p = _deformed_mode(alpha_plus, f_plus, cutoff)
    w_m = _deformed_mode(alpha_minus, f_minus, cutoff)
    _check_mode_tail(w_p, "plus mode")
    _check_mode_tail(w_m, "minus mode")
    table = np.outer(w_p, w_m)
    table /= math.sqrt(float(np.sum(np.abs(table) ** 2)))
    return _table_state(
        table,
        "nonlinear",
        {"alpha_plus": complex(alpha_plus), "alpha_minus": complex(alpha_minus)},
    )


def _added_mode(alpha: complex, m_add: int, cutoff: int) -> np.ndarray:
    """Unnormalized amplitudes of (a^dag)^m acting on a coherent mode:
    weight alpha^(n-m) sqrt(n!) / (n-m)! for n >= m."""
    out = np.zeros(cutoff + 1, dtype=complex)
    n = np.arange(m_add, cutoff + 1)
    k = n - m_add
    if alpha == 0:
        out[m_add] = 1.0
        return out
    log_mag = k * math.log(abs(alpha)) + 0.5 * gammaln(n + 1) - gammaln(k + 1)
    out[m_add:] = np.exp(log_mag - np.max(log_mag)) * np.exp(1j * k * np.angle(alpha))
    return out


def photon_added_state(
    alpha_plus: complex,
    alpha_minus: complex,
    m_plus: int,
    m_minus: int,
    cutoff: int = 40,
) -> StateVector:
    """Normalized image of a canonical state under (a+dag)^m+ (a-dag)^m-."""
    if m_plus < 0 or m_minus < 0:
        raise ValueError("added photon numbers must be nonnegative")
    if cutoff < max(m_plus, m_minus) + 2:
        raise CutoffTooSmall(
            f"cutoff {cutoff} cannot hold {m_plus}/{m_minus} added quanta"
        )
    if cutoff > _MAX_CUTOFF:
        raise CutoffOverflow(f"cutoff {cutoff} beyond supported {_MAX_CUTOFF}")
    w_p = _added_mode(alpha_plus, m_plus, cutoff)
    w_m = _added_mode(alpha_minus, m_minus, cutoff)
    _check_mode_tail(w_p, "plus mode")
    _check_mode_tail(w_m, "minus mode")
    table = np.outer(w_p, w_m)
    table /= math.sqrt(float(np.sum(np.abs(table) ** 2)))
    return _table_state(
        table,
        "photon_added",
        {
            "alpha_plus": complex(alpha_plus),
            "alpha_minus": complex(alpha_minus),
            "m_plus": m_plus,
            "m_minus": m_minus,
        },
    )


def pa_nonlinear_function(m_plus: int, m_minus: int, n_plus: int, n_minus: int) -> float:
    """Deformation function whose eigenstates reproduce photon addition:
    (1 - m+/(n+ + 1)) (1 - m-/(n- + 1))."""
    return (1.0 - m_plus / (n_plus + 1.0)) * (1.0 - m_minus / (n_minus + 1.0))


# ---------------------------------------------------------------------------
# SU(2) families
# ---------------------------------------------------------------------------

def _check_spin(j: float) -> int:
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-12 or two_j < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return two_j


def su2_state(j: float, zeta: complex, cutoff: Optional[int] = None) -> StateVector:
    """Spin coherent state on the shell n+ + n- = 2j.

    c_m = (1+|zeta|^2)^{-j} sqrt(C(2j, m)) zeta^m at (n+, n-) = (m, 2j-m).
    """
    two_j = _check_spin(j)
    n_cut = two_j if cutoff is None else cutoff
    if n_cut < two_j:
        raise CutoffTooSmall(f"cutoff {n_cut} < 2j = {two_j}")
    amps = np.empty(two_j + 1, dtype=complex)
    pref = (1.0 + abs(zeta) ** 2) ** (-j)
    for m in range(two_j + 1):
        log_binom = 0.5 * (
            gammaln(two_j + 1) - gammaln(m + 1) - gammaln(two_j - m + 1)
        )
        amps[m] = pref * math.exp(log_binom) * zeta**m
    m = np.arange(two_j + 1)
    return StateVector(
        n_cut, m, two_j - m, amps, "su2", {"j": j, "zeta": complex(zeta)},
        1.0 - float(np.sum(np.abs(amps) ** 2)),
    )


def su2_pa_state(
    j: float, zeta: complex, p: int, cutoff: Optional[int] = None
) -> StateVector:
    """Photon-added spin state: (J+)^p image of the su2 state.

    c_m proportional to sqrt((2j)! (m+p)!) / (m! sqrt((2j-m-p)!)) zeta^m on
    (n+, n-) = (m+p, 2j-m-p); the normalization constant is the terminating
    Gauss series 2F1(1+p, p-2j; 1; -|zeta|^2) scaled by Gamma ratios.
    """
    two_j = _check_spin(j)
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p > two_j:
        raise PTooLarge(f"p = {p} exceeds 2j = {two_j}")
    n_cut = two_j if cutoff is None else cutoff
    if n_cut < two_j:
        raise CutoffTooSmall(f"cutoff {n_cut} < 2j = {two_j}")
    norm_sq = (
        gamma_fn(1 + two_j)
        * gamma_fn(1 + p)
        / gamma_fn(1 + two_j - p)
        * float(hypergeometric([1 + p, p - two_j], [1.0], -abs(zeta) ** 2).real)
    )
    amps = np.empty(two_j - p + 1, dtype=complex)
    for m in range(two_j - p + 1):
        log_mag = 0.5 * (gammaln(two_j + 1) + gammaln(m + p + 1)) - gammaln(
            m + 1
        ) - 0.5 * gammaln(two_j - m - p + 1)
        amps[m] = math.exp(log_mag) * zeta**m
    amps /= math.sqrt(norm_sq)
    n_plus = np.arange(p, two_j + 1)
    return StateVector(
        n_cut, n_plus, two_j - n_plus, amps, "su2_pa", {"j": j, "zeta": complex(zeta), "p": p},
        1.0 - float(np.sum(np.abs(amps) ** 2)),
    )


# ---------------------------------------------------------------------------
# su(1,1) families
# ---------------------------------------------------------------------------

def _lattice_ell(k_mode) -> tuple:
    """Resolve a mode tag into (k, ell) with ell = 2k - 1 on the lattice."""
    tag, value = k_mode
    if tag == "two_mode":
        k = float(value)
        ell = 2.0 * k - 1.0
        if k <= 0 or abs(ell - round(ell)) > 1e-12 or round(ell) < 0:
            raise UnsupportedFamily(
                f"two-mode realization needs 2k-1 a nonnegative integer, got k={k}"
            )
        return k, int(round(ell))
    if tag == "single_mode":
        ell = int(value)
        if ell < 0:
            raise ValueError(
                "single-mode ell must be >= 0 here; negative values follow "
                "by exchanging the two modes"
            )
        return 0.5 * (ell + 1), ell
    raise UnsupportedFamily(f"unknown su(1,1) mode tag {tag!r}")


def _bg_cutoff(abs_z: float, two_k: float) -> int:
    if abs_z == 0.0:
        return 8
    return _first_index(
        lambda m: 2 * m * math.log(abs_z) - gammaln(m + 1) - gammaln(m + two_k),
        8,
        lambda term, peak, m: term < peak - 40.0,
        f"|z| = {abs_z}",
    )


def su11_bg_state(k_mode, z: complex, cutoff: Optional[int] = None) -> StateVector:
    """Lowering-generator eigenstate (K- eigenvalue z) on a fixed diagonal.

    c_m = N z^m / sqrt(m! Gamma(m+2k)), N = sqrt(|z|^{2k-1} / I_{2k-1}(2|z|)).
    """
    k, ell = _lattice_ell(k_mode)
    two_k = 2.0 * k
    m_needed = _bg_cutoff(abs(z), two_k)
    n_cut = max((cutoff or 0), m_needed + ell)
    if n_cut > _MAX_CUTOFF:
        raise CutoffOverflow(f"cutoff {n_cut} beyond supported {_MAX_CUTOFF}")
    nu = two_k - 1.0
    i_nu = float(bessel("I", nu, 2 * abs(z)))
    if z == 0 or not i_nu > 0.0:
        # limit |z|^nu / I_nu(2|z|) -> Gamma(2k), reached in double precision
        # long before scipy's iv returns 0 or NaN (|z| below about 1e-77)
        log_norm = 0.5 * gammaln(two_k)
    else:
        log_norm = 0.5 * (nu * math.log(abs(z)) - math.log(i_nu))
    m = np.arange(n_cut - ell + 1 if z != 0 else 1)
    log_z = math.log(abs(z)) if z != 0 else 0.0
    log_mag = log_norm + m * log_z - 0.5 * (gammaln(m + 1) + gammaln(m + two_k))
    amps = _exp(log_mag) * np.exp(1j * m * np.angle(z))
    return StateVector(
        n_cut, m + ell, m, amps, "su11_bg", {"k": k, "ell": ell, "z": complex(z)},
        1.0 - float(np.sum(np.abs(amps) ** 2)),
    )


def su11_perelomov_state(k_mode, eta: complex, cutoff: Optional[int] = None) -> StateVector:
    """Displacement-operator state on a fixed diagonal.

    c_m = (1-|eta|^2)^k sqrt(Gamma(2k+m)/(m! Gamma(2k))) eta^m; the analytic
    prefactor is exact, so norm_deficit is the truncation tail.
    """
    k, ell = _lattice_ell(k_mode)
    if abs(eta) >= 1.0:
        raise EtaOutOfDisk(f"|eta| = {abs(eta)} must be < 1")
    two_k = 2.0 * k
    # geometric-tail cutoff: term ratio -> |eta|^2 for large m
    m_needed = 8
    if eta != 0:
        log_eta_sq = 2.0 * math.log(abs(eta))
        m_needed = _first_index(
            lambda m: gammaln(two_k + m) - gammaln(m + 1) - gammaln(two_k) + m * log_eta_sq,
            8,
            lambda term, peak, m: term < peak + math.log1p(-abs(eta) ** 2) - 34.0,
            f"|eta| = {abs(eta)}",
        )
    n_cut = max((cutoff or 0), m_needed + ell)
    m = np.arange(n_cut - ell + 1 if eta != 0 else 1)
    log_eta = math.log(abs(eta)) if eta != 0 else 0.0
    log_mag = 0.5 * (gammaln(two_k + m) - gammaln(m + 1) - gammaln(two_k))
    amps = (1.0 - abs(eta) ** 2) ** k * _exp(log_mag + m * log_eta) * np.exp(
        1j * m * np.angle(eta)
    )
    return StateVector(
        n_cut, m + ell, m, amps, "su11_perelomov", {"k": k, "ell": ell, "eta": complex(eta)},
        1.0 - float(np.sum(np.abs(amps) ** 2)),
    )


def _pa_weight_f(k: float, l: int, m: np.ndarray) -> np.ndarray:
    """F_l(k, m) = (m!)^2 Gamma(2k) / (Gamma(m+l+1) Gamma(m+2k+l))."""
    return np.exp(
        2.0 * gammaln(m + 1)
        + gammaln(2.0 * k)
        - gammaln(m + l + 1)
        - gammaln(m + 2.0 * k + l)
    )


def _series_amps(w: complex, m: np.ndarray, log_weight: Callable) -> np.ndarray:
    """w^m exp(-log_weight() / 2), normalized by its own truncated sum; w = 0
    gives m = 0 alone without evaluating the weights."""
    if w == 0:
        return (m == 0).astype(complex)
    log_mag = m * math.log(abs(w)) - 0.5 * log_weight()
    amps = np.exp(log_mag - np.max(log_mag)) * np.exp(1j * m * np.angle(w))
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


def su11_pa_perelomov_state(
    k: float, eta: complex, l: int, cutoff: Optional[int] = None
) -> StateVector:
    """(K+)^l image of the Perelomov state, truncated-series normalization.

    c_m proportional to eta^m / sqrt(F_l(k, m)).
    """
    if abs(eta) >= 1.0:
        raise EtaOutOfDisk(f"|eta| = {abs(eta)} must be < 1")
    if l < 0:
        raise ValueError("added index l must be nonnegative")
    _, ell = _lattice_ell(("two_mode", k))
    shift = l + ell
    # term ratio -> |eta|^2 for large m; stop well past the series peak
    m_needed = 12
    if eta != 0:
        m_needed = _first_index(
            lambda m: 2 * m * math.log(abs(eta)) - np.log(_pa_weight_f(k, l, m)),
            12,
            lambda term, peak, m: term < peak + math.log1p(-abs(eta) ** 2) - 34.0,
            f"|eta| = {abs(eta)}",
        )
    n_cut = max((cutoff or 0), m_needed + shift)
    m = np.arange(n_cut - shift + 1)
    amps = _series_amps(eta, m, lambda: np.log(_pa_weight_f(k, l, m)))
    return StateVector(
        n_cut, m + shift, m + l, amps, "su11_pa_perelomov", {"k": k, "eta": complex(eta), "l": l}
    )


def _pa_bg_log_weight(k: float, n_add: int, m: np.ndarray) -> np.ndarray:
    """log rho_n(k, m), rho_n = [Gamma(m+1) Gamma(m+2k)]^2 / (Gamma(m+n+1) Gamma(m+n+2k))."""
    return (
        2.0 * (gammaln(m + 1) + gammaln(m + 2.0 * k))
        - gammaln(m + n_add + 1)
        - gammaln(m + n_add + 2.0 * k)
    )


def _pa_bg_weight(k: float, n_add: int, m: np.ndarray) -> np.ndarray:
    """rho_n(k, m), the PA-BG moment sequence."""
    return np.exp(_pa_bg_log_weight(k, n_add, m))


def su11_pa_bg_state(
    k: float, z: complex, n_add: int, cutoff: Optional[int] = None
) -> StateVector:
    """(K+)^n image of the Barut-Girardello state.

    c_m proportional to z^m / sqrt(rho_n(k, m)), truncated-series
    normalization; n_add = 0 recovers the BG amplitudes exactly.
    """
    if n_add < 0:
        raise ValueError("added index must be nonnegative")
    _, ell = _lattice_ell(("two_mode", k))
    shift = n_add + ell
    m_needed = 8 if z == 0 else _bg_cutoff(abs(z), 2.0 * k) + n_add + 4
    n_cut = max((cutoff or 0), m_needed + shift)
    if n_cut > _MAX_CUTOFF:
        raise CutoffOverflow(f"cutoff {n_cut} beyond supported {_MAX_CUTOFF}")
    m = np.arange(n_cut - shift + 1)
    amps = _series_amps(z, m, lambda: np.log(_pa_bg_weight(k, n_add, m)))
    return StateVector(
        n_cut, m + shift, m + n_add, amps, "su11_pa_bg", {"k": k, "z": complex(z), "n_add": n_add}
    )


# ---------------------------------------------------------------------------
# closed-form overlaps
# ---------------------------------------------------------------------------

def canonical_overlap_modulus(
    z_plus1: complex, z_minus1: complex, z_plus2: complex, z_minus2: complex
) -> float:
    """|<z1|z2>| = exp(-|z+1 - z+2|^2/2) exp(-|z-1 - z-2|^2/2)."""
    return math.exp(
        -0.5 * abs(z_plus1 - z_plus2) ** 2 - 0.5 * abs(z_minus1 - z_minus2) ** 2
    )


def su2_overlap(j: float, zeta1: complex, zeta2: complex) -> complex:
    """<zeta1|zeta2> = (1+|z1|^2)^-j (1+|z2|^2)^-j (1 + conj(z1) z2)^2j."""
    two_j = _check_spin(j)
    return (
        (1.0 + abs(zeta1) ** 2) ** (-j)
        * (1.0 + abs(zeta2) ** 2) ** (-j)
        * (1.0 + np.conj(zeta1) * zeta2) ** two_j
    )


def _bg_series(nu: float, w: float) -> float:
    """sum_m w^m / (m! Gamma(m+nu+1)) = I_nu(2 sqrt(w)) / w^{nu/2}."""
    if w == 0.0:
        return 1.0 / gamma_fn(nu + 1.0)
    return float(bessel("I", nu, 2.0 * math.sqrt(w))) / w ** (nu / 2.0)


def bg_overlap(ell: int, z1: float, z2: float) -> float:
    """Real-parameter BG overlap I_l(2 sqrt(z1 z2)) / sqrt(I_l(2z1) I_l(2z2))."""
    if z1 < 0 or z2 < 0:
        raise DomainError("closed-form BG overlap expects z >= 0")
    nu = float(abs(ell))
    return _bg_series(nu, z1 * z2) / math.sqrt(
        _bg_series(nu, z1 * z1) * _bg_series(nu, z2 * z2)
    )


def perelomov_overlap(ell: int, eta1: complex, eta2: complex) -> complex:
    """<eta1|eta2> = [(1-|eta1|^2)(1-|eta2|^2)]^{(|l|+1)/2} (1-conj(eta1) eta2)^{-|l|-1}."""
    if abs(eta1) >= 1 or abs(eta2) >= 1:
        raise EtaOutOfDisk("both parameters must lie inside the unit disk")
    k = 0.5 * (abs(ell) + 1)
    return (
        ((1.0 - abs(eta1) ** 2) * (1.0 - abs(eta2) ** 2)) ** k
        * (1.0 - np.conj(eta1) * eta2) ** (-(abs(ell) + 1))
    )


def _pa_bg_terms(log_term: Callable, scale: float, n_add: int, error: type, what: str):
    """(m, peak, exp(log_term(m) - peak)) of a PA-BG sum, capped at _MAX_CUTOFF.

    Once m >= n_add the term ratio is at most 4 scale^2 / (m+1)^2, so 64
    terms past 4 scale + n_add end far below 1e-18 of the peak; error is
    raised unless the last term is.
    """
    m = np.arange(min(_MAX_CUTOFF, int(4 * scale) + n_add + 64))
    terms = log_term(m)
    peak = float(np.max(terms))
    if terms[-1] > peak + math.log(1e-18):
        raise error(f"{what} not converged in {m.size} terms")
    return m, peak, np.exp(terms - peak)


def _pa_bg_log_norm(k: float, n_add: int, abs_z: float) -> float:
    """Log of the truncated-series normalization constant of a PA-BG state."""
    _, peak, terms = _pa_bg_terms(
        lambda m: xlogy(2 * m, abs_z) - _pa_bg_log_weight(k, n_add, m),
        abs_z,
        n_add,
        NormalizationDiverges,
        f"PA-BG normalization at |z| = {abs_z}",
    )
    return -0.5 * (peak + math.log(np.sum(terms)))


def pa_bg_overlap(k: float, n1: int, n2: int, z1: complex, z2: complex) -> complex:
    """Closed-form overlap <z2, n2 | z1, n1> of two PA-BG states (n1 >= n2).

    M2 M1 conj(z2)^d Gamma(n1+1) Gamma(n1+2k) / (Gamma(2k) Gamma(d+1)
    Gamma(d+2k)) 2F3(n1+1, n1+2k; d+1, d+2k, 2k; conj(z2) z1), d = n1 - n2.
    The constants and the series terms are summed in logs, so nothing
    overflows at large |z|; the modulus of each term is that of a lattice
    product |c1 c2|, so the absolute error stays at roundoff.
    """
    if n1 < n2:
        return complex(np.conj(pa_bg_overlap(k, n2, n1, z2, z1)))
    d = n1 - n2
    log_scale = (
        _pa_bg_log_norm(k, n1, abs(z1)) + _pa_bg_log_norm(k, n2, abs(z2)) + xlogy(d, abs(z2))
    )
    x = complex(np.conj(z2) * z1)
    m, peak, terms = _pa_bg_terms(
        lambda m: xlogy(m, abs(x))
        + gammaln(m + n1 + 1)
        + gammaln(m + n1 + 2.0 * k)
        - gammaln(m + d + 1)
        - gammaln(m + d + 2.0 * k)
        - gammaln(m + 2.0 * k)
        - gammaln(m + 1),
        math.sqrt(abs(x)),
        n1,
        DivergentSeries,
        f"PA-BG 2F3 series at |x| = {abs(x)}",
    )
    series = np.sum(terms * np.exp(1j * m * np.angle(x)))
    return complex(math.exp(log_scale + peak) * series * np.exp(-1j * d * np.angle(z2)))


# ---------------------------------------------------------------------------
# single-mode configuration-space closed forms
# ---------------------------------------------------------------------------

def single_mode_wavefunction(
    family: str,
    ell: int,
    param,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    u,
    theta,
):
    """Closed-form radial profile of a single-diagonal coherent state.

    Variables: u = kappa r^2 / rho^2, beta = 1 - i M rho rho' / kappa.
    Families: "bg" (Bessel form, real z >= 0) and "perelomov"
    (Laguerre generating-function form, |eta| < 1).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    a_ell = abs(int(ell))
    rho = float(aux.rho_at(t))
    rho_dot = float(aux.rho_dot_at(t))
    M = float(profile.mass(t))
    kap = profile.kappa
    beta = 1.0 - 1j * M * rho * rho_dot / kap
    pref = math.sqrt(kap / (math.pi * rho * rho)) * np.exp(1j * ell * np.asarray(theta))
    envelope = np.exp(-0.5 * beta * u)

    if family == "bg":
        z = param
        if abs(complex(z).imag) > 0 or complex(z).real < 0:
            raise DomainError("bg closed form expects real z >= 0")
        z = float(np.real(z))
        if z == 0.0:
            return pref * envelope * u ** (a_ell / 2.0) / math.sqrt(gamma_fn(a_ell + 1))
        body = (
            math.exp(z)
            * bessel("J", float(a_ell), 2.0 * np.sqrt(u * z))
            / math.sqrt(float(bessel("I", float(a_ell), 2.0 * z)))
        )
        return pref * envelope * body
    if family == "perelomov":
        eta = complex(param)
        if abs(eta) >= 1.0:
            raise EtaOutOfDisk(f"|eta| = {abs(eta)} must be < 1")
        if eta == 0:
            return pref * envelope * u ** (a_ell / 2.0) / math.sqrt(gamma_fn(a_ell + 1))
        body = (
            (1.0 - abs(eta) ** 2) ** (0.5 * (a_ell + 1))
            / math.sqrt(gamma_fn(a_ell + 1))
            * u ** (a_ell / 2.0)
            * np.exp(u * eta / (eta - 1.0))
            * (1.0 - eta) ** (-1.0 - a_ell)
        )
        return pref * envelope * body
    raise UnsupportedFamily(f"unknown single-mode family {family!r}")


# ---------------------------------------------------------------------------
# weight functions / moment problems
# ---------------------------------------------------------------------------

def _su2_pa_target(two_j: int, p: int) -> Callable[[int], float]:
    def target(m: int) -> float:
        return math.exp(
            2.0 * gammaln(m + 1)
            + gammaln(two_j - m - p + 1)
            - gammaln(two_j + 1)
            - gammaln(m + p + 1)
        )

    return target


def _pa_perelomov_density(k: float, l: int):
    """Exact PA-Perelomov weight on [0, 1], the Hausdorff density of F_l(k, m).

    W(x) = Gamma(2k) (1-x)^(c-1) / Gamma(c) 2F1(a, l; c; 1-x), a = 2k+l-1,
    c = a+l (Klauder, Penson & Sixdeniers, PRA 64, 013817).  c = a+b is the
    logarithmic case of 2F1 at 1, where hyp2f1 loses the digits of 1-x
    (inf as x -> 0), so x < 1/16 uses the log series DLMF 15.8.10 in powers
    of x.  At k = 1/2, l = 0 the weight is a unit point mass at x = 1.
    """
    if l < 0:
        raise ValueError("added index l must be nonnegative")
    if l == 0 and k == 0.5:
        raise UnsupportedFamily(
            "perelomov_pa at k = 1/2, l = 0 is a point mass at x = 1, not a density"
        )
    a = 2.0 * k + l - 1.0
    c = a + l
    pref = math.exp(gammaln(2.0 * k) - gammaln(c))
    split = 0.0
    if l:
        # 2F1 = Gamma(c)/(Gamma(a) Gamma(l)) sum_n (a)_n (l)_n / n!^2
        #       [2 psi(n+1) - psi(a+n) - psi(l+n) - ln x] x^n
        split = 1.0 / 16.0
        n = np.arange(_LOG_SERIES_TERMS, dtype=float)
        log_coef = (
            gammaln(a + n) - gammaln(a) + gammaln(l + n) - gammaln(l) - 2.0 * gammaln(n + 1.0)
        )
        bound = log_coef + n * math.log(split)
        below = np.flatnonzero(bound < np.max(bound) + _TAIL_LOG)
        if not below.size:
            raise DivergentSeries(f"log series needs more than {_LOG_SERIES_TERMS} terms")
        n = n[: below[0]]
        coef = np.exp(gammaln(c) - gammaln(a) - gammaln(l) + log_coef[: below[0]])
        coef_psi = coef * (2.0 * psi(n + 1.0) - psi(a + n) - psi(l + n))

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        vals = np.zeros_like(x)
        near = (x >= split) & (x <= 1.0)
        vals[near] = hyp2f1(a, l, c, 1.0 - x[near])
        if l:
            far = (x > 0.0) & (x < split)
            xf = x[far]
            vals[far] = polyval(xf, coef_psi) - np.log(xf) * polyval(xf, coef)
        vals *= pref * np.clip(1.0 - x, 0.0, None) ** (c - 1.0)
        return vals if vals.ndim else float(vals)

    return evaluator


def weight_spec(family: str, params: Mapping) -> WeightSpec:
    """Weight function and moment targets for a family's identity resolution.

    Families: "canonical" (f = 1), "su2_pa" (j, p), "bg_pa" (k, n),
    "perelomov_pa" (k, l).  su2_pa and bg_pa weights are Meijer G functions
    on (0, inf); perelomov_pa is the exact Hausdorff density on [0, 1].
    Deformations with nonconstant f have no closed density here.
    """
    if family == "canonical":
        return WeightSpec(
            family=family,
            evaluator=lambda x: np.exp(-np.asarray(x, dtype=float)),
            moment_target=lambda m: gamma_fn(m + 1),
        )
    if family == "su2_pa":
        j, p = params["j"], params["p"]
        two_j = _check_spin(j)
        if p > two_j:
            raise UnsupportedFamily(
                f"p = {p} > 2j = {two_j}: no admissible moments remain"
            )
        g_spec = MeijerGSpec(
            m=2, n=1, p=2, q=2, a=(p - two_j - 1.0, float(p)), b=(0.0, 0.0)
        )
        norm = gamma_fn(two_j + 1)

        def evaluator(x):
            return meijer_g(g_spec, x) / norm

        return WeightSpec(
            family=family,
            evaluator=evaluator,
            moment_target=_su2_pa_target(two_j, p),
            m_max=two_j - p,
        )
    if family == "bg_pa":
        k, n_add = float(params["k"]), int(params["n"])
        _lattice_ell(("two_mode", k))
        g_spec = MeijerGSpec(
            m=4,
            n=0,
            p=2,
            q=4,
            a=(0.0, 2.0 * k - 1.0),
            b=(
                -float(n_add),
                -float(n_add),
                2.0 * k - 1.0 - n_add,
                2.0 * k - 1.0 - n_add,
            ),
        )

        def evaluator(x):
            return meijer_g(g_spec, x)

        def target(m: int) -> float:
            return float(_pa_bg_weight(k, n_add, np.array([m]))[0])

        return WeightSpec(
            family=family,
            evaluator=evaluator,
            moment_target=target,
            power_offset=n_add,
        )
    if family == "perelomov_pa":
        k, l = float(params["k"]), int(params["l"])
        _lattice_ell(("two_mode", k))

        def target(m: int) -> float:
            return float(_pa_weight_f(k, l, np.array([m]))[0])

        return WeightSpec(
            family=family,
            evaluator=_pa_perelomov_density(k, l),
            moment_target=target,
            m_max=8,
            x_max=1.0,
        )
    raise UnsupportedFamily(f"no weight function for family {family!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _param_value_to_json(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return v


def state_to_json(s: StateVector) -> str:
    """Dump a state as {"family", "params", "cutoff", "norm_deficit", "coeffs"}.

    The text is exactly json.dumps(doc, indent=2, sort_keys=True), with one
    [n_plus, n_minus, re, im] row per nonzero amplitude in row-major order.
    "coeffs" sorts first, so its rows are formatted in one pass over the
    support and put in front of the dump of the other keys.
    """
    doc = {
        "family": s.family,
        "params": {k: _param_value_to_json(v) for k, v in s.params.items()},
        "cutoff": s.cutoff,
        "norm_deficit": s.norm_deficit,
    }
    rest = json.dumps(doc, indent=2, sort_keys=True)
    nz = np.flatnonzero(s.amps)
    amps = s.amps[nz]
    columns = [map(repr, c.tolist()) for c in (s.n_plus[nz], s.n_minus[nz], amps.real, amps.imag)]
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*columns)))
    coeffs = f"[\n    [\n      {rows}\n    ]\n  ]" if nz.size else "[]"
    return '{\n  "coeffs": ' + coeffs + "," + rest[1:]


def state_from_json(text: str) -> StateVector:
    """Inverse of state_to_json."""
    doc = json.loads(text)
    rows = np.asarray(doc["coeffs"] or np.empty((0, 4)), dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise InvalidState("each coeffs row must be [n_plus, n_minus, re, im]")
    amps = np.empty(len(rows), dtype=complex)
    amps.real, amps.imag = rows[:, 2], rows[:, 3]
    params = {
        k: (complex(v["re"], v["im"]) if isinstance(v, dict) and set(v) == {"re", "im"} else v)
        for k, v in doc.get("params", {}).items()
    }
    deficit = float(doc.get("norm_deficit", 1.0 - np.sum(np.abs(amps) ** 2)))
    n_plus, n_minus = rows[:, :2].T.astype(np.intp)
    return StateVector(int(doc["cutoff"]), n_plus, n_minus, amps, doc["family"], params, deficit)
