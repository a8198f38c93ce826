"""Coherent-state families on the truncated two-mode helicity lattice.

Every state is stored on its support, the lattice points (n_plus, n_minus)
it occupies and their amplitudes; the dense table is derived on demand.
Closed-form overlaps, photon distributions and weight functions serve as
verification targets against the states.

Families and supports:

``canonical``           lattice square, c = Poisson amplitudes in each mode.
``nonlinear``           lattice square, f-deformed amplitudes with the
                        factorial convention [f(n)]! = f(1)...f(n), [f(0)]! = 1.
``photon_added``        square shifted by the added quanta (m_plus, m_minus).
``su2``                 anti-diagonal shell n_plus + n_minus = 2j.
``su2_pa``              same shell, support starting at n_plus = p.
``su11_bg``             diagonal n_plus - n_minus = ell (Bargmann k = (ell+1)/2).
``su11_perelomov``      same diagonal.
``su11_pa_perelomov``   diagonal shifted by the added index l.
``su11_pa_bg``          diagonal shifted by n_add.

Every family builds its amplitudes in one function, _amplitudes, as
c_m = exp(L_m) e^{i m arg w} from log-magnitudes L_m and a label w: the six
one-line families once (_line_state), the three product families once per
mode, multiplied by _product_state, which stores only the products of modulus
at least 1e-16.  Their Poisson log-weight is _poisson_half_log, in Loader's
saddle-point form.

Normalization policy: families with an exact closed-form constant
(canonical, su2, su2_pa, su11_bg, su11_perelomov) subtract ln S / 2 from L_m,
ln S the log of the full sum, so norm_deficit measures pure truncation loss,
and a deficit beyond 1e-10 raises NormalizationDiverges.  ln S is 0 for a
Poisson mode, 2j ln(1+|zeta|^2) for su2, the terminating Pfaff-form 2F1 for
su2_pa, -2k ln(1-|eta|^2) for Perelomov (which perelomov_overlap shares),
and for BG the PA-BG log series at n = 0 (which bg_overlap and the "bg"
single-mode wavefunction share).  The other families normalize by the
truncated sum once its last entry is below 1e-10 of it: norm_deficit 0 for
the one-line families.  A product state adds to its modes' deficits the
weight of the products it leaves out, below (cutoff+1)^2 1e-32.

Labels are checked before anything is built: a label that is not finite, or
whose squared modulus is not a double, raises DomainError naming it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

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
from .specfun import bessel, hyp2f1_logarithmic, hypergeometric, meijer_g

if TYPE_CHECKING:  # annotations only: the lattice algebra needs no dynamics
    from .auxode import AuxiliarySolution
    from .profiles import ParameterProfile

__all__ = [
    "StateVector",
    "EvolutionParams",
    "WeightSpec",
    "canonical_state",
    "overlap",
    "distribution",
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
_LABEL_MAX = 1e150  # each part of a label, so that |label|^2 is a double
_TAIL_LOG = math.log(1e-16)
_AMP_FLOOR = 1e-16  # product-state amplitudes below it are left out
_DEFICIT_BAR = 1e-10


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


def _flat_index(s: StateVector) -> np.ndarray:
    """Row-major position of each support entry in the dense table."""
    return s.n_plus * (s.cutoff + 1) + s.n_minus


def _label(name: str, label):
    """label itself, or DomainError naming it unless |label|^2 is a finite double."""
    z = complex(label)
    if not (abs(z.real) < _LABEL_MAX and abs(z.imag) < _LABEL_MAX):
        raise DomainError(f"{name} must be finite with |{name}|^2 a double, got {label}")
    return label


def _capped(n_cut: int) -> int:
    """n_cut itself, or CutoffOverflow past the supported cutoff."""
    if n_cut > _MAX_CUTOFF:
        raise CutoffOverflow(f"cutoff {n_cut} beyond supported {_MAX_CUTOFF}")
    return n_cut


def _closed_form_deficit(deficit: float, family: str) -> float:
    """Gate on a closed-form family's norm deficit 1 - sum |c|^2, which is
    the truncated tail alone."""
    if not abs(deficit) <= _DEFICIT_BAR:
        raise NormalizationDiverges(
            f"{family}: norm deficit {deficit:.3e} beyond {_DEFICIT_BAR:g}; the "
            "closed-form normalization does not match the amplitudes"
        )
    return deficit


def _amplitudes(m: np.ndarray, w: complex, log_mag: np.ndarray, family=None) -> tuple:
    """(exp(log_mag) e^{i m arg w}, norm deficit) on the indices m.

    A closed-form family (family named) has subtracted ln S / 2 already, so
    its deficit is the truncated tail, gated at 1e-10.  Otherwise the
    magnitudes are shifted by their maximum, which must be finite, the last
    entry must hold at most 1e-10 of the truncated sum, and that sum
    normalizes them.
    """
    phase = np.exp(1j * m * np.angle(w))
    if family is not None:
        amps = np.exp(log_mag) * phase
        return amps, _closed_form_deficit(1.0 - float(np.sum(np.abs(amps) ** 2)), family)
    peak = float(np.max(log_mag))
    if not math.isfinite(peak):
        raise NormalizationDiverges(f"peak log-magnitude {peak}: the truncated sum has no norm")
    amps = np.exp(log_mag - peak) * phase
    total, tail = float(np.sum(np.abs(amps) ** 2)), float(np.abs(amps[-1]) ** 2)
    if tail > 1e-10 * total:
        raise NormalizationDiverges(
            f"last-shell weight {tail:.3e} of {total:.3e}: the truncated sum has not converged"
        )
    return amps / math.sqrt(total), 0.0


def _line_state(family, params, cutoff, m, n_plus, n_minus, w, log_weight, log_sum=None):
    """State with amplitude c_m at (n_plus[m], n_minus[m]), one lattice line:
    L_m = m ln|w| + log_weight[m], and a closed-form family passes as log_sum
    the log of the full sum over m of exp(2 L_m)."""
    log_mag = xlogy(m, abs(w)) + log_weight
    if log_sum is not None:
        log_mag = log_mag - 0.5 * log_sum
    amps, deficit = _amplitudes(m, w, log_mag, None if log_sum is None else family)
    return StateVector(cutoff, n_plus, n_minus, amps, family, params, deficit)


def _product_state(family, params, cutoff, plus, minus) -> StateVector:
    """State c+[n+] c-[n-] of two (amplitudes on 0..cutoff, deficit) modes.

    The outer product is taken on each mode's nonzero span and only products
    with |c+ c-| >= 1e-16 are stored; the weight left out joins the deficit
    d+ + d- - d+ d-."""
    (a_p, d_p), (a_m, d_m) = plus, minus
    nz_p, nz_m = np.flatnonzero(a_p), np.flatnonzero(a_m)
    block = np.outer(a_p[nz_p[0] : nz_p[-1] + 1], a_m[nz_m[0] : nz_m[-1] + 1])
    keep = np.abs(block) >= _AMP_FLOOR
    i, j = np.nonzero(keep)
    dropped = float(np.sum(np.abs(block[~keep]) ** 2))
    deficit = _closed_form_deficit(d_p + d_m - d_p * d_m + dropped, family)
    return StateVector(cutoff, i + nz_p[0], j + nz_m[0], block[i, j], family, params, deficit)


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


@dataclass
class WeightSpec:
    """Moment-problem data for a family's resolution of the identity.

    Kept in logs: evaluator(x) returns ln W on an array of x (-inf where W
    vanishes), moment_target(m) the log of the integral of
    x^(m + power_offset) W(x) over (0, x_max or inf), m in [0, m_max].
    """

    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    moment_target: Callable[[int], float]
    m_max: Optional[int] = None
    power_offset: int = 0
    x_max: Optional[float] = None


# ---------------------------------------------------------------------------
# canonical family
# ---------------------------------------------------------------------------

def _stirlerr(n: np.ndarray) -> np.ndarray:
    """ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi) for n >= 1: the Stirling
    series past n = 15 (exact to roundoff there), gammaln below."""
    inv2 = 1.0 / (n * n)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / n
    direct = gammaln(n + 1) - (n + 0.5) * np.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    return np.where(n > 15, series, direct)


def _poisson_half_log(n: np.ndarray, abs_z: float) -> np.ndarray:
    """ln p(n; lam) / 2 of the Poisson weight p = lam^n e^-lam / n!, lam = |z|^2.

    The direct n ln lam - lam - ln n! cancels terms of size lam (an error of
    about lam ulp), so for lam > 1 and n > 15 it takes Loader's saddle-point
    form -stirlerr(n) - bd0(n, lam) - ln(2 pi n) / 2, bd0 = n ln(n/lam) + lam - n.
    The direct form stays where it is the more accurate: its terms share one
    sign at lam <= 1, and up to n = 15 _stirlerr cancels terms of size n ln n.
    """
    n, lam = np.asarray(n, dtype=float), abs_z**2
    half = -0.5 * lam + xlogy(n, abs_z) - 0.5 * gammaln(n + 1)
    if lam > 1.0:
        m = n[n > 15]
        bd0 = xlog1py(m, (m - lam) / lam) - (m - lam)
        half[n > 15] = -0.5 * (_stirlerr(m) + bd0 + 0.5 * np.log(2.0 * math.pi * m))
    return half


def _poisson_cutoff(abs_z: float) -> int:
    """First n past the Poisson peak n ~ |z|^2 whose term is below 1e-16."""
    return _first_index(
        lambda n: 2.0 * _poisson_half_log(n, abs_z), 8,
        lambda term, peak, n: (n > abs_z**2) & (term < _TAIL_LOG), f"|z| = {abs_z}",
    )


def canonical_state(
    z_plus: complex, z_minus: complex, cutoff: Optional[int] = None
) -> StateVector:
    """Two-mode canonical coherent state with Poisson amplitudes.

    c(n+, n-) = exp(-(|z+|^2 + |z-|^2)/2) z+^{n+} z-^{n-} / sqrt(n+! n-!).
    The cutoff is raised until the per-mode tail drops below 1e-16.
    """
    _label("z_plus", z_plus)
    _label("z_minus", z_minus)
    needed = max(_poisson_cutoff(abs(z_plus)), _poisson_cutoff(abs(z_minus)))
    n_cut = _capped(max(cutoff or 0, needed))
    n = np.arange(n_cut + 1)
    modes = [_amplitudes(n, z, _poisson_half_log(n, abs(z)), "canonical") for z in (z_plus, z_minus)]
    params = {"z_plus": complex(z_plus), "z_minus": complex(z_minus)}
    return _product_state("canonical", params, n_cut, *modes)


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


@dataclass(frozen=True)
class EvolutionParams:
    """Mode-rotation rates of the evolved canonical family.

    T1 is the radial energy scale, T2 = omega_c/2 splits the two helicities,
    lam is the c-number drive term; ``spectrum.evolution_params`` builds them.
    """

    T1: float
    T2: float
    lam: float


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

def _deformed_mode(alpha: complex, f: Callable[[int], float], cutoff: int) -> tuple:
    """Mode alpha^n / (sqrt(n!) [f(n)]!) on n <= cutoff, with ln |[f(n)]!| a
    cumulative sum and the sign of [f(n)]! carried into the phase."""
    f_n = np.array([float(f(n)) for n in range(1, cutoff + 1)])
    zeros = np.flatnonzero(f_n == 0.0)
    if zeros.size:
        raise ZeroF(f"deformation function vanishes at n = {zeros[0] + 1}")
    n = np.arange(cutoff + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.abs(f_n)))))
    amps, deficit = _amplitudes(n, alpha, _poisson_half_log(n, abs(alpha)) - log_fact)
    return amps * np.concatenate(([1.0], np.cumprod(np.sign(f_n)))), deficit


def nonlinear_state(
    alpha_plus: complex,
    alpha_minus: complex,
    f_plus: Callable[[int], float],
    f_minus: Callable[[int], float],
    cutoff: int = 40,
) -> StateVector:
    """f-deformed coherent state, eigenvector of a f(N) in each mode."""
    if cutoff < 0:
        raise CutoffTooSmall(f"cutoff {cutoff} is negative")
    _capped(cutoff)
    _label("alpha_plus", alpha_plus)
    _label("alpha_minus", alpha_minus)
    params = {"alpha_plus": complex(alpha_plus), "alpha_minus": complex(alpha_minus)}
    modes = [_deformed_mode(a, f, cutoff) for a, f in ((alpha_plus, f_plus), (alpha_minus, f_minus))]
    return _product_state("nonlinear", params, cutoff, *modes)


def _added_mode(alpha: complex, m_add: int, cutoff: int) -> tuple:
    """Mode of (a^dag)^m acting on a coherent mode, normalized by its
    truncated sum: weight alpha^k sqrt(C(k+m, m) / k!) at n = k + m."""
    k = np.arange(cutoff - m_add + 1)
    log_binom = sum(np.log1p(k / i) for i in range(1, m_add + 1))  # ln C(k+m, m)
    amps, deficit = _amplitudes(k, alpha, _poisson_half_log(k, abs(alpha)) + 0.5 * log_binom)
    return np.concatenate((np.zeros(m_add), amps)), deficit


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
        raise CutoffTooSmall(f"cutoff {cutoff} cannot hold {m_plus}/{m_minus} added quanta")
    _capped(cutoff)
    _label("alpha_plus", alpha_plus)
    _label("alpha_minus", alpha_minus)
    params = {"alpha_plus": complex(alpha_plus), "alpha_minus": complex(alpha_minus)}
    modes = [_added_mode(a, m, cutoff) for a, m in ((alpha_plus, m_plus), (alpha_minus, m_minus))]
    return _product_state(
        "photon_added", {**params, "m_plus": m_plus, "m_minus": m_minus}, cutoff, *modes
    )


def pa_nonlinear_function(m_plus: int, m_minus: int, n_plus: int, n_minus: int) -> float:
    """Deformation function whose eigenstates reproduce photon addition:
    (1 - m+/(n+ + 1)) (1 - m-/(n- + 1))."""
    return (1.0 - m_plus / (n_plus + 1.0)) * (1.0 - m_minus / (n_minus + 1.0))


# ---------------------------------------------------------------------------
# SU(2) families
# ---------------------------------------------------------------------------

def _check_spin(j: float) -> int:
    two_j = int(round(2 * _label("j", j)))
    if abs(2 * j - two_j) > 1e-12 or two_j < 0:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return two_j


def _log_binomial(n, m: np.ndarray) -> np.ndarray:
    """ln C(n, m) for integers 0 <= m <= n, in Stirling's form: its large
    terms m ln(n/m) + k ln(n/k), k = n - m, are of size n, where a gammaln
    sum rounds at size n ln n (2e-13 against 2e-12 at n = 1000).  They are
    formed as m log1p(k/m) + k log1p(m/k), which keeps the digits of a
    ratio n/k or n/m near 1."""
    m = np.asarray(m, dtype=float)
    inner = (m > 0) & (m < n)
    n, k, m = np.where(inner, n, 2.0), np.where(inner, n - m, 1.0), np.where(inner, m, 1.0)
    out = (
        m * np.log1p(k / m) + k * np.log1p(m / k) + 0.5 * np.log(n / (2.0 * math.pi * m * k))
        + _stirlerr(n) - _stirlerr(m) - _stirlerr(k)
    )
    return np.where(inner, out, 0.0)


def su2_state(j: float, zeta: complex, cutoff: Optional[int] = None) -> StateVector:
    """Spin coherent state on the shell n+ + n- = 2j.

    c_m = (1+|zeta|^2)^{-j} sqrt(C(2j, m)) zeta^m at (n+, n-) = (m, 2j-m),
    normalization sum (1+|zeta|^2)^{2j}.
    """
    two_j = _check_spin(j)
    _label("zeta", zeta)
    n_cut = _capped(two_j if cutoff is None else cutoff)
    if n_cut < two_j:
        raise CutoffTooSmall(f"cutoff {n_cut} < 2j = {two_j}")
    m = np.arange(two_j + 1)
    return _line_state(
        "su2", {"j": j, "zeta": complex(zeta)}, n_cut, m, m, two_j - m, zeta,
        0.5 * _log_binomial(two_j, m), two_j * math.log1p(abs(zeta) ** 2),
    )


def su2_pa_state(
    j: float, zeta: complex, p: int, cutoff: Optional[int] = None
) -> StateVector:
    """Photon-added spin state: (J+)^p image of the su2 state.

    c_m proportional to sqrt((2j)! (m+p)!) / (m! sqrt((2j-m-p)!)) zeta^m on
    (n+, n-) = (m+p, 2j-m-p).  Without the common factor (2j)! p! / n!,
    n = 2j-p, the squared weights are C(m+p, m) C(n, m) |zeta|^2m, whose sum
    2F1(1+p, -n; 1; -|zeta|^2) is taken in its Pfaff form (DLMF 15.8.1)
    (1+|zeta|^2)^n 2F1(-n, -p; 1; |zeta|^2/(1+|zeta|^2)), a terminating
    series of positive terms.
    """
    two_j = _check_spin(j)
    _label("zeta", zeta)
    if p < 0:
        raise ValueError("p must be nonnegative")
    if p > two_j:
        raise PTooLarge(f"p = {p} exceeds 2j = {two_j}")
    n_cut = _capped(two_j if cutoff is None else cutoff)
    if n_cut < two_j:
        raise CutoffTooSmall(f"cutoff {n_cut} < 2j = {two_j}")
    n, x = two_j - p, abs(zeta) ** 2
    # the series overflows past 2j ~ 1000 (p ~ j, |zeta| ~ 5); the deficit
    # gate then refuses the state
    series = np.real(hypergeometric([-n, -p], [1.0], x / (1.0 + x)))
    m = np.arange(n + 1)
    return _line_state(
        "su2_pa", {"j": j, "zeta": complex(zeta), "p": p}, n_cut, m, m + p, n - m, zeta,
        0.5 * (_log_binomial(m + p, m) + _log_binomial(n, m)),
        n * math.log1p(x) + np.log(series),
    )


# ---------------------------------------------------------------------------
# su(1,1) families
# ---------------------------------------------------------------------------

def _lattice_ell(k_mode) -> tuple:
    """Resolve a mode tag into (k, ell) with ell = 2k - 1 on the lattice."""
    tag, value = k_mode
    if tag == "two_mode":
        k = _label("k", float(value))
        ell = 2.0 * k - 1.0
        if k <= 0 or abs(ell - round(ell)) > 1e-12 or round(ell) < 0:
            raise UnsupportedFamily(
                f"two-mode realization needs 2k-1 a nonnegative integer, got k={k}"
            )
        return k, int(round(ell))
    if tag == "single_mode":
        ell = int(_label("ell", value))
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

    c_m = N z^m / sqrt(m! Gamma(m+2k)), N^-2 = I_{2k-1}(2|z|) / |z|^{2k-1}, the
    PA-BG normalization sum at n = 0.
    """
    k, ell = _lattice_ell(k_mode)
    two_k = 2.0 * k
    m_needed = _bg_cutoff(abs(_label("z", z)), two_k)
    n_cut = _capped(max((cutoff or 0), m_needed + ell))
    m = np.arange(n_cut - ell + 1)
    return _line_state(
        "su11_bg", {"k": k, "ell": ell, "z": complex(z)}, n_cut, m, m + ell, m, z,
        -0.5 * _pa_bg_log_weight(k, 0, m), -2.0 * _pa_bg_log_norm(k, 0, abs(z)),
    )


def _perelomov_log_sum(k: float, x):
    """ln sum_m Gamma(2k+m) / (m! Gamma(2k)) x^m = -2k ln(1 - x): the
    Perelomov normalization sum at x = |eta|^2, and the overlap sum at
    x = conj(eta1) eta2."""
    return -2.0 * k * np.log1p(-x)


def su11_perelomov_state(k_mode, eta: complex, cutoff: Optional[int] = None) -> StateVector:
    """Displacement-operator state on a fixed diagonal.

    c_m = (1-|eta|^2)^k sqrt(Gamma(2k+m)/(m! Gamma(2k))) eta^m; the analytic
    prefactor is exact, so norm_deficit is the truncation tail.
    """
    k, ell = _lattice_ell(k_mode)
    if abs(_label("eta", eta)) >= 1.0:
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
    n_cut = _capped(max((cutoff or 0), m_needed + ell))
    m = np.arange(n_cut - ell + 1)
    return _line_state(
        "su11_perelomov", {"k": k, "ell": ell, "eta": complex(eta)}, n_cut, m, m + ell, m, eta,
        0.5 * (gammaln(two_k + m) - gammaln(m + 1) - gammaln(two_k)),
        _perelomov_log_sum(k, abs(eta) ** 2),
    )


def _pa_log_weight(k: float, l: int, m: np.ndarray) -> np.ndarray:
    """ln F_l(k, m), F_l(k, m) = (m!)^2 Gamma(2k) / (Gamma(m+l+1) Gamma(m+2k+l)).

    Kept in logs: F_l(k, 0) = Gamma(2k) / (l! Gamma(2k+l)) leaves the
    double range near l = 100."""
    return (
        2.0 * gammaln(m + 1)
        + gammaln(2.0 * k)
        - gammaln(m + l + 1)
        - gammaln(m + 2.0 * k + l)
    )


def su11_pa_perelomov_state(
    k: float, eta: complex, l: int, cutoff: Optional[int] = None
) -> StateVector:
    """(K+)^l image of the Perelomov state, truncated-series normalization.

    c_m proportional to eta^m / sqrt(F_l(k, m)).
    """
    if abs(_label("eta", eta)) >= 1.0:
        raise EtaOutOfDisk(f"|eta| = {abs(eta)} must be < 1")
    if l < 0:
        raise ValueError("added index l must be nonnegative")
    _, ell = _lattice_ell(("two_mode", k))
    shift = l + ell
    # term ratio -> |eta|^2 for large m; stop well past the series peak
    m_needed = 12
    if eta != 0:
        m_needed = _first_index(
            lambda m: 2 * m * math.log(abs(eta)) - _pa_log_weight(k, l, m),
            12,
            lambda term, peak, m: term < peak + math.log1p(-abs(eta) ** 2) - 34.0,
            f"|eta| = {abs(eta)}",
        )
    n_cut = _capped(max((cutoff or 0), m_needed + shift))
    m = np.arange(n_cut - shift + 1)
    return _line_state(
        "su11_pa_perelomov", {"k": k, "eta": complex(eta), "l": l}, n_cut, m, m + shift, m + l,
        eta, -0.5 * _pa_log_weight(k, l, m),
    )


def _pa_bg_log_weight(k: float, n_add: int, m: np.ndarray) -> np.ndarray:
    """log rho_n(k, m), rho_n = [Gamma(m+1) Gamma(m+2k)]^2 / (Gamma(m+n+1) Gamma(m+n+2k))."""
    return (
        2.0 * (gammaln(m + 1) + gammaln(m + 2.0 * k))
        - gammaln(m + n_add + 1)
        - gammaln(m + n_add + 2.0 * k)
    )


def su11_pa_bg_state(
    k: float, z: complex, n_add: int, cutoff: Optional[int] = None
) -> StateVector:
    """(K+)^n image of the Barut-Girardello state.

    c_m proportional to z^m / sqrt(rho_n(k, m)), truncated-series
    normalization; n_add = 0 recovers the BG amplitudes exactly.
    """
    if n_add < 0:
        raise ValueError("added index must be nonnegative")
    _label("z", z)
    _, ell = _lattice_ell(("two_mode", k))
    shift = n_add + ell
    m_needed = 8 if z == 0 else _bg_cutoff(abs(z), 2.0 * k) + n_add + 4
    n_cut = _capped(max((cutoff or 0), m_needed + shift))
    m = np.arange(n_cut - shift + 1)
    return _line_state(
        "su11_pa_bg", {"k": k, "z": complex(z), "n_add": n_add}, n_cut, m, m + shift, m + n_add,
        z, -0.5 * _pa_bg_log_weight(k, n_add, m),
    )


# ---------------------------------------------------------------------------
# closed-form overlaps
# ---------------------------------------------------------------------------

def canonical_overlap_modulus(
    z_plus1: complex, z_minus1: complex, z_plus2: complex, z_minus2: complex
) -> float:
    """|<z1|z2>| = exp(-|z+1 - z+2|^2/2) exp(-|z-1 - z-2|^2/2)."""
    return math.exp(
        -0.5 * abs(_label("z_plus1", z_plus1) - _label("z_plus2", z_plus2)) ** 2
        - 0.5 * abs(_label("z_minus1", z_minus1) - _label("z_minus2", z_minus2)) ** 2
    )


def su2_overlap(j: float, zeta1: complex, zeta2: complex) -> complex:
    """<zeta1|zeta2> = (1+|z1|^2)^-j (1+|z2|^2)^-j (1 + conj(z1) z2)^2j.

    In logs, the normalization sums' 2j ln(1+x) terms would cancel to a
    loss of about 2j ulp; by Lagrange's identity the modulus is (1 - d)^j,
    d = |z1 - z2|^2 / ((1+|z1|^2)(1+|z2|^2)), and the phase 2j arg(1 + conj(z1) z2).
    """
    two_j = _check_spin(j)
    d = abs(_label("zeta1", zeta1) - _label("zeta2", zeta2)) ** 2
    d /= (1.0 + abs(zeta1) ** 2) * (1.0 + abs(zeta2) ** 2)
    if two_j == 0 or d >= 1.0:  # d = 1: orthogonal labels
        return complex(two_j == 0)
    w = 1.0 + np.conj(zeta1) * zeta2
    # math.atan2: cmath.phase raises OverflowError on a subnormal angle
    return cmath.exp(complex(j * math.log1p(-d), two_j * math.atan2(w.imag, w.real)))


def bg_overlap(ell: int, z1: float, z2: float) -> float:
    """Real-parameter BG overlap I_l(2 sqrt(z1 z2)) / sqrt(I_l(2z1) I_l(2z2)),
    from the normalization sums at z1, z2 and sqrt(z1 z2)."""
    if _label("z1", z1) < 0 or _label("z2", z2) < 0:
        raise DomainError("closed-form BG overlap expects z >= 0")
    k = 0.5 * (abs(ell) + 1)
    return math.exp(
        _pa_bg_log_norm(k, 0, z1) + _pa_bg_log_norm(k, 0, z2)
        - 2.0 * _pa_bg_log_norm(k, 0, math.sqrt(z1 * z2))
    )


def perelomov_overlap(ell: int, eta1: complex, eta2: complex) -> complex:
    """<eta1|eta2> = [(1-|eta1|^2)(1-|eta2|^2)]^{(|l|+1)/2} (1-conj(eta1) eta2)^{-|l|-1}."""
    if abs(_label("eta1", eta1)) >= 1 or abs(_label("eta2", eta2)) >= 1:
        raise EtaOutOfDisk("both parameters must lie inside the unit disk")
    k = 0.5 * (abs(ell) + 1)
    return complex(np.exp(
        _perelomov_log_sum(k, complex(np.conj(eta1) * eta2))
        - 0.5 * (_perelomov_log_sum(k, abs(eta1) ** 2) + _perelomov_log_sum(k, abs(eta2) ** 2))
    ))


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
    _label("z1", z1)
    _label("z2", z2)
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

def _log_0f1(ell: int, x: np.ndarray) -> tuple:
    """(sign, ln |S|) of S = 0F1(; ell+1; -x) = ell! x^(-ell/2) J_ell(2 sqrt(x)), x >= 0.

    From scipy's J where that is a normal double; else (x small against
    ell^2) from the series, whose alternating terms there cancel by at most
    exp(2x/(ell+1)), below 1e4 up to ell ~ 450 (DivergentSeries past it).
    """
    j = np.array(bessel("J", float(ell), 2.0 * np.sqrt(x)))
    tiny = np.abs(j) < 1e-290
    xs = x[tiny]
    term = series = mass = np.ones_like(xs)
    k = 0
    while np.any(np.abs(term) > 1e-17 * mass):
        k += 1
        term = -term * xs / (k * (k + ell))
        series, mass = series + term, mass + np.abs(term)
    if np.any(mass > 1e4 * np.abs(series)):
        raise DivergentSeries(f"0F1 series of J_{ell} cancels beyond 1e4 at x <= {np.max(xs)}")
    j[tiny] = series
    log_s = np.log(np.abs(j)) + np.where(tiny, 0.0, gammaln(ell + 1) - xlogy(0.5 * ell, x))
    return np.sign(j), log_s


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
    (Laguerre generating-function form, |eta| < 1).  Every constant is
    taken in logs, with the lattice states' normalizers.
    """
    from .spectrum import _frozen

    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("u must be nonnegative")
    a_ell = abs(int(ell))
    k = 0.5 * (a_ell + 1)
    rho, rho_dot, M = _frozen(profile, aux, t)
    kap = profile.kappa
    beta = 1.0 - 1j * M * rho * rho_dot / kap
    pref = math.sqrt(kap / (math.pi * rho * rho)) * np.exp(1j * ell * np.asarray(theta))
    # ln of u^(l/2) exp(-beta u / 2) / sqrt(l!), the eta = 0 (and z = 0) profile
    log_radial = xlogy(0.5 * a_ell, u) - 0.5 * beta * u - 0.5 * gammaln(a_ell + 1)

    if family == "bg":
        z = param
        if abs(complex(z).imag) > 0 or complex(z).real < 0:
            raise DomainError("bg closed form expects real z >= 0")
        z = float(np.real(z))
        # exp(z) J_l(2 sqrt(uz)) / sqrt(I_l(2z)), I_l(2z) = z^l exp(-2 log_norm)
        sign, log_s = _log_0f1(a_ell, u * z)
        log_scale = z + _pa_bg_log_norm(k, 0, z) - 0.5 * gammaln(a_ell + 1)
        return pref * sign * np.exp(log_radial + log_scale + log_s)
    if family == "perelomov":
        eta = complex(param)
        if abs(eta) >= 1.0:
            raise EtaOutOfDisk(f"|eta| = {abs(eta)} must be < 1")
        # (1 - |eta|^2)^k (1 - eta)^(-2k) exp(u eta / (eta - 1)) times the radial profile
        log_eta = _perelomov_log_sum(k, eta) - 0.5 * _perelomov_log_sum(k, abs(eta) ** 2)
        return pref * np.exp(log_radial + log_eta + u * eta / (eta - 1.0))
    raise UnsupportedFamily(f"unknown single-mode family {family!r}")


# ---------------------------------------------------------------------------
# weight functions / moment problems
# ---------------------------------------------------------------------------

def _su2_pa_weight(two_j: int, p: int):
    """Log of the exact su2_pa weight G^{2,1}_{2,2}(x | p-2j-1, p; 0, 0) / Gamma(2j+1) on
    (0, inf); by the Mellin convolution theorem (DLMF 1.14(iv)) it is

    W(x) = Gamma(N)^2 / (Gamma(N+p) Gamma(2j+1)) (1+x)^-N 2F1(N, p; N+p; 1-w),

    with N = 2j+2-p and w = x/(1+x).
    """
    big_n = two_j + 2.0 - p
    log_pref = 2.0 * gammaln(big_n) - gammaln(big_n + p) - gammaln(two_j + 1.0)
    f = hyp2f1_logarithmic(big_n, float(p))

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if not np.all(x > 0.0):
            raise DomainError(f"su2_pa weight needs x > 0, got {np.min(x)}")
        return log_pref - big_n * np.log1p(x) + np.log(f(x / (1.0 + x)))

    return evaluator


def _pa_perelomov_density(k: float, l: int):
    """Log of the exact PA-Perelomov weight on [0, 1], the Hausdorff density of F_l(k, m).

    W(x) = Gamma(2k) (1-x)^(c-1) / Gamma(c) 2F1(a, l; c; 1-x), a = 2k+l-1,
    c = a+l (Klauder, Penson & Sixdeniers, PRA 64, 013817).  At k = 1/2,
    l = 0 the weight is a unit point mass at x = 1.
    """
    if l < 0:
        raise ValueError("added index l must be nonnegative")
    if l == 0 and k == 0.5:
        raise UnsupportedFamily(
            "perelomov_pa at k = 1/2, l = 0 is a point mass at x = 1, not a density"
        )
    a = 2.0 * k + l - 1.0
    c = a + l
    log_pref = gammaln(2.0 * k) - gammaln(c)
    f = hyp2f1_logarithmic(a, float(l))

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        vals = np.full_like(x, -np.inf)
        inside = (x > 0.0) & (x <= 1.0)
        vals[inside] = log_pref + np.log(f(x[inside])) + xlog1py(c - 1.0, -x[inside])
        return vals if vals.ndim else float(vals)

    return evaluator


def weight_spec(family: str, params: Mapping) -> WeightSpec:
    """Weight function and moment targets for a family's identity resolution.

    Families: "canonical" (f = 1), "su2_pa" (j, p), "bg_pa" (k, n),
    "perelomov_pa" (k, l).  su2_pa is the exact 2F1 closed form on (0, inf)
    and perelomov_pa the exact Hausdorff density on [0, 1], both through
    ``specfun.hyp2f1_logarithmic``; bg_pa is the Meijer G^{4,0}_{2,4}
    function on (0, inf).  Weights and targets are logs (see WeightSpec).
    Deformations with nonconstant f have no closed density here.
    """
    if family == "canonical":
        return WeightSpec(
            family=family,
            evaluator=lambda x: -np.asarray(x, dtype=float),
            moment_target=lambda m: gammaln(m + 1),
        )
    if family == "su2_pa":
        j, p = params["j"], params["p"]
        two_j = _check_spin(j)
        if p > two_j:
            raise UnsupportedFamily(
                f"p = {p} > 2j = {two_j}: no admissible moments remain"
            )
        return WeightSpec(
            family=family,
            evaluator=_su2_pa_weight(two_j, p),
            moment_target=lambda m: (
                2.0 * gammaln(m + 1) + gammaln(two_j - m - p + 1)
                - gammaln(two_j + 1) - gammaln(m + p + 1)
            ),
            m_max=two_j - p,
        )
    if family == "bg_pa":
        k, n_add = float(params["k"]), int(params["n"])
        _lattice_ell(("two_mode", k))
        ell = 2.0 * k - 1.0
        a, b = (0.0, ell), (-float(n_add), -float(n_add), ell - n_add, ell - n_add)

        def evaluator(x):  # ln 0 = -inf, a zero sample; ln of a negative G is nan
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(meijer_g(a, b, x))

        return WeightSpec(
            family=family,
            evaluator=evaluator,
            moment_target=lambda m: _pa_bg_log_weight(k, n_add, m),
            power_offset=n_add,
        )
    if family == "perelomov_pa":
        k, l = float(params["k"]), int(params["l"])
        _lattice_ell(("two_mode", k))
        return WeightSpec(
            family=family,
            evaluator=_pa_perelomov_density(k, l),
            moment_target=lambda m: _pa_log_weight(k, l, m),
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
