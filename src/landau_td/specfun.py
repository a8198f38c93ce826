"""Special functions backing the eigensystem and the coherent-state families.

Polynomials (generalized Laguerre, Hermite) are evaluated by their stable
three-term recurrences, never by factorial-ratio closed forms (overflow for
n of a few tens).  Bessel functions delegate to scipy.special behind a
domain-checked wrapper.  The generalized hypergeometric pFq is a partial-sum
evaluation with a term-ratio stopping rule.  Meijer G is evaluated by a
numerical Mellin-Barnes contour integral, restricted to the two instances
the weight-function work needs:

* ``G^{2,1}_{2,2}(x | (a1, a2); (0, 0))`` with a power-law tail; evaluated by
  the vertical-line integral for x < 4 and by the convergent right-pole
  residue series from x = 4 up.
* ``G^{4,0}_{2,4}(x | a; b)`` which decays like exp(-2 sqrt(x)); the contour
  abscissa is moved right like sqrt(x) so the integrand peak tracks the
  result's scale (steepest-descent scaling, no cancellation blowup).

Both use the Mellin kernel

    M(s) = prod_{j<=m} Gamma(b_j+s) prod_{j<=n} Gamma(1-a_j-s)
           / [prod_{j>m} Gamma(1-b_j-s) prod_{j>n} Gamma(a_j+s)]

with G(x) = (1/2 pi i) * integral of M(s) x^{-s} ds along Re s = c, the line
separating the increasing (left) from the decreasing (right) Gamma pole
families.  The integrand decays like exp(-pi |Im s|) for both instances.
``meijer_g`` takes a scalar or an array of x and computes the Gamma kernel
once per binary octave of x.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as sp

from .errors import (
    ContourFailure,
    DivergentSeries,
    DomainError,
    PoleError,
    UnsupportedInstance,
)

__all__ = [
    "laguerre",
    "laguerre_all",
    "hermite",
    "gamma_fn",
    "bessel",
    "hypergeometric",
    "MeijerGSpec",
    "meijer_g",
]


def laguerre(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by three-term recurrence.

    Accepts scalar or ndarray x; broadcasts.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"order n must be a natural number, got {n!r}")
    n = int(n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def laguerre_all(n_max: int, alpha: float, x) -> np.ndarray:
    """All orders L_0..L_{n_max} at once; shape (n_max+1,) + shape(x).

    Shares the recurrence sweep across orders; used by Fock-sum
    wavefunction assemblies.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + alpha - x
    for k in range(1, n_max):
        out[k + 1] = ((2 * k + alpha + 1 - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1)
    return out


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) by recurrence."""
    if n < 0 or n != int(n):
        raise ValueError(f"order n must be a natural number, got {n!r}")
    n = int(n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur if cur.ndim else float(cur)


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from the nonpositive integers."""
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"Gamma pole at x = {x}")
    return float(sp.gamma(x))


_BESSEL_KINDS = {
    "J": sp.jv,
    "Y": sp.yv,
    "I": sp.iv,
    "K": sp.kv,
}


def bessel(kind: str, nu: float, x):
    """Bessel function of the given kind (J, Y, I, K) at real order and argument.

    Y and K require x > 0; J and I accept x >= 0.  Scalar or ndarray x.
    """
    if kind not in _BESSEL_KINDS:
        raise DomainError(f"bessel kind must be one of J, Y, I, K; got {kind!r}")
    arr = np.asarray(x, dtype=float)
    if kind in ("Y", "K"):
        if np.any(arr <= 0.0):
            raise DomainError(f"bessel {kind} needs x > 0")
    elif np.any(arr < 0.0):
        raise DomainError(f"bessel {kind} needs x >= 0")
    val = _BESSEL_KINDS[kind](nu, arr)
    return val if np.ndim(x) else float(val)


_PFQ_MAX_TERMS = 200_000
_PFQ_TERM_RATIO = 1e-14


def hypergeometric(a_list: Sequence[float], b_list: Sequence[float], z) -> complex:
    """Generalized hypergeometric pFq(a; b; z) by partial sums.

    Terminates exactly when an upper parameter is a nonpositive integer.
    Otherwise the series is summed until two consecutive terms fall below
    1e-14 of the running sum.  Convergence policy: p <= q converges for all
    z; p = q+1 needs |z| < 1; p > q+1 diverges (DivergentSeries unless
    terminating).  Returns float for real inputs, complex otherwise.
    """
    a = [float(v) for v in a_list]
    b = [float(v) for v in b_list]
    z = complex(z)

    n_term = None
    for v in a:
        if v <= 0 and v == math.floor(v):
            k = int(round(-v))
            n_term = k if n_term is None else min(n_term, k)

    if n_term is None:
        p, q = len(a), len(b)
        if p > q + 1:
            raise DivergentSeries(
                f"{p}F{q} has zero radius of convergence and does not terminate"
            )
        if p == q + 1 and abs(z) >= 1.0:
            raise DivergentSeries(
                f"{p}F{q} series diverges at |z| = {abs(z):.6g} >= 1"
            )

    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    k = 0
    while True:
        total += term
        if n_term is not None and k == n_term:
            break
        num = 1.0
        for v in a:
            num *= v + k
        den = 1.0
        for v in b:
            factor = v + k
            if factor == 0.0:
                raise PoleError(
                    f"lower parameter {v} hits a nonpositive integer at term {k + 1}"
                )
            den *= factor
        term = term * num / den * z / (k + 1)
        k += 1
        if n_term is None:
            if abs(term) <= _PFQ_TERM_RATIO * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak >= 2:
                    total += term
                    break
            else:
                small_streak = 0
            if k > _PFQ_MAX_TERMS:
                raise DivergentSeries(
                    f"series did not meet the term-ratio criterion in {k} terms"
                )
    if z.imag == 0.0 and total.imag == 0.0:
        return total.real
    return total


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

_ACCEPTED_ORDERS = {(2, 1, 2, 2), (4, 0, 2, 4)}


@dataclass(frozen=True)
class MeijerGSpec:
    """Order tuple and parameter lists of a Meijer G instance.

    Only (m,n,p,q) = (2,1,2,2) and (4,0,2,4) are accepted; these are the two
    layouts the weight-function moment problems need.
    """

    m: int
    n: int
    p: int
    q: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if (self.m, self.n, self.p, self.q) not in _ACCEPTED_ORDERS:
            raise UnsupportedInstance(
                f"Meijer G order {(self.m, self.n, self.p, self.q)} not supported; "
                f"accepted: {sorted(_ACCEPTED_ORDERS)}"
            )
        if len(self.a) != self.p or len(self.b) != self.q:
            raise UnsupportedInstance(
                f"parameter lists must have lengths p={self.p}, q={self.q}"
            )
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))


def _mellin_log_kernel(spec: MeijerGSpec, s: np.ndarray) -> np.ndarray:
    """log M(s) on an array of complex points s, one loggamma per distinct factor."""
    # (shift, sign) stands for Gamma(shift + sign * s), counted with its power
    powers = Counter([(b, 1.0) for b in spec.b[: spec.m]])
    powers.update([(1.0 - a, -1.0) for a in spec.a[: spec.n]])
    powers.subtract([(1.0 - b, -1.0) for b in spec.b[spec.m :]])
    powers.subtract([(a, 1.0) for a in spec.a[spec.n :]])
    out = np.zeros_like(s, dtype=complex)
    for (shift, sign), power in powers.items():
        if power:
            out += power * sp.loggamma(shift + sign * s)
    return out


_GL_NODES, _GL_WEIGHTS = leggauss(16)
_T_MAX = 30.0
_RESIDUE_TERMS = 400


def _contour_integral(spec: MeijerGSpec, x, c: float):
    """(1/pi) Re int_0^Tmax M(c+iT) x^{-c-iT} dT on Gauss-Legendre panels.

    Valid for real parameters and x > 0 (conjugate symmetry folds the
    negative-T half onto the real part).  ``x`` may be an array of points
    sharing the abscissa c: the kernel is evaluated once, at the geometric
    midpoint x_ref, on a T-grid fine enough for the largest |ln x|, and
    carried to each point by the factor (x/x_ref)^{-c-iT}.
    """
    lnx = np.log(np.asarray(x, dtype=float))
    ln_ref = 0.5 * (float(np.max(lnx)) + float(np.min(lnx)))
    # Panel width resolves the x^{-iT} oscillation (wavelength 2 pi / |ln x|).
    width = min(0.5, 2.0 * math.pi / (3.0 * (0.5 + float(np.max(np.abs(lnx))))))
    # |M(c+iT)| falls like exp(-T^2/c) below T ~ c, then like exp(-pi T);
    # the line ends one unit past the last unit-step probe within e^-40 of
    # the largest, searched up to Tmax or 6 sqrt(c) for a far abscissa (at
    # most 200: past c ~ 1100 the (4,0,2,4) value exp(-2c) underflows).
    probe = np.arange(0.0, min(max(_T_MAX, 6.0 * math.sqrt(abs(c))), 200.0) + 1.0)
    log_mag = np.real(_mellin_log_kernel(spec, c + 1j * probe))
    within = np.flatnonzero(log_mag > np.max(log_mag) - 40.0)
    t_max = probe[within[-1] if within.size else -1] + 1.0
    n_panels = math.ceil(t_max / width)
    panel_starts = width * np.arange(n_panels)
    node_offsets = 0.5 * width * (1.0 + _GL_NODES)
    s = c + 1j * (panel_starts[:, None] + node_offsets).ravel()
    log_vals = _mellin_log_kernel(spec, s) - s * ln_ref
    # Guard against overflow in exp for extreme parameter choices.
    if np.any(np.real(log_vals) > 700.0):
        raise ContourFailure("Mellin-Barnes integrand overflows double precision")
    vals = (0.5 * width * _GL_WEIGHTS) * np.exp(log_vals).reshape(n_panels, -1)
    shift = lnx - ln_ref
    # (x/x_ref)^{-iT} splits into a per-panel and a per-node phase
    per_node = np.exp(-1j * np.multiply.outer(shift, node_offsets)) @ vals.T
    per_panel = np.exp(-1j * np.multiply.outer(shift, panel_starts))
    out = np.exp(-c * shift) * np.real(np.sum(per_panel * per_node, axis=-1)) / math.pi
    return out if out.ndim else float(out)


def _g2122_residue_series(spec: MeijerGSpec, x):
    """Right-pole residue series of G^{2,1}_{2,2}, convergent for x > 1.

    Closing the contour to the right picks up the simple poles of
    Gamma(1-a1-s) at s_k = 1-a1+k:

        G(x) = sum_k (-1)^k / k! * Gamma(b1+s_k) Gamma(b2+s_k) / Gamma(a2+s_k)
               * x^{-s_k}

    Summed for an array of x at once; each point stops at its first term
    (past the third) below 1e-17 of the running sum, and DivergentSeries is
    raised when one needs more than 400 terms (x too close to 1).
    """
    a1, a2 = spec.a
    b1, b2 = spec.b
    k = np.arange(_RESIDUE_TERMS, dtype=float)
    s_k = 1.0 - a1 + k
    log_coef = (
        sp.gammaln(b1 + s_k) + sp.gammaln(b2 + s_k) - sp.gammaln(a2 + s_k) - sp.gammaln(k + 1.0)
    )
    log_x = np.log(np.asarray(x, dtype=float))
    terms = (-1.0) ** k * np.exp(log_coef - np.multiply.outer(log_x, s_k))
    totals = np.cumsum(terms, axis=-1)
    done = (np.abs(terms) < 1e-17 * np.maximum(np.abs(totals), 1e-300)) & (k > 2)
    if not np.all(np.any(done, axis=-1)):
        worst = float(np.exp(np.min(log_x)))
        raise DivergentSeries(
            f"residue series needs over {_RESIDUE_TERMS} terms at x = {worst:.6g}"
        )
    out = np.take_along_axis(totals, np.argmax(done, axis=-1)[..., None], axis=-1)[..., 0]
    return out if out.ndim else float(out)


def _abscissa(ln_x: float, c_left: float, offset: float, c_right: Optional[float]) -> float:
    """Contour abscissa at ln x, offset right of the left pole family.

    The integrand carries x^{-c}, so a fixed offset costs x^{-offset} in
    cancellation for x < 1: there the line moves to 2/|ln x| of the left
    poles (caps the loss at e^2 for poles of order up to four), and for
    x > 1 to 1/ln x of the first right pole, if any.
    """
    if ln_x < 0.0:
        return c_left + min(offset, -2.0 / ln_x)
    if c_right is not None and ln_x > 0.0:
        return max(c_left + offset, c_right - 1.0 / ln_x)
    return c_left + offset


def meijer_g(spec: MeijerGSpec, x):
    """Evaluate the Meijer G instance at x > 0 (a scalar or an array).

    Array points are grouped by binary octave [2^(e-1), 2^e); the points of
    one octave share one contour abscissa and one T-grid, so the Gamma
    kernel is evaluated once per octave, not once per point.  Raises
    ContourFailure when no vertical line separates the two pole families
    (for (2,1,2,2): needs max(-b_j) < 1 - a1).
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0):
        raise DomainError(f"meijer_g needs x > 0, got {np.min(xa)}")
    flat = xa.ravel()
    out = np.empty_like(flat)
    c_left = max(-b for b in spec.b)
    if (spec.m, spec.n, spec.p, spec.q) == (2, 1, 2, 2):
        c_right = 1.0 - spec.a[0]
        if not c_left < c_right:
            raise ContourFailure(
                f"pole families overlap: left boundary {c_left} >= right {c_right}"
            )
        offset = 0.5 * min(2.0, c_right - c_left)
    else:
        c_right, offset = None, 1.0
    expo = np.frexp(flat)[1]
    for e in np.unique(expo):
        octave = np.flatnonzero(expo == e)
        # at most 64 points share a contour, which bounds the phase matrices
        for idx in np.array_split(octave, -(-octave.size // 64)):
            if c_right is not None and flat[idx[0]] >= 4.0:
                # the right-pole residue series converges fast from x = 4 up
                out[idx] = _g2122_residue_series(spec, flat[idx])
                continue
            ln_mid = 0.5 * (math.log(np.min(flat[idx])) + math.log(np.max(flat[idx])))
            c = _abscissa(ln_mid, c_left, offset, c_right)
            if c_right is None:
                # (4,0,2,4): no right poles; push the abscissa right like
                # sqrt(x) so the line integral tracks the exp(-2 sqrt(x))
                # decay without cancellation.
                c += math.exp(0.5 * ln_mid)
            out[idx] = _contour_integral(spec, flat[idx], c)
    return out.reshape(xa.shape) if xa.ndim else float(out[0])
