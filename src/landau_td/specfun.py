"""Special functions backing the eigensystem and the coherent-state families.

The orthonormal Laguerre and Hermite functions come from one three-term
recurrence with a log scale per sample (Gil, Segura & Temme, Numerical Methods
for Special Functions, ch. 4), never from separately rounded factorials,
powers and Gaussians.  Bessel functions delegate to scipy.special behind a
domain-checked wrapper.  The generalized hypergeometric pFq is a partial-sum
evaluation with a term-ratio stopping rule.

``scipy.special`` is imported inside the functions that call it (Bessel,
the logarithmic 2F1 and Meijer G), so it loads on the first such call; the
Laguerre and Hermite functions and pFq are numpy only, and importing this
module loads no scipy.

``hyp2f1_logarithmic(a, b)`` evaluates 2F1(a, b; a+b; 1-w) on w in (0, 1],
the logarithmic case c = a+b that the su2_pa and perelomov_pa weights need:
a nonnegative power series in 1-w away from w = 0 and the DLMF 15.8.10 log
series in w near it, both with coefficients fixed once per (a, b).

Meijer G is evaluated by a numerical Mellin-Barnes contour integral for the
one instance the bg_pa weight needs, ``G^{4,0}_{2,4}(x | a; b)``, which
decays like exp(-2 sqrt(x)).  With the Mellin kernel

    M(s) = prod_{j<=4} Gamma(b_j+s) / prod_{j<=2} Gamma(a_j+s)

G(x) = (1/2 pi i) * integral of M(s) x^{-s} ds along Re s = c, right of
every pole; the integrand decays like exp(-pi |Im s|).  The abscissa is
moved right like sqrt(x) so the integrand peak tracks the result's scale
(steepest-descent scaling, no cancellation blowup).  ``meijer_g(a, b, x)``
takes the parameter tuples and a scalar or an array of x, and computes the
Gamma kernel once per binary octave of x.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from .errors import (
    ContourFailure,
    DivergentSeries,
    DomainError,
    PoleError,
)

__all__ = [
    "laguerre",
    "hermite",
    "bessel",
    "hypergeometric",
    "hyp2f1_logarithmic",
    "meijer_g",
]


_RESCALE = 2.0**500  # also caps u and |x|: past it every f_n is 0 in doubles


def _scaled_recurrence(n: int, v: np.ndarray, log_scale: np.ndarray, coefficients: Callable):
    """exp(log_scale) f_n of f_{k+1} = (a_k + b_k v) f_k - c_k f_{k-1}, f_0 = 1, f_-1 = 0,
    (a_k, b_k, c_k) = coefficients(k) over k < n.  The log scale per sample takes
    2^500 out of f where |f| passes it and is exponentiated once at the end, so
    a sample underflows only where its true value does."""
    if n < 0 or n != int(n):
        raise ValueError(f"order n must be a natural number, got {n!r}")
    prev, cur = np.zeros_like(v), np.ones_like(v)
    for a_k, b_k, c_k in zip(*coefficients(np.arange(int(n), dtype=float))):
        prev, cur = cur, (a_k + b_k * v) * cur - c_k * prev
        big = np.abs(cur) > _RESCALE
        if np.any(big):
            prev, cur = np.where(big, prev / _RESCALE, prev), np.where(big, cur / _RESCALE, cur)
            log_scale = log_scale + math.log(_RESCALE) * big
    with np.errstate(divide="ignore"):  # ln 0 = -inf: an exact zero stays 0
        out = np.sign(cur) * np.exp(np.log(np.abs(cur)) + log_scale)
    return out if out.ndim else float(out)


def laguerre(n: int, alpha: float, u):
    """Orthonormal Laguerre function sqrt(n!/Gamma(n+alpha+1)) u^(alpha/2) e^(-u/2)
    L_n^alpha(u), u >= 0, alpha > -1, by the orthonormal DLMF Table 18.9.1 recurrence
    sqrt((k+1)(k+1+alpha)) f_{k+1} = (2k+alpha+1-u) f_k - sqrt(k(k+alpha)) f_{k-1}."""
    u = np.minimum(np.asarray(u, dtype=float), _RESCALE)
    if not np.all(u >= 0.0):
        raise DomainError("laguerre needs u >= 0")
    with np.errstate(divide="ignore"):  # u^alpha = 0 at u = 0 for alpha > 0
        log_f0 = (0.5 * alpha * np.log(u) if alpha else 0.0) - 0.5 * (u + math.lgamma(alpha + 1))

    def coefficients(k):
        d = np.sqrt((k + 1.0) * (k + 1.0 + alpha))
        return (2.0 * k + alpha + 1.0) / d, -1.0 / d, np.sqrt(k * (k + alpha)) / d

    return _scaled_recurrence(n, u, log_f0, coefficients)


def hermite(n: int, x):
    """Orthonormal Hermite function H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi)),
    by f_{k+1} = sqrt(2/(k+1)) x f_k - sqrt(k/(k+1)) f_{k-1}."""
    x = np.clip(np.asarray(x, dtype=float), -_RESCALE, _RESCALE)
    return _scaled_recurrence(
        n, x, -0.5 * x * x - 0.25 * math.log(math.pi),
        lambda k: (0.0 * k, np.sqrt(2.0 / (k + 1.0)), np.sqrt(k / (k + 1.0))),
    )


_BESSEL_KINDS = {"J": "jv", "Y": "yv", "I": "iv", "K": "kv"}


def bessel(kind: str, nu: float, x):
    """Bessel function of the given kind (J, Y, I, K) at real order and argument.

    Y and K require x > 0; J and I accept x >= 0.  Scalar or ndarray x.
    """
    from scipy import special as sp

    if kind not in _BESSEL_KINDS:
        raise DomainError(f"bessel kind must be one of J, Y, I, K; got {kind!r}")
    arr = np.asarray(x, dtype=float)
    if kind in ("Y", "K"):
        if np.any(arr <= 0.0):
            raise DomainError(f"bessel {kind} needs x > 0")
    elif np.any(arr < 0.0):
        raise DomainError(f"bessel {kind} needs x >= 0")
    val = getattr(sp, _BESSEL_KINDS[kind])(nu, arr)
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


_HYP2F1_MAX_TERMS = 1 << 16


def _series_length(log_bound: np.ndarray, allowed, log_peak: float) -> int:
    """First index past the peak of log_bound (and allowed) where the tail
    bound is 1e-17 below log_peak: the number of terms to keep."""
    n = np.arange(log_bound.size)
    ok = allowed & (n > np.argmax(log_bound)) & (log_bound < log_peak + math.log(1e-17))
    if not np.any(ok):
        raise DivergentSeries(f"2F1 series not converged in {n.size} terms")
    return int(np.argmax(ok))


def hyp2f1_logarithmic(a: float, b: float) -> Callable:
    """Evaluator of 2F1(a, b; a+b; 1-w) on w in (0, 1], for a > 0, b >= 0.

    c = a+b is the logarithmic case, ~ -ln w as w -> 0, where scipy's hyp2f1
    loses the digits of 1-w and is not uniform in (a, b).  Below w_s =
    min(1/16, 4/g), g = max(a, 1) max(b, 1), the DLMF 15.8.10 log series

        sum_n (a)_n (b)_n / (B(a, b) n!^2) [2 psi(n+1) - psi(a+n) - psi(b+n) - ln w] w^n

    is summed, and from w_s up the power series sum_n (a)_n (b)_n /
    ((a+b)_n n!) (1-w)^n of nonnegative terms.  The log-series terms grow
    by a factor of up to g w per term before they cancel, which costs about
    1e-13 of the result at g w = 4 and 1e-10 at g w = 20.  Both series are cut once per (a, b) where their tail bound
    at w_s, the worst point of either branch, is 1e-17 of their largest
    term; DivergentSeries when that takes over 65536 terms.  b = 0 gives 1.
    """
    from scipy import special as sp

    if not (a > 0.0 and b >= 0.0):
        raise DomainError(f"hyp2f1_logarithmic needs a > 0, b >= 0; got a = {a}, b = {b}")
    if b == 0.0:
        return lambda w: np.ones_like(np.asarray(w, dtype=float)) if np.ndim(w) else 1.0
    w_s = min(1.0 / 16.0, 4.0 / (max(a, 1.0) * max(b, 1.0)))
    # the power-series coefficients grow until n = ab - a - b, then the
    # terms fall by (1 - w_s)^n: 64 / w_s more bring them below 1e-17 w_s
    size = math.ceil(a * b + 64.0 / w_s)
    if size > _HYP2F1_MAX_TERMS:
        raise DivergentSeries(f"2F1({a}, {b}; {a + b}; 1-w) needs about {size} terms")
    n = np.arange(size, dtype=float)
    # coefficients are running products of their term ratios, each within a
    # few ulps (Gamma-function logs near a+n lose up to 1e-12 of them)
    step_pos = (a + n) * (b + n) / ((a + b + n) * (n + 1.0))
    step_log = (a + n) * (b + n) / (n + 1.0) ** 2 * w_s
    terms_pos = np.concatenate(([0.0], np.cumsum(np.log(step_pos[:-1])))) + n * math.log1p(-w_s)
    # past its peak the tail of the power series is at most a term over w
    n_pos = _series_length(
        terms_pos - math.log(w_s), n >= a * b - a - b, float(np.max(terms_pos))
    )
    # log series in u = w/w_s: u^n (|psi part| - ln w) grows with w below
    # w_s, so the term bound at w_s holds for every w below it
    psi_part = 2.0 * sp.psi(n + 1.0) - sp.psi(a + n) - sp.psi(b + n)
    terms_log = np.concatenate(([0.0], np.cumsum(np.log(step_log[:-1])))) + np.log(
        np.abs(psi_part) - math.log(w_s)
    )
    n_log = _series_length(terms_log, True, float(np.max(terms_log)))
    coef_pos = np.cumprod(np.concatenate(([1.0], step_pos[: n_pos - 1])))
    coef_log = np.cumprod(np.concatenate(([1.0 / sp.beta(a, b)], step_log[: n_log - 1])))
    log_series = list(zip(coef_log, psi_part[:n_log]))[::-1]

    def evaluator(w):
        w = np.asarray(w, dtype=float)
        if not np.all((w > 0.0) & (w <= 1.0)):
            raise DomainError("hyp2f1_logarithmic needs 0 < w <= 1")
        out = np.empty_like(w)
        near = w >= w_s
        out[near] = polyval(1.0 - w[near], coef_pos)
        # Horner in u = w/w_s on whole log-series terms: the psi and ln w
        # sums apart would each be up to 1e4 times the result
        wf = w[~near]
        u, ln_w = wf / w_s, np.log(wf)
        acc = np.zeros_like(wf)
        for coef, psi_n in log_series:
            acc = acc * u + coef * (psi_n - ln_w)
        out[~near] = acc
        return out if out.ndim else float(out)

    return evaluator


# ---------------------------------------------------------------------------
# Meijer G
# ---------------------------------------------------------------------------

def _mellin_log_kernel(a: tuple, b: tuple, s: np.ndarray) -> np.ndarray:
    """log M(s) on an array of complex points s, one loggamma per distinct factor."""
    from scipy import special as sp

    # shift stands for Gamma(shift + s), counted with its power
    powers = Counter(b)
    powers.subtract(a)
    out = np.zeros_like(s, dtype=complex)
    for shift, power in powers.items():
        if power:
            out += power * sp.loggamma(shift + s)
    return out


_GL_NODES, _GL_WEIGHTS = leggauss(16)
_T_MAX = 30.0


def _contour_integral(a: tuple, b: tuple, x, c: float):
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
    log_mag = np.real(_mellin_log_kernel(a, b, c + 1j * probe))
    within = np.flatnonzero(log_mag > np.max(log_mag) - 40.0)
    t_max = probe[within[-1] if within.size else -1] + 1.0
    n_panels = math.ceil(t_max / width)
    panel_starts = width * np.arange(n_panels)
    node_offsets = 0.5 * width * (1.0 + _GL_NODES)
    s = c + 1j * (panel_starts[:, None] + node_offsets).ravel()
    log_vals = _mellin_log_kernel(a, b, s) - s * ln_ref
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


def meijer_g(a: tuple, b: tuple, x):
    """G^{4,0}_{2,4}(x | a; b) at x > 0 (a scalar or an array), for real
    parameters a = (a1, a2) and b = (b1, b2, b3, b4).

    Array points are grouped by binary octave [2^(e-1), 2^e); the points of
    one octave share one contour abscissa and one T-grid, so the Gamma
    kernel is evaluated once per octave, not once per point.
    """
    xa = np.asarray(x, dtype=float)
    if not np.all(xa > 0):
        raise DomainError(f"meijer_g needs x > 0, got {np.min(xa)}")
    flat = xa.ravel()
    out = np.empty_like(flat)
    c_left = max(-v for v in b)
    expo = np.frexp(flat)[1]
    for e in np.unique(expo):
        octave = np.flatnonzero(expo == e)
        # at most 64 points share a contour, which bounds the phase matrices
        for idx in np.array_split(octave, -(-octave.size // 64)):
            ln_mid = 0.5 * (math.log(np.min(flat[idx])) + math.log(np.max(flat[idx])))
            # the integrand carries x^{-c}, so a unit offset from the poles
            # costs x^{-1} in cancellation for x < 1: there the line moves to
            # 2/|ln x| of them (caps the loss at e^2 for poles of order up to
            # four).  Past that it moves right like sqrt(x), so the line
            # integral tracks the exp(-2 sqrt(x)) decay without cancellation.
            c = c_left + (min(1.0, -2.0 / ln_mid) if ln_mid < 0.0 else 1.0)
            c += math.exp(0.5 * ln_mid)
            out[idx] = _contour_integral(a, b, flat[idx], c)
    return out.reshape(xa.shape) if xa.ndim else float(out[0])
