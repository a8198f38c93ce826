"""Classical motion and the nonlinear auxiliary (Ermakov-Pinney) equation.

The auxiliary equation

    rho'' + (M'/M) rho' + Omega^2 rho = kappa^2 / (M^2 rho^3)

parametrizes the quadratic invariant.  Besides the adaptive numeric route,
three closed-form families are provided:

``pinney_constant``
    Constant M = tau and omega.  With v1, v2 independent solutions of
    v'' + omega^2 v = 0 and W their Wronskian,
    rho = sqrt(v1^2 + nu^2 v2^2 / W^2), nu = kappa / tau.
``bessel_exponential``
    Omega(t) = tau * exp(alpha t), M = 1.  With x(t) = (tau/alpha) e^{alpha t},
    J_0(x) and Y_0(x) solve v'' + Omega^2 v = 0 with Wronskian-in-t 2 alpha/pi,
    so rho = sqrt(A1^2 J_0(x)^2 + (pi^2 kappa^2 / (4 alpha^2 A1^2)) Y_0(x)^2).
``yermakov_dissipative``
    M(t) = exp(-alpha t), Omega = (sqrt(5)/2) alpha.  rho = e^{+alpha t/2} y(t)
    reduces the equation to y'' + alpha^2 y = kappa^2 / y^3, solved by
    y^2 = kappa s^2/d1 + (s^2/d2)(d2 + d1 I)^2 with s = e1 sin(alpha t) +
    e2 cos(alpha t), I(t) = integral_0^t ds/s^2 and d2 = d1/kappa (the free
    constants must satisfy this for the displayed combination to solve the
    equation; see the Pinney-coefficient identity in the tests).  With
    A = hypot(e1, e2) and phi = atan2(e2, e1), s = A sin(alpha t + phi) and
    I(t) = (cot phi - cot(alpha t + phi)) / (alpha A^2).

The formulas are valid between consecutive roots of the oscillatory factor
(v's never vanishing jointly; s(t) != 0), guarded by SingularParameter.

The numeric routes (``solve_ep_numeric`` and the non-constant
``classical_trajectory``) integrate with the package's DOP853 stepper
(``solve_ivp``, from ``landau_td.dop853``) piece by piece between the knots
of a tabulated profile, where the interpolated coefficients are only C^1,
restarting from the end of the previous piece; the analytic kinds have no
knots and take one piece.  The dense-output rows of all pieces' steps are
stacked once into arrays and read by one vectorised evaluator (a sorted
search for the step, then the DOP853 Horner scheme), which gives the grid
samples, the envelope at any time and the integrand of theta.

Every solution also carries the phase theta(t) = integral kappa/(M rho^2) dt
from the start of its grid.  With u1, u2 solving (M u')' + M Omega^2 u = 0
and rho^2 = u1^2 + c^2 u2^2, theta is the continuous arg(u1 + i c u2)
(Pinney, Proc. AMS 1, 681 (1950)), so the closed forms give it exactly:
arg(v1 + i (nu/W) v2), arg(A1 J_0 + i sqrt(C) Y_0) and arctan(d2 + d1 I).
The numeric route integrates its dense output on Gauss panels.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dop853 import solve_ivp
from .errors import (
    BlowUp,
    GridTooShort,
    IntegralNonConvergent,
    NonPositiveMassOrFrequency,
    OutOfDomain,
    OutOfRange,
    SingularParameter,
    UnsupportedKind,
    ZeroFrequency,
    ZeroFrequencyParticular,
)
from .profiles import ParameterProfile, check_window
from .specfun import bessel

__all__ = [
    "AuxiliarySolution",
    "ClassicalTrajectory",
    "default_initial_conditions",
    "solve_ep_numeric",
    "ep_closed_form",
    "closed_form_solution",
    "stationary_solution",
    "ep_residual_pointwise",
    "classical_trajectory",
    "classical_residual_pointwise",
    "gauge_map",
    "gauge_map_inverse",
    "running_integral",
]

CLOSED_FORM_KINDS = ("pinney_constant", "bessel_exponential", "yermakov_dissipative")

# Gauss-Legendre rules of the panel quadrature; the lower order certifies
# the higher one, and both share one evaluation of the integrand
(_X_LO, _W_LO), (_X_HI, _W_HI) = leggauss(10), leggauss(20)
_PANEL_NODES = np.concatenate([_X_LO, _X_HI])
# a panel passes when its two orders agree to this fraction of the integral
# of |f| over it
_PANEL_TOL = 1e-12


def _panel_integrals(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integrals of f over the panels [a_k, b_k] at the higher Gauss order.

    Raises IntegralNonConvergent where the two orders disagree.
    """
    half = 0.5 * (b - a)
    t = 0.5 * (b + a)[:, None] + half[:, None] * _PANEL_NODES
    vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    lo, hi = vals[:, : _X_LO.size], vals[:, _X_LO.size :]
    low = (lo * _W_LO).sum(axis=1) * half
    high = (hi * _W_HI).sum(axis=1) * half
    bar = _PANEL_TOL * (np.abs(hi) * _W_HI).sum(axis=1) * np.abs(half)
    bad = ~(np.abs(high - low) <= bar)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise IntegralNonConvergent(
            f"Gauss orders disagree by {abs(high[k] - low[k]):.3e} on the panel "
            f"[{a[k]!r}, {b[k]!r}], above the bar {bar[k]:.3e}"
        )
    return high


def running_integral(f: Callable, edges) -> Callable:
    """F(t) = integral of f from edges[0] to t, certified panel by panel.

    ``f`` maps a 1-D array of times to values; ``edges`` are strictly
    increasing panel ends between which f is smooth.  Whole panels are
    summed once; F(t) adds the partial panel up to t.  Every panel, whole or
    partial, is integrated at two Gauss-Legendre orders, and
    IntegralNonConvergent is raised where they disagree.  So F(t) does not
    depend on which other times it is asked at.  Times outside
    [edges[0], edges[-1]] raise OutOfDomain (``check_window``).
    """
    edges = np.asarray(edges, dtype=float)
    cumulative = np.concatenate(([0.0], np.cumsum(_panel_integrals(f, edges[:-1], edges[1:]))))

    def F(t):
        check_window(t, edges[0], edges[-1], "the panels")
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, edges.size - 2)
        return (cumulative[k] + _panel_integrals(f, edges[k], flat)).reshape(t.shape)

    return F


def _panel_edges(base, profile: ParameterProfile) -> np.ndarray:
    """Panel ends: ``base`` plus the profile's knots inside its span."""
    base = np.asarray(base, dtype=float)
    knots = profile.knots
    return np.union1d(base, knots[(knots > base[0]) & (knots < base[-1])])


@dataclass
class AuxiliarySolution:
    """Sampled auxiliary solution plus dense evaluators.

    ``envelope_fn(t)`` returns the pair (rho, rho_dot) at t, each shaped
    like t, from one evaluation (ODE dense output, the closed form, or the
    stationary constants); ``rho``/``rho_dot`` are that pair on ``grid``.
    ``theta_fn(t)`` gives theta(t) = integral of kappa/(M rho^2) from
    grid[0] to t.  ``panels`` are the ends of the intervals on which the
    evaluators are smooth (solver steps and profile knots, or the grid), for
    Gauss quadrature along the solution.  It carries no kappa: every reader
    takes ``profile.kappa``.
    ``ep_residual_pointwise`` gives the equation's residual on the samples.

    Construction binds ``envelope_fn`` and ``theta_fn`` to the span solved,
    [grid[0], grid[-1]]: they, ``rho_at`` and every reader raise OutOfDomain
    at any other time, NaN and infinite times included (``check_window``).
    """

    grid: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    envelope_fn: Callable = field(repr=False)
    theta_fn: Callable = field(repr=False)
    panels: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        self.rho_dot = np.asarray(self.rho_dot, dtype=float)
        if np.any(self.rho <= 0.0):
            raise BlowUp("auxiliary solution must keep rho > 0 on the grid")
        self.panels = np.asarray(self.grid if self.panels is None else self.panels, dtype=float)
        envelope, theta = self.envelope_fn, self.theta_fn
        self.envelope_fn = lambda t: envelope(self._on_span(t))
        self.theta_fn = lambda t: theta(self._on_span(t))

    def _on_span(self, t):
        """t, unless it lies outside [grid[0], grid[-1]] (OutOfDomain)."""
        check_window(t, self.grid[0], self.grid[-1], "solution grid")
        return t

    def rho_at(self, t):
        return self.envelope_fn(t)[0]


@dataclass
class ClassicalTrajectory:
    """Complex trajectory z = x2 + i x1 of the transformed planar motion."""

    grid: np.ndarray
    z: np.ndarray
    z_dot: np.ndarray


def _check_grid(grid, profile: Optional[ParameterProfile]) -> np.ndarray:
    """The grid as a float array, checked for every solution and trajectory.

    GridTooShort unless it is 1-D with at least 2 points; ValueError unless
    it is finite and strictly increasing (so grid[0] is where the initial
    state sits); OutOfDomain unless both ends lie in the profile's window (if given).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise GridTooShort("need a 1-D grid of at least 2 points")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be finite and strictly increasing")
    if profile is not None:
        profile.check_time(grid[[0, -1]])
    return grid


def default_initial_conditions(profile: ParameterProfile) -> tuple:
    """Adiabatic stationary point at t0: rho = sqrt(kappa/(M Omega)), rho_dot = 0."""
    t0 = profile.t0
    m_omega = float(profile.mass(t0)) * float(profile.Omega(t0))
    rho0 = math.sqrt(profile.kappa / m_omega)
    if not 0.0 < rho0 < math.inf:
        raise NonPositiveMassOrFrequency(
            f"sqrt('kappa' / (M(t0) Omega(t0))) = sqrt({profile.kappa:g} / {m_omega:g}) is not "
            "a positive double: give the initial envelope (--rho0)"
        )
    return rho0, 0.0


def _ep_rhs(profile: ParameterProfile):
    """Right-hand side of the auxiliary equation as a first-order system.

    Reads M, M' and omega directly (Omega from them, in the operation order
    of ``ParameterProfile.Omega``): the solver stays inside the window,
    which the caller checks at its two ends.
    """
    try:
        kappa_sq = profile.kappa**2
    except OverflowError:
        raise NonPositiveMassOrFrequency(
            f"'kappa' = {profile.kappa:g} is too large: kappa^2 overflows"
        ) from None
    qb = profile.q * profile.B
    mass, mass_rate, omega = profile.mass, profile.mass_rate, profile.omega

    def rhs(t, y):
        rho, rho_dot = y
        M = float(mass(t))
        Mdot = float(mass_rate(t))
        w = omega(t)
        wc = qb / M
        Om = math.sqrt(w * w + 0.25 * wc * wc)
        try:
            return [
                rho_dot,
                -(Mdot / M) * rho_dot - Om * Om * rho + kappa_sq / (M * M * rho**3),
            ]
        except (OverflowError, ZeroDivisionError):
            raise BlowUp(
                f"kappa^2/(M^2 rho^3) leaves the double range at rho = {rho:.6g}, t = {t!r}"
            ) from None

    return rhs


def _solve_pieces(rhs, y0, edges, what: str, band=None) -> list:
    """DOP853 runs (rtol 1e-11) between consecutive ``edges``, each started
    from the end of the one before; BlowUp if one stops early.  Every run
    goes through the module attribute ``solve_ivp``."""
    pieces = []
    y = y0
    for a, b in zip(edges[:-1], edges[1:]):
        run = solve_ivp(rhs, (a, b), y, band)
        if run.status != 0:
            raise BlowUp(f"{what} integration stopped early: {run.message}")
        pieces.append(run)
        y = run.y[-1]
    return pieces


def _stacked_dense(pieces) -> tuple:
    """One evaluator over the dense outputs of consecutive solver runs.

    The step ends, the states at the step starts and the steps' dense-output
    rows are read once into C-contiguous tables with the step as the last
    axis: the starts as (n_state, steps) and the rows, in Horner order (the
    last coefficient row first), as (n_state, 7, steps); a step's h is the
    difference of its two ends, as in the stepper.  The evaluator maps times
    of any shape to an array of shape (n_state, *t.shape): it finds every
    time's step k with one sorted search (a time at a step end takes the
    earlier step), reads t_old, h, the rows and the starts at k with
    ``take`` and runs the DOP853 Horner scheme on all of them at once.  A
    single float time takes the same search and Horner steps in Python
    arithmetic, which gives the same bits without the array calls.  Each
    value is the same bits as the one-step evaluation of its step.  Returns
    (evaluator, step ends).
    """
    ends_f = pieces[0].t[:1] + [t for run in pieces for t in run.t[1:]]
    starts_f = [y for run in pieces for y in run.y[:-1]]
    rows_f = [rows for run in pieces for rows in run.F]
    ends = np.array(ends_f)
    t_old, h = ends[:-1], np.diff(ends)
    y_old = np.ascontiguousarray(np.array(starts_f).T)
    F = np.ascontiguousarray(np.array(rows_f)[:, ::-1].transpose(2, 1, 0))
    zero, last = y_old.dtype.type(0).item(), h.size - 1

    def evaluate(t):
        if isinstance(t, float):
            t = float(t)
            k = min(max(bisect_left(ends_f, t) - 1, 0), last)
            x = (t - ends_f[k]) / (ends_f[k + 1] - ends_f[k])
            out = []
            for i, start in enumerate(starts_f[k]):
                y = zero
                for j, row in enumerate(reversed(rows_f[k])):
                    y += row[i]
                    y *= x if j % 2 == 0 else 1 - x
                out.append(y + start)
            return np.array(out, dtype=y_old.dtype)
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        k = np.clip(np.searchsorted(ends, flat, side="left") - 1, 0, last)
        x = (flat - t_old.take(k)) / h.take(k)
        factors = (x, 1 - x)
        y = np.zeros((y_old.shape[0], flat.size), dtype=y_old.dtype)
        for i in range(F.shape[1]):
            y += F[:, i].take(k, axis=1)
            y *= factors[i % 2]
        y += y_old.take(k, axis=1)
        return y.reshape(y_old.shape[0], *t.shape)

    return evaluate, ends


def solve_ep_numeric(
    profile: ParameterProfile,
    rho0: float,
    rho_dot0: float,
    grid,
) -> AuxiliarySolution:
    """Integrate the auxiliary equation from (rho0, rho_dot0) at grid[0] and
    sample it on the grid (checked by ``_check_grid``).

    DOP853 runs knot to knot (one piece for the analytic kinds), so no
    solver step straddles a knot of a tabulated profile, and one stacked
    evaluator reads all pieces' dense output: the grid samples, the
    envelope and theta's integrand.  Raises BlowUp when the solution
    escapes toward 0 or infinity: a step ends with rho outside (1e-6, 1e6)
    times the initial amplitude, or the step size collapses.  theta is
    integrated on the dense output over panels at the solver steps, which
    include the profile knots; IntegralNonConvergent is raised if the panel
    rule cannot certify it.
    """
    if not 0 < rho0 < math.inf:
        raise ValueError(f"rho0 must be positive and finite, got {rho0}")
    if not math.isfinite(rho_dot0):
        raise ValueError(f"rho_dot0 must be finite, got {rho_dot0}")
    grid = _check_grid(grid, profile)
    pieces = _solve_pieces(
        _ep_rhs(profile),
        [float(rho0), float(rho_dot0)],
        _panel_edges(grid[[0, -1]], profile),
        "auxiliary",
        band=(1e-6 * rho0, 1e6 * rho0),
    )
    envelope, panels = _stacked_dense(pieces)
    rho, rho_dot = envelope(grid)
    kappa, mass = profile.kappa, profile.mass
    return AuxiliarySolution(
        grid=grid,
        rho=rho,
        rho_dot=rho_dot,
        envelope_fn=envelope,
        theta_fn=running_integral(lambda t: kappa / (mass(t) * envelope(t)[0] ** 2), panels),
        panels=panels,
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _pinney_constant(params: Mapping, t: np.ndarray):
    omega = float(params["omega"])
    tau = float(params.get("tau", 1.0))
    if "nu" in params:
        nu = float(params["nu"])
    else:
        nu = float(params["kappa"]) / tau
    c1, s1 = float(params.get("c1", 1.0)), float(params.get("s1", 0.0))
    c2, s2 = float(params.get("c2", 0.0)), float(params.get("s2", 1.0))
    wronskian = omega * (c1 * s2 - s1 * c2)
    if wronskian == 0.0:
        raise SingularParameter("v1, v2 have zero Wronskian")
    ct, st = np.cos(omega * t), np.sin(omega * t)
    v1 = c1 * ct + s1 * st
    v2 = c2 * ct + s2 * st
    v1d = omega * (-c1 * st + s1 * ct)
    v2d = omega * (-c2 * st + s2 * ct)
    coeff = nu * nu / (wronskian * wronskian)
    rho = np.sqrt(v1 * v1 + coeff * v2 * v2)
    rho_dot = (v1 * v1d + coeff * v2 * v2d) / rho
    # v1 + i (nu/W) v2 = P e^{i omega t} + Q e^{-i omega t}; factoring out the
    # larger term leaves arg(1 + w) with |w| < 1, continuous without unwrapping
    a = c1 + 1j * (nu / wronskian) * c2
    b = s1 + 1j * (nu / wronskian) * s2
    big, small, phase = 0.5 * (a - 1j * b), 0.5 * (a + 1j * b), omega * t
    if abs(big) < abs(small):
        big, small, phase = small, big, -phase
    theta = phase + np.angle(1.0 + (small / big) * np.exp(-2j * phase))
    return rho, rho_dot, theta


def _bessel_exponential(params: Mapping, t: np.ndarray):
    tau = float(params["tau"])
    alpha = float(params["alpha"])
    a1 = float(params["A1"])
    kappa = float(params.get("kappa", 1.0))
    if a1 == 0.0:
        raise SingularParameter("A1 must be nonzero")
    if alpha == 0.0 or tau / alpha <= 0.0:
        raise SingularParameter(
            "bessel_exponential needs alpha != 0 with tau/alpha > 0"
        )
    x = (tau / alpha) * np.exp(alpha * t)
    j0, j1 = bessel("J", 0.0, x), bessel("J", 1.0, x)
    y0, y1 = bessel("Y", 0.0, x), bessel("Y", 1.0, x)
    y_coeff = math.pi * kappa / (2.0 * alpha * a1)
    coeff = y_coeff**2
    rho_sq = a1 * a1 * j0 * j0 + coeff * y0 * y0
    if np.any(rho_sq <= 0.0):
        raise SingularParameter("rho^2 not positive on the requested times")
    rho = np.sqrt(rho_sq)
    rho_dot = -alpha * x * (a1 * a1 * j0 * j1 + coeff * y0 * y1) / rho
    # arctan(sqrt(C) Y0 / (A1 J0)) drops by pi where J0 vanishes, and theta
    # rises, so each zero of J0 that x(t) has crossed adds sign(alpha) pi.
    # The m-th zero lies in ((m - 1/4) pi, (m - 1/4) pi + 1/8), so x has
    # passed it iff J0(x) already has the sign (-1)^m.
    m = np.floor(x / math.pi + 0.25)
    passed = m - (np.where(m % 2 == 0, j0, -j0) < 0.0)
    theta = np.arctan(y_coeff * y0 / (a1 * j0)) + math.copysign(math.pi, alpha) * passed
    return rho, rho_dot, theta


def _yermakov_envelope(params: Mapping):
    alpha = float(params["alpha"])
    e1 = float(params.get("e1", 1.0))
    e2 = float(params.get("e2", 1.0))
    amp = math.hypot(e1, e2)
    if alpha == 0.0 or amp == 0.0:
        raise SingularParameter("need alpha != 0 and (e1, e2) != (0, 0)")
    phase = math.atan2(e2, e1)
    return alpha, e1, e2, amp, phase


def _yermakov_check_window(params: Mapping, t_max: float) -> None:
    """Reject evaluation windows containing a root of s(t)."""
    alpha, _, _, _, phase = _yermakov_envelope(params)
    # roots of sin(alpha t + phase) at alpha t + phase = n pi
    n_low = math.ceil((0.0 * alpha + phase) / math.pi - 1e-12)
    for n in range(n_low - 2, n_low + max(4, int(abs(alpha * t_max) / math.pi) + 3)):
        root = (n * math.pi - phase) / alpha
        if 1e-12 < root <= t_max + 1e-12:
            raise SingularParameter(
                f"s(t) vanishes at t = {root:.6g} inside the evaluation window"
            )
    if abs(math.sin(phase)) < 1e-14:
        raise SingularParameter("s(0) = 0: the inner integral diverges at t = 0")


def _yermakov_dissipative(params: Mapping, t: np.ndarray):
    alpha, e1, e2, amp, phase = _yermakov_envelope(params)
    kappa = float(params.get("kappa", 1.0))
    d1 = float(params.get("d1", 1.0))
    if d1 == 0.0:
        raise SingularParameter("d1 must be nonzero")
    d2 = float(params.get("d2", d1 / kappa))
    if abs(d2 - d1 / kappa) > 1e-12 * max(1.0, abs(d1 / kappa)):
        raise ValueError(
            "the displayed combination solves the auxiliary equation only for "
            f"d2 = d1/kappa = {d1 / kappa!r}; got d2 = {d2!r}"
        )
    _yermakov_check_window(params, float(np.max(t)))

    s_t = e1 * np.sin(alpha * t) + e2 * np.cos(alpha * t)
    s_dot = alpha * (e1 * np.cos(alpha * t) - e2 * np.sin(alpha * t))
    inner = (1.0 / math.tan(phase) - 1.0 / np.tan(alpha * t + phase)) / (alpha * amp * amp)
    w = d2 + d1 * inner
    y_sq = kappa * s_t**2 / d1 + (s_t**2 / d2) * w**2
    if np.any(y_sq <= 0.0):
        raise SingularParameter("y^2 not positive on the requested times")
    y = np.sqrt(y_sq)
    # (y^2)' = 2 s s' (kappa/d1 + w^2/d2) + 2 w d1/d2, since w' = d1/s^2
    y_dot = (s_t * s_dot * (kappa / d1 + w**2 / d2) + w * d1 / d2) / y
    growth = np.exp(0.5 * alpha * t)
    return growth * y, growth * (0.5 * alpha * y + y_dot), np.arctan(w)


_CLOSED_FORMS = {
    "pinney_constant": _pinney_constant,
    "bessel_exponential": _bessel_exponential,
    "yermakov_dissipative": _yermakov_dissipative,
}


def _closed_form(kind: str, params: Mapping, t):
    """(rho, rho_dot, theta + const) of a closed-form family, all analytic."""
    if kind not in _CLOSED_FORMS:
        raise UnsupportedKind(
            f"closed-form kind {kind!r} not one of {', '.join(CLOSED_FORM_KINDS)}"
        )
    return _CLOSED_FORMS[kind](params, np.atleast_1d(np.asarray(t, dtype=float)))


def ep_closed_form(kind: str, params: Mapping, t):
    """Closed-form (rho, rho_dot) for one of the three families at time(s) t."""
    rho, rho_dot, _ = _closed_form(kind, params, t)
    if np.ndim(t) == 0:
        return float(rho[0]), float(rho_dot[0])
    return rho, rho_dot


def closed_form_solution(kind: str, params: Mapping, grid) -> AuxiliarySolution:
    """Package a closed-form family as an AuxiliarySolution on a checked grid."""
    grid = _check_grid(grid, None)
    rho, rho_dot, theta = _closed_form(kind, params, grid)
    return AuxiliarySolution(
        grid=grid,
        rho=rho,
        rho_dot=rho_dot,
        envelope_fn=lambda t: ep_closed_form(kind, params, t),
        theta_fn=lambda t: np.reshape(_closed_form(kind, params, t)[2] - theta[0], np.shape(t)),
    )


def stationary_solution(profile: ParameterProfile, grid) -> AuxiliarySolution:
    """Constant rho = sqrt(kappa/(M Omega)) for a static profile, on a checked grid."""
    grid = _check_grid(grid, profile)
    rho0, _ = default_initial_conditions(profile)
    rate = profile.kappa / (float(profile.mass(profile.t0)) * rho0 * rho0)

    def envelope(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, rho0), np.zeros_like(t)

    return AuxiliarySolution(
        grid=grid,
        rho=np.full_like(grid, rho0),
        rho_dot=np.zeros_like(grid),
        envelope_fn=envelope,
        theta_fn=lambda t: rate * (np.asarray(t, dtype=float) - grid[0]),
    )


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _stencil_step(grid: np.ndarray) -> float:
    """Spacing h of a grid that the 5-point residual stencil can read:
    GridTooShort below 5 points, ValueError unless the grid is uniform."""
    if grid.size < 5:
        raise GridTooShort("residual stencil needs at least 5 grid points")
    steps = np.diff(grid)
    if not np.max(np.abs(steps - steps[0])) <= 1e-9 * abs(steps[0]):
        raise ValueError("residual stencil expects a uniform grid")
    return grid[1] - grid[0]


def _second_derivative_o4(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order central second derivative on the interior (2 points clipped
    at each end)."""
    v = values
    return (
        -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
    ) / (12.0 * h * h)


def _straddles_knot(grid: np.ndarray, profile: ParameterProfile) -> np.ndarray:
    """For each interior sample i, whether the open span (grid[i-2],
    grid[i+2]) of its 5-point stencil holds a profile knot."""
    knots = profile.knots
    return np.searchsorted(knots, grid[4:], side="left") > np.searchsorted(
        knots, grid[:-4], side="right"
    )


def ep_residual_pointwise(sol: AuxiliarySolution, profile: ParameterProfile) -> np.ndarray:
    """Per-sample |rho'' + (M'/M) rho' + Omega^2 rho - kappa^2/(M^2 rho^3)|.

    NaN at the two samples on each end (no centered 4th-order stencil there)
    and at every sample whose stencil span (grid[i-2], grid[i+2]) holds a
    knot of a tabulated profile: rho'' jumps there, so the stencil would
    report its own truncation, not the solution's error.
    """
    grid = sol.grid
    h = _stencil_step(grid)
    rho_dd = _second_derivative_o4(sol.rho, h)
    mid = slice(2, -2)
    t = grid[mid]
    M = np.asarray(profile.mass(t), dtype=float)
    Mdot = np.asarray(profile.mass_rate(t), dtype=float)
    Om = np.asarray(profile.Omega(t), dtype=float)
    res = np.full(grid.size, np.nan)
    res[mid] = np.abs(
        rho_dd
        + (Mdot / M) * sol.rho_dot[mid]
        + Om * Om * sol.rho[mid]
        - profile.kappa**2 / (M * M * sol.rho[mid] ** 3)
    )
    res[mid][_straddles_knot(grid, profile)] = np.nan
    return res


# ---------------------------------------------------------------------------
# classical trajectory
# ---------------------------------------------------------------------------

def _drive_e0(profile: ParameterProfile, t):
    """E_0 = (q/M)(E2 + i E1), mirroring z = x2 + i x1."""
    M = np.asarray(profile.mass(t), dtype=float)
    return profile.q * (profile.efield2(t) + 1j * profile.efield1(t)) / M


def _classical_rhs(profile: ParameterProfile):
    """Right-hand side of the classical equation for y = (z, z_dot).

    Reads M, omega, E1 and E2 as floats once per call and forms omega_c =
    q B / M and E_0 = (q E2 / M) + i (q E1 / M) from them in Python
    arithmetic.
    """
    qb, q = profile.q * profile.B, profile.q
    mass, omega_fn = profile.mass, profile.omega
    efield1, efield2 = profile.efield1, profile.efield2

    def rhs(t, y):
        z, zd = y
        M = float(mass(t))
        omega = float(omega_fn(t))
        omega_c = qb / M
        e0 = complex(q * float(efield2(t)) / M, q * float(efield1(t)) / M)
        return [zd, e0 - 1j * omega_c * zd - omega * omega * z]

    return rhs


def classical_trajectory(
    profile: ParameterProfile,
    z0: complex,
    z_dot0: complex,
    grid,
) -> ClassicalTrajectory:
    """Solve z'' + i omega_c z' + omega^2 z = E_0 from (z0, z_dot0) at
    grid[0] on the grid (checked by ``_check_grid``).

    Constant-coefficient profiles use the closed form
    z = A exp(-i omega_+ t) + B exp(+i omega_- t) + E_0/omega^2 with
    omega_+- = Omega +- omega_c/2.  Anything else runs DOP853 knot to knot
    (one piece for the analytic kinds) and samples the grid from the
    pieces' stacked dense output.  OutOfRange when z or z' leaves the
    double range, or the closed form's phase reaches 2^52 rad.
    """
    for name, value in (("z0", z0), ("z_dot0", z_dot0)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    grid = _check_grid(grid, profile)
    if profile.kind == "constant":
        t_a = grid[0]
        omega = float(profile.omega(t_a))
        omega_c = float(profile.omega_c(t_a))
        Om = float(profile.Omega(t_a))
        e0 = complex(_drive_e0(profile, t_a))
        if omega == 0.0:
            if e0 != 0:
                raise ZeroFrequencyParticular(
                    "particular solution E0/omega^2 undefined at omega = 0"
                )
            z_p = 0.0
        else:
            z_p = e0 / omega**2
        w_plus = Om + 0.5 * omega_c
        w_minus = Om - 0.5 * omega_c
        if max(abs(w_plus), abs(w_minus)) * float(np.max(np.abs(grid))) >= 2.0**52:
            raise OutOfRange("the closed-form phase |omega_pm t| reaches 2^52, no digit of 1 rad")
        ep = np.exp(-1j * w_plus * t_a)
        em = np.exp(1j * w_minus * t_a)
        rhs = np.array([z0 - z_p, z_dot0], dtype=complex)
        mat = np.array([[ep, em], [-1j * w_plus * ep, 1j * w_minus * em]], dtype=complex)
        A, B = np.linalg.solve(mat, rhs)
        z = A * np.exp(-1j * w_plus * grid) + B * np.exp(1j * w_minus * grid) + z_p
        z_dot = (
            -1j * w_plus * A * np.exp(-1j * w_plus * grid)
            + 1j * w_minus * B * np.exp(1j * w_minus * grid)
        )
    else:
        pieces = _solve_pieces(
            _classical_rhs(profile),
            [complex(z0), complex(z_dot0)],
            _panel_edges(grid[[0, -1]], profile),
            "classical",
        )
        z, z_dot = _stacked_dense(pieces)[0](grid)

    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(z_dot))):
        raise OutOfRange("the classical trajectory leaves the double range")
    return ClassicalTrajectory(grid=grid, z=z, z_dot=z_dot)


def classical_residual_pointwise(
    traj: ClassicalTrajectory, profile: ParameterProfile
) -> np.ndarray:
    """Per-sample |z'' + i omega_c z' + omega^2 z - E_0|.

    NaN at the two samples on each end and, as in ``ep_residual_pointwise``,
    at every sample whose stencil span holds a knot of a tabulated profile
    (z'' jumps there with the coefficients).  OutOfRange past the double range.
    """
    grid = traj.grid
    h = _stencil_step(grid)
    mid = slice(2, -2)
    t = grid[mid]
    omega = np.asarray(profile.omega(t), dtype=float)
    omega_c = np.asarray(profile.omega_c(t), dtype=float)
    res = np.full(grid.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        z_dd = _second_derivative_o4(traj.z, h)
        res[mid] = np.abs(
            z_dd + 1j * omega_c * traj.z_dot[mid] + omega**2 * traj.z[mid] - _drive_e0(profile, t)
        )
    if not np.all(np.isfinite(res[mid])):
        raise OutOfRange("the classical equation residual leaves the double range")
    res[mid][_straddles_knot(grid, profile)] = np.nan
    return res


# ---------------------------------------------------------------------------
# gauge map
# ---------------------------------------------------------------------------

def _gauge_shift(profile: ParameterProfile, t: float):
    """Shift (dx, dy, dpx, dpy) that gauge_map adds to (x1, x2, p1, p2)."""
    omega = float(profile.omega(t))
    if omega == 0.0:
        raise ZeroFrequency("gauge shift needs omega(t) != 0")
    M = float(profile.mass(t))
    e1 = float(profile.efield1(t))
    e2 = float(profile.efield2(t))
    q = profile.q
    B = profile.B
    denom = M * omega**2
    return (
        q * e1 / denom,
        q * e2 / denom,
        -(q**2 * B * e2 / (2.0 * denom)),
        -(q**2 * B * e1 / (2.0 * denom)),
    )


def gauge_map(profile: ParameterProfile, t: float, x1, x2, p1, p2):
    """Center shift removing the linear drive: (x1,x2,p1,p2) -> (x,y,px,py)."""
    dx, dy, dpx, dpy = _gauge_shift(profile, t)
    return x1 + dx, x2 + dy, p1 + dpx, p2 + dpy


def gauge_map_inverse(profile: ParameterProfile, t: float, x, y, px, py):
    """Inverse of gauge_map (shift back to the driven coordinates)."""
    dx, dy, dpx, dpy = _gauge_shift(profile, t)
    return x - dx, y - dy, px - dpx, py - dpy
