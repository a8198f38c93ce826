"""Time-dependent system parameters for the planar charged particle.

A profile bundles the charge q, the (static) magnetic field B, the coupling
constant kappa of the auxiliary equation, and the time-dependent functions
M(t), omega(t), E1(t), E2(t) on a finite window [t0, t1].  Derived
frequencies: the cyclotron frequency omega_c(t) = q B / M(t) and the
effective trap frequency Omega(t) = sqrt(omega(t)**2 + omega_c(t)**2 / 4).

Five concrete kinds are built in:

``constant``
    M, omega, E1, E2 all constant.
``exponential-mass``
    M(t) = M0 * exp(-alpha * t), omega constant.
``exponential-frequency``
    omega(t) = tau * exp(alpha * t), M constant.
``sinusoidal``
    omega(t) = omega0 * (1 + depth * sin(rate * t)), M constant
    (|depth| < 1 keeps omega positive).
``tabulated``
    M and omega sampled on a time grid, monotone cubic (PCHIP)
    interpolation in between.

Built-in kinds carry constant field components; a time-dependent field is
expressed through the tabulated kind.

The PCHIP interpolant is built here in numpy with the operations of scipy's
``PchipInterpolator``: Fritsch-Butland slopes (a weighted harmonic mean of
the neighbouring secants, zero at a local extremum) with a one-sided
three-point rule at the two ends, turned into the cubic Hermite power
series of each interval.  It is evaluated with scipy ``PPoly``'s interval
rule (a time on an inner knot takes the later interval, the last sample
time and later times the last one, earlier times the first) and its
power-series operations, so the values are the same bits as scipy's.

The ODE right-hand sides read M, M' and omega at one float time per call,
so every reader of every kind (``mass``, ``mass_rate``, ``omega``,
``efield1``, ``efield2``) answers a float time (``np.float64`` included)
in floats, with the bits of the array path at that time: the constants
return their value, the exponential and sinusoidal readers apply the same
``np.exp`` or ``np.sin`` to the float, and the PCHIP interpolants sum in
plain Python floats.  Any other input is evaluated as an array.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    GridTooShort,
    MissingParameter,
    NonPositiveMassOrFrequency,
    OutOfDomain,
    UnsupportedKind,
)

__all__ = [
    "ParameterProfile",
    "check_window",
    "make_profile",
    "profile_to_json",
    "profile_from_json",
    "profile_from_doc",
]

PROFILE_KINDS = (
    "constant",
    "exponential-mass",
    "exponential-frequency",
    "sinusoidal",
    "tabulated",
)

# Number of samples used to certify positivity of M and omega on [t0, t1].
_POSITIVITY_SAMPLES = 2001


def check_window(t, lo: float, hi: float, what: str) -> None:
    """Raise OutOfDomain unless every t (scalar or array) lies in [lo, hi],
    up to 1e-12 max(1, |lo|, |hi|).  NaN and infinite times are outside."""
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    times = np.asarray(t, dtype=float)
    if not np.all((times >= lo - tol) & (times <= hi + tol)):
        raise OutOfDomain(f"t={t!r} outside {what} [{lo}, {hi}]")


@dataclass(frozen=True)
class ParameterProfile:
    """Parameter set of the driven planar system on a time window.

    The callables accept a float or an ndarray and broadcast.  ``mass_rate``
    is the exact derivative of ``mass`` (interpolant derivative for the
    tabulated kind), not a finite difference.  A tabulated callable returns
    a float for a float time, evaluated in plain floats with the bits of the
    interpolant (see ``_piecewise``): a time on an inner knot takes the cubic
    that starts there, the last sample time the last cubic, and times
    outside the table extend the first or the last cubic.  Any other input
    gives an array of its shape.
    """

    kind: str
    q: float
    B: float
    kappa: float
    t0: float
    t1: float
    mass: Callable[[np.ndarray], np.ndarray]
    mass_rate: Callable[[np.ndarray], np.ndarray]
    omega: Callable[[np.ndarray], np.ndarray]
    efield1: Callable[[np.ndarray], np.ndarray]
    efield2: Callable[[np.ndarray], np.ndarray]
    params: Mapping[str, object] = field(repr=False)

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    @property
    def knots(self) -> np.ndarray:
        """Tabulated sample times strictly inside (t0, t1); empty for the
        analytic kinds.  The interpolants are only piecewise smooth, so
        quadrature panels end there."""
        if self.kind != "tabulated":
            return np.empty(0)
        t = np.asarray(self.params.get("t", ()), dtype=float)
        return t[(t > self.t0) & (t < self.t1)]

    def check_time(self, t) -> None:
        """Raise OutOfDomain unless t (scalar or array) lies in [t0, t1]."""
        check_window(t, self.t0, self.t1, "profile window")

    def omega_c(self, t):
        """Cyclotron frequency q B / M(t)."""
        self.check_time(t)
        return self.q * self.B / self.mass(t)

    def Omega(self, t):
        """Effective frequency sqrt(omega**2 + omega_c**2 / 4)."""
        self.check_time(t)
        w = self.omega(t)
        wc = self.q * self.B / self.mass(t)
        return np.sqrt(w * w + 0.25 * wc * wc)

    def efield_sq(self, t):
        """|E(t)|**2 = E1**2 + E2**2."""
        e1 = self.efield1(t)
        e2 = self.efield2(t)
        return e1 * e1 + e2 * e2


def _require(params: Mapping[str, object], *names: str) -> list:
    out = []
    for name in names:
        if name not in params:
            raise MissingParameter(f"profile parameter {name!r} is required")
        out.append(params[name])
    return out


def _not_a_number(value) -> bool:
    """Whether value is a bool or a string, or a list or tuple holding one:
    JSON true, false and "1" are not numbers, though numpy reads them so."""
    if isinstance(value, (list, tuple)):
        return any(map(_not_a_number, value))
    dtype = getattr(value, "dtype", None)
    return isinstance(value, (bool, str)) or (dtype is not None and dtype.kind in "bUS")


def _real(value, name: str, ndim: int = 0):
    """value as a float (a 1-D float array when ndim is 1); MissingParameter
    naming the entry unless it has that shape and only finite numbers."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = np.array(np.nan)
    if out.ndim != ndim or not np.all(np.isfinite(out)) or _not_a_number(value):
        what = "a 1-D table of finite real numbers" if ndim else "a finite real number"
        raise MissingParameter(f"profile entry {name!r} must be {what}, got {value!r}")
    return out if ndim else float(out)


def _const_fn(value, name: str) -> Callable:
    value = _real(value, name)

    def fn(t):
        if isinstance(t, float):
            return value
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(np.float64(value), t.shape).copy() if t.ndim else np.float64(value)

    return fn


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end of the table, kept from
    overshooting (scipy's ``PchipInterpolator._edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray, name: str) -> np.ndarray:
    """Power-series coefficients, highest order first and one column per
    interval (scipy ``PPoly``'s layout), of the PCHIP interpolant through
    (x, y); x strictly increasing with at least 3 samples.

    The operations are those of scipy's ``PchipInterpolator``: the slopes
    of ``_find_derivatives`` and the cubic of ``CubicHermiteSpline``.
    MissingParameter naming the table entry ``name`` if a coefficient
    overflows.
    """
    # a zero secant divides where the slope is set to 0 anyway; an overflow
    # is caught after
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.diff(x)
        m = np.diff(y) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.concatenate((
            [_pchip_end_slope(h[0], h[1], m[0], m[1])],
            np.where(flat, 0.0, 1.0 / whmean),
            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])],
        ))
        t = (d[:-1] + d[1:] - 2 * m) / h
        c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
    if not np.all(np.isfinite(c)):
        raise MissingParameter(
            f"profile entry {name!r} must be a table whose cubics stay finite, got {y.tolist()!r}"
        )
    return c


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative of the cubics ``c``, as ``PPoly.derivative``."""
    return c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]


def _piecewise(x: np.ndarray, c: np.ndarray) -> Callable:
    """Evaluator of the piecewise polynomial with breakpoints ``x`` and
    coefficients ``c`` (highest order first, one column per interval).

    It runs scipy's ``_ppoly.evaluate``.  The interval is the i with
    x[i] <= t < x[i+1], the first one below x[1] and the last one from x[-2]
    on (its ``find_interval_ascending`` with extrapolation): that is the
    number of interior breakpoints at or below t.  The power series in
    s = t - x[i] is summed lowest order first, ``res += c_k * z; z *= s``.
    A float time (``np.float64`` included) is evaluated in plain floats;
    any other input as an array of its shape, with the same operations
    elementwise.
    """
    inner = x[1:-1]
    x_list, inner_list = x.tolist(), inner.tolist()
    # lowest order first
    rows = c[::-1]
    per_interval = rows.T.tolist()

    def fn(t):
        if isinstance(t, float):
            i = bisect_right(inner_list, t)
            s = t - x_list[i]
            res, z = 0.0, 1.0
            for ck in per_interval[i]:
                res += ck * z
                z *= s
            return res
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(inner, t, side="right")
        s = t - x[i]
        res, z = 0.0, 1.0
        for ck in rows:
            res = res + ck[i] * z
            z = z * s
        return np.asarray(res)

    return fn


def _field_fn(params: Mapping[str, object], name: str, t_tab=None) -> Callable:
    """E1 or E2: monotone cubic through a table on ``t_tab`` (tabulated
    kind with an array entry), else a constant."""
    value = params.get(name, 0.0)
    # a list or an array is a table, whatever its contents: _real checks those
    if t_tab is None or not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0)):
        return _const_fn(value, name)
    table = _real(value, name, ndim=1)
    if table.shape != t_tab.shape:
        raise MissingParameter(f"the {name} table must have the length of t")
    return _piecewise(t_tab, _pchip(t_tab, table, name))


def make_profile(
    kind: str,
    params: Mapping[str, object],
    *,
    q: float = 0.0,
    B: float = 0.0,
    kappa: float = 1.0,
    t0: float = 0.0,
    t1: float = 10.0,
) -> ParameterProfile:
    """Build a ParameterProfile of one of the built-in kinds.

    Raises
    ------
    UnsupportedKind
        Unknown ``kind`` tag.
    MissingParameter
        A parameter the kind needs is absent, an entry is not a finite
        number, or E1^2 + E2^2 or the drive energy q^2 |E|^2 / (2 M omega)
        leaves the double range on [t0, t1].
    NonPositiveMassOrFrequency
        M or omega fails strict positivity anywhere on [t0, t1]
        (certified on a dense sample).
    GridTooShort
        Tabulated kind with fewer than 4 samples.
    """
    names = ("q", "B", "kappa", "t0", "t1")
    q, B, kappa, t0, t1 = (_real(v, k) for v, k in zip((q, B, kappa, t0, t1), names))
    if kind not in PROFILE_KINDS:
        raise UnsupportedKind(
            f"kind {kind!r} not one of {', '.join(PROFILE_KINDS)}"
        )
    if not t1 > t0:
        raise OutOfDomain(f"profile window needs t1 > t0, got [{t0}, {t1}]")
    if kappa <= 0:
        raise NonPositiveMassOrFrequency("kappa must be positive")

    params = dict(params)
    t_tab = None

    if kind == "constant":
        (M, omega) = _require(params, "M", "omega")
        mass = _const_fn(M, "M")
        mass_rate = _const_fn(0.0, "mass_rate")
        omega_fn = _const_fn(omega, "omega")

    elif kind == "exponential-mass":
        (alpha, omega) = _require(params, "alpha", "omega")
        M0 = _real(params.get("M0", 1.0), "M0")
        alpha = _real(alpha, "alpha")

        def mass(t, M0=M0, alpha=alpha):
            if isinstance(t, float):
                return float(M0 * np.exp(-alpha * t))
            return M0 * np.exp(-alpha * np.asarray(t, dtype=float))

        def mass_rate(t, M0=M0, alpha=alpha):
            if isinstance(t, float):
                return float(-alpha * M0 * np.exp(-alpha * t))
            return -alpha * M0 * np.exp(-alpha * np.asarray(t, dtype=float))

        omega_fn = _const_fn(omega, "omega")

    elif kind == "exponential-frequency":
        (tau, alpha) = _require(params, "tau", "alpha")
        tau, alpha = _real(tau, "tau"), _real(alpha, "alpha")
        mass = _const_fn(params.get("M", 1.0), "M")
        mass_rate = _const_fn(0.0, "mass_rate")

        def omega_fn(t, tau=tau, alpha=alpha):
            if isinstance(t, float):
                return float(tau * np.exp(alpha * t))
            return tau * np.exp(alpha * np.asarray(t, dtype=float))

    elif kind == "sinusoidal":
        (omega0, depth, rate) = _require(params, "omega0", "depth", "rate")
        omega0, depth, rate = _real(omega0, "omega0"), _real(depth, "depth"), _real(rate, "rate")
        if abs(depth) >= 1.0:
            raise NonPositiveMassOrFrequency(
                f"|depth| = {abs(depth)} >= 1 lets omega touch zero"
            )
        mass = _const_fn(params.get("M", 1.0), "M")
        mass_rate = _const_fn(0.0, "mass_rate")

        def omega_fn(t, omega0=omega0, depth=depth, rate=rate):
            if isinstance(t, float):
                return float(omega0 * (1.0 + depth * np.sin(rate * t)))
            t = np.asarray(t, dtype=float)
            return omega0 * (1.0 + depth * np.sin(rate * t))

    else:  # tabulated
        _require(params, "t", "M", "omega")
        t_tab, M_tab, w_tab = (_real(params[k], k, ndim=1) for k in ("t", "M", "omega"))
        if t_tab.size < 4:
            raise GridTooShort(
                f"tabulated profile needs >= 4 samples, got {t_tab.size}"
            )
        if M_tab.shape != t_tab.shape or w_tab.shape != t_tab.shape:
            raise MissingParameter("t, M, omega tables must share a length")
        if not np.all(np.diff(t_tab) > 0):
            raise MissingParameter(
                f"profile entry 't' must be strictly increasing, got {params['t']!r}"
            )
        mass_c = _pchip(t_tab, M_tab, "M")
        mass = _piecewise(t_tab, mass_c)
        mass_rate = _piecewise(t_tab, _derivative(mass_c))
        omega_fn = _piecewise(t_tab, _pchip(t_tab, w_tab, "omega"))
        t0 = max(t0, float(t_tab[0]))
        t1 = min(t1, float(t_tab[-1]))
        if not t1 > t0:
            raise OutOfDomain("tabulated window does not overlap [t0, t1]")

    e1, e2 = _field_fn(params, "E1", t_tab), _field_fn(params, "E2", t_tab)
    sample = np.linspace(t0, t1, _POSITIVITY_SAMPLES)
    M_s = np.asarray(mass(sample), dtype=float)
    w_s = np.asarray(omega_fn(sample), dtype=float)
    if not (np.all(M_s > 0.0) and np.all(np.isfinite(M_s))):
        raise NonPositiveMassOrFrequency("M(t) must be finite and > 0 on the window")
    if not (np.all(w_s > 0.0) and np.all(np.isfinite(w_s))):
        raise NonPositiveMassOrFrequency("omega(t) must be finite and > 0 on the window")

    profile = ParameterProfile(
        kind=kind,
        q=float(q),
        B=float(B),
        kappa=float(kappa),
        t0=float(t0),
        t1=float(t1),
        mass=mass,
        mass_rate=mass_rate,
        omega=omega_fn,
        efield1=e1,
        efield2=e2,
        params=params,
    )
    # omega^2 and omega_c^2 overflow or underflow near the ends of the float range
    with np.errstate(over="ignore"):
        Om_s = profile.Omega(sample)
    if not (np.all(Om_s > 0.0) and np.all(np.isfinite(Om_s))):
        raise NonPositiveMassOrFrequency(
            "Omega(t) = sqrt(omega^2 + (q B / M)^2 / 4) must be finite and > 0 on the "
            "window: 'omega' or q B / M is too large or too small to square"
        )
    # |E|^2 and the drive energy, formed as spectrum forms them, on the sample
    # and at a field table's own samples (a non-finite |E|^2 spoils both)
    if t_tab is not None:
        sample = np.concatenate((sample, t_tab[(t_tab >= t0) & (t_tab <= t1)]))
    with np.errstate(all="ignore"):
        e_sq = profile.efield_sq(sample)
        drive = np.float64(q) ** 2 * e_sq / (2.0 * mass(sample) * omega_fn(sample))
    if not np.all(np.isfinite(drive)):
        e1_max, e2_max = np.max(np.abs(e1(sample))), np.max(np.abs(e2(sample)))
        name = "q" if np.all(np.isfinite(e_sq)) else "E1" if e1_max >= e2_max else "E2"
        raise MissingParameter(
            f"profile entry {name!r} is too large: |E|^2 = E1^2 + E2^2 or the drive energy "
            "q^2 |E|^2 / (2 M omega) leaves the double range on the window"
        )
    return profile


def profile_to_json(profile: ParameterProfile) -> str:
    """Serialize a profile to the CLI JSON schema."""
    params = {
        k: (v.tolist() if isinstance(v, np.ndarray) else v)
        for k, v in profile.params.items()
    }
    return json.dumps(
        {
            "kind": profile.kind,
            "q": profile.q,
            "B": profile.B,
            "kappa": profile.kappa,
            "params": params,
            "t0": profile.t0,
            "t1": profile.t1,
        },
        indent=2,
        sort_keys=True,
    )


def profile_from_json(text: str) -> ParameterProfile:
    """Parse the CLI JSON schema into a profile."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MissingParameter(f"profile JSON does not parse: {exc}") from exc
    return profile_from_doc(doc)


def profile_from_doc(doc) -> ParameterProfile:
    """The profile of an already parsed CLI JSON document."""
    if not isinstance(doc, dict):
        raise MissingParameter("profile JSON must be an object")
    if "kind" not in doc:
        raise MissingParameter("profile JSON needs a 'kind' entry")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise MissingParameter(f"profile 'params' must be an object, got {params!r}")
    entries = {k: doc[k] for k in ("q", "B", "kappa", "t0", "t1") if k in doc}
    return make_profile(doc["kind"], params, **entries)
