"""Shared test fixtures: one profile of each kind and a tight reference
integrator that the numeric routes are measured against, the maximum of a
pointwise residual, 60-digit mpmath values of the orthonormal Laguerre
and Hermite functions, and the invariant transport check formed by general
sparse products, which the package's check must match bit for bit."""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from landau_td.profiles import make_profile
from landau_td.spectrum import build_operator_matrices, interior_mask

_KNOTS = np.linspace(0.0, 12.0, 25)
_FIELD = {"E1": 0.2, "E2": -0.1}
# one profile of each kind on [0, 12], scaled like the README demo
KIND_PARAMS = {
    "constant": {"M": 1.0, "omega": 1.2, **_FIELD},
    "exponential-mass": {"M0": 1.2, "alpha": 0.05, "omega": 1.1, **_FIELD},
    "exponential-frequency": {"M": 1.0, "tau": 1.0, "alpha": 0.05, **_FIELD},
    "sinusoidal": {"M": 1.0, "omega0": 1.2, "depth": 0.3, "rate": 0.7, **_FIELD},
    "tabulated": {
        "t": _KNOTS,
        "M": 1.0 + 0.2 * np.sin(0.5 * _KNOTS),
        "omega": 1.1 + 0.2 * np.cos(0.5 * _KNOTS),
        **_FIELD,
    },
}


def kind_profile(kind):
    return make_profile(kind, KIND_PARAMS[kind], q=1.0, B=0.9, kappa=1.0, t0=0.0, t1=12.0)


def ep_rates(prof, t, rho, rho_dot):
    """(rho', rho'') of the auxiliary equation, from the profile's own
    Omega(t) and M'(t)."""
    M, Om = float(prof.mass(t)), float(prof.Omega(t))
    return [
        rho_dot,
        -(float(prof.mass_rate(t)) / M) * rho_dot - Om * Om * rho
        + prof.kappa**2 / (M * M * rho**3),
    ]


def max_residual(res):
    """Largest sample of a pointwise residual that is not NaN; NaN, without
    a warning, when every sample is."""
    res = res[~np.isnan(res)]
    return float(res.max()) if res.size else math.nan


def knot_restarted(rhs, y0, prof, grid):
    """DOP853 at rtol 1e-13 from grid[0] to grid[-1], restarted at every knot
    of the profile (where a tabulated profile is only C^1), sampled on the
    grid: shape (len(y0), grid.size).  A grid time on a knot is read from
    the piece that ends there."""
    grid = np.asarray(grid, dtype=float)
    knots = prof.knots
    breaks = np.concatenate(
        ([grid[0]], knots[(knots > grid[0]) & (knots < grid[-1])], [grid[-1]])
    )
    owner = np.clip(np.searchsorted(breaks, grid, side="left") - 1, 0, breaks.size - 2)
    out = np.empty((len(y0), grid.size), dtype=np.result_type(*y0, float))
    y = y0
    for k, (a, b) in enumerate(zip(breaks[:-1], breaks[1:])):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
        assert sol.status == 0, sol.message
        out[:, owner == k] = sol.sol(grid[owner == k])
        y = sol.y[:, -1]
    return out


@mpmath.workdps(60)
def laguerre_function_mp(n, alpha, u):
    """sqrt(n!/Gamma(n+alpha+1)) u^(alpha/2) e^(-u/2) L_n^alpha(u) to 60 digits."""
    u, alpha = mpmath.mpf(u), mpmath.mpf(alpha)
    norm = mpmath.sqrt(mpmath.factorial(n) / mpmath.gamma(n + alpha + 1))
    return norm * u ** (alpha / 2) * mpmath.exp(-u / 2) * mpmath.laguerre(n, alpha, u)


@mpmath.workdps(60)
def hermite_function_mp(n, x):
    """H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi)) to 60 digits."""
    x = mpmath.mpf(x)
    norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
    return mpmath.hermite(n, x) * mpmath.exp(-x * x / 2) / norm


def lr_invariant_reference(prof, aux, t, cutoff):
    """(max_residual, details row) of ``verify.lr_invariant_check`` by
    general sparse algebra on the ``build_operator_matrices`` output: the
    commutators as sparse products, the interior blocks copied out by fancy
    indexing and duplicate-summed."""
    h = 1e-5 * prof.span
    mats = build_operator_matrices(prof, aux, t, cutoff)
    x, y, px, py, ham, inv, lz = (mats[k] for k in ("x", "y", "px", "py", "H", "I", "Lz"))
    kap = prof.kappa

    q2 = x @ x + y @ y
    p2 = px @ px + py @ py
    cross = x @ px + px @ x + y @ py + py @ y

    def invariant_at(tp):
        rho, rho_dot = map(float, aux.envelope_fn(tp))
        mass = float(prof.mass(tp))
        a = kap * kap / rho**2 + (mass * rho_dot) ** 2
        return 0.5 * (a * q2 + rho**2 * p2 - mass * rho * rho_dot * cross)

    didt = (invariant_at(t + h) - invariant_at(t - h)) / (2.0 * h)
    commutator = (inv @ ham - ham @ inv) / 1j
    idx = np.nonzero(interior_mask(cutoff, 2))[0]

    def block(mat):
        return mat.tocsr()[idx][:, idx]

    def frobenius(mat):
        sub = block(mat)
        sub.sum_duplicates()
        return float(np.linalg.norm(sub.data))

    def max_abs(mat):
        sub = block(mat)
        return float(np.max(np.abs(sub.data))) if sub.nnz else 0.0

    inv_norm = frobenius(inv)
    row = {
        "step_t": float(h),
        "band": 2,
        "interior_dim": int(idx.size),
        "invariant_norm": inv_norm,
        "transport_norm": frobenius(didt),
        "commutator_norm": frobenius(commutator),
        "frozen_reconstruction": max_abs(invariant_at(t) - inv),
        "lz_commutator": max_abs(inv @ lz - lz @ inv),
    }
    return frobenius(didt + commutator) / inv_norm, row
