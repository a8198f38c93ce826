"""Shared test fixtures: one profile of each kind and a tight reference
integrator that the numeric routes are measured against, the maximum of a
pointwise residual, 60-digit mpmath values of the orthonormal Laguerre
and Hermite functions, the invariant transport check formed by general
sparse products, the generic DOP853 stepper, stage by stage over the dense
tableau rows, and the stacked dense-output evaluator read by fancy
indexing; the package's check, stepper and evaluator must match these bit
for bit."""

import functools
import math
import operator

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from landau_td import dop853
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


# the DOP853 tableau as dense rows, zeros included: row s of A has the s
# coefficients of the stages before it
def _dense_row(row, size):
    return [row.get(j, 0.0) for j in range(size)]


_A = [_dense_row(dop853._A_SPARSE.get(s, {}), s) for s in range(dop853.N_STAGES_EXTENDED)]
_B = _A[dop853.N_STAGES]
_E5 = _dense_row(dop853._E5_SPARSE, dop853.N_STAGES + 1)
_E3 = [b - dop853._E3_SHIFT.get(j, 0.0) for j, b in enumerate(_B)] + [0.0]
_D = [_dense_row(row, dop853.N_STAGES_EXTENDED) for row in dop853._D_SPARSE]


def _dot(values, coeffs):
    """sum(map(mul, values, coeffs)): left to right from 0, on every Python
    version (sum() of floats compensates from 3.12 on)."""
    return functools.reduce(operator.add, map(operator.mul, values, coeffs), 0)


def _stage(fun, t, y, K, s, h):
    """Stage s: the right-hand side at t + C[s] h from the stages before it.
    ``K`` holds the stages per component."""
    a = _A[s]
    return fun(t + dop853.C[s] * h, [yi + _dot(Ki, a) * h for yi, Ki in zip(y, K)])


def dop853_reference(fun, t_span, y0, band=None):
    """``dop853.solve_ivp`` as a generic loop: every stage, the solution,
    the error estimates and the dense rows are sums over whole tableau rows,
    zero coefficients included.  Same control, same ``Run``."""
    ode = dop853
    t, t_end = float(t_span[0]), float(t_span[1])
    y = list(y0)
    n = len(y)
    f = list(fun(t, y))
    h_abs, probes = ode._initial_step(fun, t, y, f, t_end - t)
    nfev, n_rejected = 1 + probes, 0
    ts, ys, rows = [t], [y], []
    status, message = 0, "the run reached the end of its interval"
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                status = -1
                message = f"the step size fell to {h_abs:.3g}, below {min_step:.3g}, at t = {t!r}"
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            K = [[fi] for fi in f]
            for s in range(1, ode.N_STAGES):
                for Ki, ki in zip(K, _stage(fun, t, y, K, s, h)):
                    Ki.append(ki)
            y_new = [yi + h * _dot(Ki, _B) for yi, Ki in zip(y, K)]
            f_new = list(fun(t_new, y_new))
            nfev += ode.N_STAGES
            for Ki, fi in zip(K, f_new):
                Ki.append(fi)
            scale = [ode.ATOL + max(abs(a), abs(b)) * ode.RTOL for a, b in zip(y, y_new)]
            err5 = err3 = 0.0
            for Ki, sc in zip(K, scale):
                e5 = _dot(Ki, _E5) / sc
                e3 = _dot(Ki, _E3) / sc
                err5 += e5.real * e5.real + e5.imag * e5.imag
                err3 += e3.real * e3.real + e3.imag * e3.imag
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = ode.MAX_FACTOR
                else:
                    factor = min(ode.MAX_FACTOR, ode.SAFETY * error_norm**ode.ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(ode.MIN_FACTOR, ode.SAFETY * error_norm**ode.ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if status:
            break
        for s in range(ode.N_STAGES + 1, ode.N_STAGES_EXTENDED):
            for Ki, ki in zip(K, _stage(fun, t, y, K, s, h)):
                Ki.append(ki)
        nfev += ode.N_STAGES_EXTENDED - ode.N_STAGES - 1
        dy = [b - a for a, b in zip(y, y_new)]
        rows.append(
            [
                dy,
                [h * Ki[0] - d for Ki, d in zip(K, dy)],
                [2 * d - h * (Ki[ode.N_STAGES] + Ki[0]) for Ki, d in zip(K, dy)],
            ]
            + [[h * _dot(Ki, row) for Ki in K] for row in _D]
        )
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if band is not None and not band[0] < y[0] < band[1]:
            status = 1
            message = f"y[0] = {y[0]:.6g} left ({band[0]:.6g}, {band[1]:.6g}) at t = {t!r}"
            break
    return ode.Run(t=ts, y=ys, F=rows, nfev=nfev, n_rejected=n_rejected, status=status, message=message)


def stacked_dense_reference(pieces):
    """``auxode._stacked_dense`` as first written, array path only: the
    steps' rows stacked as (steps, 7, n_state) in Horner order and read by
    the fancy indices F[k, i], the states at the step starts by y_old[k].
    Times of any shape, 0-d included, map to an array of shape
    (n_state, *t.shape).  Returns (evaluator, step ends)."""
    ends = np.array(pieces[0].t[:1] + [t for run in pieces for t in run.t[1:]])
    t_old, h = ends[:-1], np.diff(ends)
    y_old = np.array([y for run in pieces for y in run.y[:-1]])
    # Horner order: the last coefficient row first
    F = np.array([rows for run in pieces for rows in run.F])[:, ::-1]
    last = h.size - 1

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        k = np.clip(np.searchsorted(ends, flat, side="left") - 1, 0, last)
        x = ((flat - t_old[k]) / h[k])[:, None]
        y = np.zeros((flat.size, y_old.shape[1]), dtype=y_old.dtype)
        for i in range(F.shape[1]):
            y += F[k, i]
            y *= x if i % 2 == 0 else 1 - x
        y += y_old[k]
        return y.T.reshape(y_old.shape[1], *t.shape)

    return evaluate, ends
