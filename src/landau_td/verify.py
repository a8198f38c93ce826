"""Cross-cutting numerical verification checks.

Each check packages one falsifiable claim about the rest of the package as
a :class:`CheckReport`:

- ``orthonormality_check``: Gram matrix of the polar eigenfunctions by one
  exact 2D rule: Gauss-Laguerre with n_max + 1 nodes in the envelope
  variable u = kappa r^2 / rho^2 (each integrand is e^-u times a polynomial
  of degree <= 2 n_max) and the trapezoid on 2 n_max + 1 angles (exact for
  every angular harmonic difference present).
- ``schrodinger_residual_check``: pointwise residual ``i d(psi)/dt - H psi``
  of the phased solution, with the time derivative by central difference
  and spatial derivatives by 6th-order stencils.  Run once per phase
  convention (integrated, halved closed form, zeroed control).
- ``lr_invariant_check``: transport equation dI/dt + (1/i)[I, H] = 0 in the
  basis frozen at the evaluation time.  The invariant at displaced times is
  rebuilt from the frozen canonical matrices with scalar coefficients, so
  the central difference acts on coefficients, not on a rotating basis.
- ``algebra_check``: ladder, rotation, su(2) and su(1,1) commutators plus
  the su(1,1) Casimir on the truncated two-mode basis.
- ``moment_problem_check``: weight-function moments of all orders from one
  evaluation on a graded composite Gauss grid, certified by per-panel error
  estimates, against their factorial/Gamma targets (the scalar content of
  the resolution-of-identity claims).

All finite-difference steps and quadrature orders are fixed and recorded in
the report details, so a report is a pure function of its inputs.  Interior
blocks exclude two shells below the truncation edge throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss, legval
from scipy import sparse

from .auxode import AuxiliarySolution, solve_ep_numeric
from .coherent import WeightSpec, weight_spec
from .errors import CutoffTooSmall, IntegralNonConvergent, StepUnderflow
from .profiles import ParameterProfile, make_profile
from .spectrum import (
    HelicityQuanta,
    _drive_energy,
    _frozen,
    basis_index,
    basis_labels,
    build_operator_matrices,
    interior_mask,
    phase_gamma,
    wavefunction_polar,
)

__all__ = [
    "CheckReport",
    "orthonormality_check",
    "schrodinger_residual_check",
    "lr_invariant_check",
    "algebra_check",
    "moment_problem_check",
    "standard_suite",
    "reports_to_json",
]

# 6th-order central stencils on 7 points
_C2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_C1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_OFFSETS = np.arange(-3, 4, dtype=float)

_INTERIOR_BAND = 2


@dataclass
class CheckReport:
    """Outcome of one verification check.

    ``passed`` is always ``max_residual <= tolerance``; ``details`` is a
    list of plain dictionaries (one row per sub-result) suitable for JSON.
    """

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    details: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


def _make_report(name: str, max_residual: float, tol: float, details: List[Dict]) -> CheckReport:
    max_residual = float(max_residual)
    return CheckReport(
        name=name,
        max_residual=max_residual,
        tolerance=float(tol),
        passed=bool(max_residual <= tol),
        details=details,
    )


def _json_scalar(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.bool_):
        return bool(x)
    raise TypeError(f"not JSON-serializable: {type(x)!r}")


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    """Serialize a list of reports as a deterministic JSON array."""
    payload = [r.to_dict() for r in reports]
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_scalar)


def _interior_entries(mat, keep: np.ndarray) -> np.ndarray:
    """Stored entries of the interior block of ``mat`` (rows and columns
    where ``keep``), row by row with each row's columns ascending: the data
    of ``mat[idx][:, idx]`` after ``sum_duplicates``, for a matrix that
    stores each entry once, as every sparse product and sum does."""
    mat = mat.tocsr()
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    rows = np.repeat(keep, np.diff(mat.indptr))
    return mat.data[rows & keep[mat.indices]]


def _max_abs(entries: np.ndarray) -> float:
    return float(np.max(np.abs(entries))) if entries.size else 0.0


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------

def orthonormality_check(
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    n_max: int = 3,
    tol: float = 1e-12,
) -> CheckReport:
    """Gram-matrix orthonormality of all eigenfunctions with n+, n- <= n_max.

    The quadrature is exact, so the residual is roundoff.  At one time t the
    chirp exp(i M rho' r^2 / 2 rho) cancels in conj(phi_a) phi_b, and in
    u = kappa r^2 / rho^2 (area element (rho^2 / 2 kappa) du dtheta) an
    integrand with equal l is e^-u times u^|l| L_na^|l|(u) L_nb^|l|(u), a
    polynomial of degree |l| + na + nb <= 2 n_max.  Gauss-Laguerre with
    n_max + 1 nodes integrates e^-u times any polynomial of degree up to
    2 n_max + 1 exactly; its weights carry the e^u that undoes the
    wavefunctions' own e^-u.  The angular factor is exp(i (lb - la) theta)
    with |lb - la| <= 2 n_max, and the trapezoid on 2 n_max + 1 angles sums
    it to zero for every nonzero such difference, so pairs with unequal l
    vanish whatever the radial sum.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    states = [
        HelicityQuanta(np_, nm_)
        for np_ in range(n_max + 1)
        for nm_ in range(n_max + 1)
    ]
    rho = float(aux.rho_at(t))
    kap = profile.kappa
    u, w_u = laggauss(n_max + 1)
    r = rho * np.sqrt(u / kap)
    n_angular = 2 * n_max + 1
    theta = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    w2 = (rho * rho / (2.0 * kap)) * (w_u * np.exp(u))[:, None] * (2.0 * math.pi / n_angular)
    phis = np.array(
        [
            wavefunction_polar(q, profile, aux, t, r[:, None], theta[None, :])
            for q in states
        ]
    )
    gram = np.einsum("ij,aij,bij->ab", w2, phis.conj(), phis)
    residual = np.max(np.abs(gram - np.eye(len(states))))
    details = [
        {"states": len(states), "radial_nodes": n_max + 1, "angular_nodes": n_angular}
    ]
    return _make_report("orthonormality", residual, tol, details)


# ---------------------------------------------------------------------------
# Schroedinger residual
# ---------------------------------------------------------------------------

def _time_step(profile: ParameterProfile, t: float) -> float:
    h = 1e-5 * profile.span
    if t + h == t or t - h == t:
        raise StepUnderflow(
            f"time step {h:.3e} is below the floating-point resolution at t = {t}"
        )
    return h


def schrodinger_residual_check(
    q: HelicityQuanta,
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    sample_points: Sequence[Tuple[float, float, float]],
    tol: float = 1e-4,
) -> CheckReport:
    """Residual max |i d(psi)/dt - H psi| / max |psi| at sample points.

    ``sample_points`` is a sequence of (t, r, theta) triples strictly inside
    the domain (r > 0, t away from the solution grid's ends by the time step).  The
    residual is evaluated under three phase conventions: the integrated
    phase (authoritative), the halved-first-term closed form (comparison),
    and gamma = 0 (control).  ``max_residual`` reports the integrated one;
    all three appear in the details.  The phase trace on (t - h, t, t + h)
    depends on t alone, so samples at one time share one trace.
    """
    samples = list(sample_points)
    if not samples:
        raise ValueError("need at least one sample point")
    conventions = ("integrated", "closed_form", "zeroed")
    resid = {c: [] for c in conventions}
    amp = []
    steps_r = []
    h_theta = 0.02
    h_t = None
    traces = {}

    for (t, r, theta) in samples:
        t, r, theta = float(t), float(r), float(theta)
        if r <= 0.0:
            raise ValueError("sample radius must be positive")
        h_t = _time_step(profile, t)

        rho, _, M = _frozen(profile, aux, t)
        Om = float(profile.Omega(t))
        omega_c = float(profile.omega_c(t))
        drive = _drive_energy(profile, t)

        h_r = 0.01 * rho / math.sqrt(profile.kappa)
        if r - 3.0 * h_r <= 0.0:
            h_r = 0.25 * r
        steps_r.append(h_r)

        psi_r = wavefunction_polar(q, profile, aux, t, r + h_r * _OFFSETS, theta)
        psi_th = wavefunction_polar(q, profile, aux, t, r, theta + h_theta * _OFFSETS)
        psi_0 = psi_r[3]
        d2r = _C2 @ psi_r / h_r**2
        d1r = _C1 @ psi_r / h_r
        d2t = _C2 @ psi_th / h_theta**2
        d1t = _C1 @ psi_th / h_theta
        laplacian = d2r + d1r / r + d2t / r**2
        # L_z is -i d/dtheta (eigenvalue n+ - n- on exp(i(n+ - n-)theta)),
        # and H holds +(omega_c/2) L_z = -(omega_c/2) i d/dtheta
        h_psi = (
            -laplacian / (2.0 * M)
            + 0.5 * M * Om * Om * r * r * psi_0
            - 0.5 * omega_c * (1j * d1t)
            - drive * psi_0
        )

        if t not in traces:
            traces[t] = phase_gamma(q, profile, aux, np.array([t - h_t, t, t + h_t]))
        trace = traces[t]
        psi_minus = wavefunction_polar(q, profile, aux, t - h_t, r, theta)
        psi_plus = wavefunction_polar(q, profile, aux, t + h_t, r, theta)
        phases = {
            "integrated": trace.gamma - trace.gamma[1],
            "closed_form": trace.gamma_closed_form - trace.gamma_closed_form[1],
            "zeroed": np.zeros(3),
        }
        for conv in conventions:
            g = phases[conv]
            dpsi_dt = (
                np.exp(1j * g[2]) * psi_plus - np.exp(1j * g[0]) * psi_minus
            ) / (2.0 * h_t)
            resid[conv].append(abs(1j * dpsi_dt - h_psi))
        amp.append(abs(psi_0))

    scale = max(amp)
    rel = {c: max(resid[c]) / scale for c in conventions}
    details = [{"convention": c, "residual": float(rel[c])} for c in conventions]
    details.append(
        {
            "samples": len(samples),
            "step_t": float(h_t),
            "step_theta": h_theta,
            "step_r": [float(h) for h in steps_r],
        }
    )
    return _make_report("schrodinger_residual", rel["integrated"], tol, details)


# ---------------------------------------------------------------------------
# invariant transport equation
# ---------------------------------------------------------------------------

def lr_invariant_check(
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    t: float,
    cutoff: int = 40,
    tol: float = 1e-6,
) -> CheckReport:
    """Frobenius residual of dI/dt + (1/i)[I, H] on the interior block.

    All operators are expressed in the eigenbasis frozen at time t.  In
    that basis I(t) is exactly diagonal, while I at displaced times is
    rebuilt from the frozen canonical matrices,

        I(t') = 1/2 [ (kappa^2/rho'^2 + (M' rho_dot')^2)(x^2 + y^2)
                      + rho'^2 (px^2 + py^2)
                      - M' rho' rho_dot' ({x,px} + {y,py}) ],

    so the central time difference acts on scalar coefficients only.  The
    sums x^2 + y^2 and px^2 + py^2 are the ones ``build_operator_matrices``
    formed for H.  I(t) is diag(nu), so [I, H] is formed on H's stored
    entries as nu_i H_ij - H_ij nu_j (the single products a sparse product
    forms; exact zeros not stored), and [I, L_z], of two diagonal matrices,
    is zero by construction: ``lz_commutator`` is reported as 0.  The
    residual is reported relative to the Frobenius norm of I.
    """
    if cutoff < 10:
        raise CutoffTooSmall(f"cutoff must be >= 10, got {cutoff}")
    h = _time_step(profile, t)

    mats = build_operator_matrices(profile, aux, t, cutoff)
    x, y, px, py, ham, inv = (mats[k] for k in ("x", "y", "px", "py", "H", "I"))
    q2, p2 = mats["x^2 + y^2"], mats["px^2 + py^2"]
    kap = profile.kappa

    cross = x @ px + px @ x + y @ py + py @ y
    # sorted once, the sums below take scipy's canonical path and leave the
    # interior reader nothing to sort; no entry changes
    cross.sort_indices()

    def invariant_at(tp: float):
        rho, rho_dot, mass = _frozen(profile, aux, tp)
        a = kap * kap / rho**2 + (mass * rho_dot) ** 2
        return 0.5 * (a * q2 + rho**2 * p2 - mass * rho * rho_dot * cross)

    didt = (invariant_at(t + h) - invariant_at(t - h)) / (2.0 * h)
    nu = inv.diagonal()
    nu_row = np.repeat(nu, np.diff(ham.indptr))
    commutator = sparse.csr_matrix(
        ((nu_row * ham.data - ham.data * nu[ham.indices]) / 1j, ham.indices, ham.indptr),
        shape=ham.shape,
        copy=True,
    )
    commutator.eliminate_zeros()

    keep = interior_mask(cutoff, _INTERIOR_BAND)

    def frobenius(mat) -> float:
        """Frobenius norm of the interior block: the 2-norm of its stored entries."""
        return float(np.linalg.norm(_interior_entries(mat, keep)))

    inv_norm = frobenius(inv)
    rel = frobenius(didt + commutator) / inv_norm

    details = [
        {
            "step_t": float(h),
            "band": _INTERIOR_BAND,
            "interior_dim": int(np.count_nonzero(keep)),
            "invariant_norm": inv_norm,
            "transport_norm": frobenius(didt),
            "commutator_norm": frobenius(commutator),
            "frozen_reconstruction": _max_abs(_interior_entries(invariant_at(t) - inv, keep)),
            "lz_commutator": 0.0,
        }
    ]
    return _make_report("lr_invariant", rel, tol, details)


# ---------------------------------------------------------------------------
# commutator algebra
# ---------------------------------------------------------------------------

def _algebra_fixture():
    """Generic profile and off-equilibrium aux solution for the algebra run.

    The commutation relations hold for any (rho, rho_dot, M, kappa); an
    oscillating rho with rho_dot != 0 exercises the full ladder inversion
    rather than the stationary special case.
    """
    profile = make_profile(
        "constant",
        {"M": 1.0, "omega": 1.0, "E1": 0.0, "E2": 0.0},
        q=1.0,
        B=0.8,
        kappa=1.3,
        t0=0.0,
        t1=4.0,
    )
    grid = np.linspace(0.0, 4.0, 161)
    aux = solve_ep_numeric(profile, 1.25, 0.2, grid)
    return profile, aux, 1.7


def algebra_check(cutoff: int = 20, tol: float = 1e-10) -> CheckReport:
    """Commutator and Casimir identities on the truncated two-mode basis.

    Checks the canonical pairs, the rotation generator acting on the
    helicity ladders ([Lz, a+-] = -+a+-), the su(2) and su(1,1) triples,
    [I, Lz] = 0, the su(1,1) Casimir K0^2 - (K+K- + K-K+)/2 against
    (l+1)(l-1)/4 on fixed-l subspaces, and the lowest nontrivial su(2)
    raising amplitude.  Residuals are interior-block max-abs values.
    """
    if cutoff < 6:
        raise CutoffTooSmall(f"cutoff must be >= 6, got {cutoff}")
    profile, aux, t = _algebra_fixture()
    mats = build_operator_matrices(profile, aux, t, cutoff)
    dim = (cutoff + 1) ** 2
    ident = sparse.identity(dim, format="csr", dtype=complex)
    keep = interior_mask(cutoff, _INTERIOR_BAND)

    def comm(a, b):
        return a @ b - b @ a

    labels = basis_labels(cutoff)
    ell = labels[:, 0] - labels[:, 1]
    casimir = (
        mats["K0"] @ mats["K0"]
        - 0.5 * (mats["K+"] @ mats["K-"] + mats["K-"] @ mats["K+"])
    )
    casimir_target = sparse.diags(0.25 * (ell.astype(float) ** 2 - 1.0)).tocsr()

    items = [
        ("[a+, a+dag] - 1", comm(mats["a+"], mats["a+dag"]) - ident),
        ("[a-, a-dag] - 1", comm(mats["a-"], mats["a-dag"]) - ident),
        ("[a+, a-]", comm(mats["a+"], mats["a-"])),
        ("[a+, a-dag]", comm(mats["a+"], mats["a-dag"])),
        ("[x, px] - i", comm(mats["x"], mats["px"]) - 1j * ident),
        ("[y, py] - i", comm(mats["y"], mats["py"]) - 1j * ident),
        ("[x, y]", comm(mats["x"], mats["y"])),
        ("[px, py]", comm(mats["px"], mats["py"])),
        ("[x, py]", comm(mats["x"], mats["py"])),
        ("[y, px]", comm(mats["y"], mats["px"])),
        ("[Lz, a+] + a+", comm(mats["Lz"], mats["a+"]) + mats["a+"]),
        ("[Lz, a-] - a-", comm(mats["Lz"], mats["a-"]) - mats["a-"]),
        ("[J3, J+] - J+", comm(mats["J3"], mats["J+"]) - mats["J+"]),
        ("[J3, J-] + J-", comm(mats["J3"], mats["J-"]) + mats["J-"]),
        ("[J+, J-] - 2 J3", comm(mats["J+"], mats["J-"]) - 2.0 * mats["J3"]),
        ("[K0, K+] - K+", comm(mats["K0"], mats["K+"]) - mats["K+"]),
        ("[K0, K-] + K-", comm(mats["K0"], mats["K-"]) + mats["K-"]),
        ("[K-, K+] - 2 K0", comm(mats["K-"], mats["K+"]) - 2.0 * mats["K0"]),
        ("[I, Lz]", comm(mats["I"], mats["Lz"])),
        ("casimir - (l^2 - 1)/4", casimir - casimir_target),
    ]
    details = [
        {"identity": name, "residual": _max_abs(_interior_entries(mat, keep))}
        for name, mat in items
    ]

    jp_amp = mats["J+"][basis_index(1, 0, cutoff), basis_index(0, 1, cutoff)]
    details.append(
        {"identity": "J+ amplitude (0,1) -> (1,0)", "residual": float(abs(jp_amp - 1.0))}
    )

    worst = max(row["residual"] for row in details)
    return _make_report("algebra", worst, tol, details)


# ---------------------------------------------------------------------------
# moment problems
# ---------------------------------------------------------------------------

_PANEL_NODES, _PANEL_WEIGHTS = leggauss(16)
# rows mapping a panel's 16 samples to its two highest Legendre coefficients
_LEGENDRE_TAIL = np.array(
    [(j + 0.5) * _PANEL_WEIGHTS * legval(_PANEL_NODES, np.eye(16)[j]) for j in (14, 15)]
)
_PANEL_BUDGET = 1024


def _initial_panels(x_max: Optional[float]) -> np.ndarray:
    """Rows (lo, hi, mapped) of composite Gauss panels on binary octaves.

    The octaves are graded down to 2^-40 (times x_max on a finite support);
    on the half line they stop at 2^8, and one panel in u = 1/x (mapped = 1)
    covers the tail, exactly for weights with a power-law tail.
    """
    top = 0.0 if x_max is not None else 8.0
    edges = (x_max or 1.0) * np.concatenate(([0.0], 2.0 ** np.arange(-40.0, top + 1.0)))
    panels = np.stack([edges[:-1], edges[1:], np.zeros(edges.size - 1)], axis=1)
    return panels if x_max is not None else np.vstack([panels, [0.0, 2.0**-top, 1.0]])


def moment_problem_check(spec: WeightSpec, m_max: int = 6, tol: float = 1e-6) -> CheckReport:
    """Weight-function moments against their targets on one certified grid.

    One evaluator call covers all nodes of the panel set, and each order m
    takes its moment (x^(m + power_offset) times the weight over (0, x_max
    or infinity)) as a dot product with the samples, formed in logs and
    shifted by the order's log target before they are exponentiated, so that
    every order's moment is about 1.  A panel's error estimate is the size
    of its two highest Legendre coefficients.  While an order's summed
    estimate exceeds max(tol/2, 1e-9) of its moment, panels over an equal
    share of that bar are bisected and the grid evaluated again, until the
    panel budget raises IntegralNonConvergent.  Each order's relative error
    against ``spec.moment_target(m)`` is held to ``tol``.
    """
    m_hi = m_max if spec.m_max is None else min(m_max, spec.m_max)
    if m_hi < 0:
        raise ValueError(f"no admissible moment orders in [0, {m_hi}]")
    orders = np.arange(m_hi + 1)
    log_targets = np.array([float(spec.moment_target(int(m))) for m in orders])
    powers = (orders + spec.power_offset)[:, None, None]
    panels = _initial_panels(spec.x_max)
    while True:
        lo, hi, mapped = panels[:, :1], panels[:, 1:2], panels[:, 2:] > 0
        v = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _PANEL_NODES
        x = np.where(mapped, 1.0 / v, v)
        jac = 0.5 * (hi - lo) / np.where(mapped, v * v, 1.0)
        log_weight = np.asarray(spec.evaluator(x.ravel()), dtype=float).reshape(x.shape)
        # samples[order, panel, node] over the order's target: each panel
        # integral is a dot product, and a weight of 0 (log -inf) a zero sample
        samples = np.exp(log_weight + np.log(jac) + powers * np.log(x) - log_targets[:, None, None])
        if not np.all(np.isfinite(samples)):
            raise IntegralNonConvergent("weight function is not finite on the quadrature nodes")
        values = samples.sum(axis=1) @ _PANEL_WEIGHTS
        errors = np.abs(samples @ _LEGENDRE_TAIL.T).sum(axis=-1)
        err_total = errors.sum(axis=1)
        scale = np.maximum(1.0, np.abs(values))
        # the estimate is conservative for smooth integrands, so the
        # certification bar never drops below 1e-9 relative
        bar = max(0.5 * tol, 1e-9) * scale
        missed = err_total > bar
        if not np.any(missed):
            break
        split = np.any(errors[missed] > bar[missed, None] / len(panels), axis=0)
        if len(panels) + np.count_nonzero(split) > _PANEL_BUDGET:
            worst = int(np.argmax(err_total / bar))
            raise IntegralNonConvergent(
                f"moment m = {orders[worst]}: panel error estimate "
                f"{err_total[worst]:.3e} above the certification bar "
                f"{bar[worst]:.3e} with {len(panels)} panels"
            )
        left, right = panels[split].copy(), panels[split].copy()
        left[:, 1] = right[:, 0] = 0.5 * (panels[split, 0] + panels[split, 1])
        panels = np.vstack([panels[~split], left, right])

    rel = np.abs(values - 1.0) / scale
    targets = np.exp(log_targets)
    details = [
        {
            "order": int(m),
            "power": int(m) + spec.power_offset,
            "value": float(values[i] * targets[i]),
            "target": float(targets[i]),
            "rel_error": float(rel[i]),
            "quad_error": float(err_total[i] * targets[i]),
        }
        for i, m in enumerate(orders)
    ]
    return _make_report(f"moments_{spec.family}", float(np.max(rel)), tol, details)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def standard_suite(
    profile: ParameterProfile,
    aux: AuxiliarySolution,
    checks: Optional[Sequence[str]] = None,
) -> List[CheckReport]:
    """Run a fixed battery of checks against one (profile, aux) pair.

    ``checks`` selects a subset of {"orthonormality", "schrodinger",
    "invariant", "algebra", "moments"}; the default runs all five.  Sizes
    are chosen for interactive latency rather than maximum stringency.
    """
    known = ("orthonormality", "schrodinger", "invariant", "algebra", "moments")
    if checks is None:
        checks = known
    unknown = sorted(set(checks) - set(known))
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")

    t_mid = 0.5 * (profile.t0 + profile.t1)
    reports: List[CheckReport] = []
    if "orthonormality" in checks:
        reports.append(orthonormality_check(profile, aux, t_mid, n_max=2, tol=1e-12))
    if "schrodinger" in checks:
        scale = float(aux.rho_at(t_mid)) / math.sqrt(profile.kappa)
        samples = [
            (t_mid, 0.7 * scale, 0.4),
            (t_mid, 1.2 * scale, 2.0),
        ]
        reports.append(
            schrodinger_residual_check(
                HelicityQuanta(1, 0), profile, aux, samples, tol=1e-3
            )
        )
    if "invariant" in checks:
        reports.append(lr_invariant_check(profile, aux, t_mid, cutoff=24, tol=1e-6))
    if "algebra" in checks:
        reports.append(algebra_check(cutoff=16, tol=1e-10))
    if "moments" in checks:
        reports.append(
            moment_problem_check(weight_spec("canonical", {}), m_max=6, tol=1e-10)
        )
        reports.append(
            moment_problem_check(
                weight_spec("su2_pa", {"j": 1.5, "p": 1}), m_max=6, tol=1e-10
            )
        )
    return reports
