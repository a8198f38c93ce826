"""Explicit Runge-Kutta method of order 8(5,3) with 7th-order dense output.

DOP853 of Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I: Nonstiff Problems*, Sec. II.10, run on Python floats or complex
numbers: the systems solved here have two components, where array calls
would cost more than the arithmetic.  The step-size control, the
initial-step rule and the dense output follow scipy's ``DOP853`` (BSD); the
tableau is the one in its ``dop853_coefficients``, kept sparse.

One run (``solve_ivp``) integrates forward over one interval and keeps, for
every accepted step, the seven rows F of the dense output, so that

    y(t_old + x h) = y_old + x (F0 + (1 - x) (F1 + x (F2 + (1 - x) (F3 + ...))))

reproduces the step between its two ends.

The step itself has no loop over stages or tableau rows.  On the first run
with a given number of components, ``_source`` writes one straight-line
function for a step attempt and one for its dense output, every stage and
component a local name and every coefficient a literal, and they are
compiled once per process.  Each weighted sum over the stages is written
out as sum() adds it, left to right from 0, with the zero coefficients left
out: while the stages are finite that is the same bits as the generic loop
over whole tableau rows, which the tests keep as the reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["Run", "solve_ivp"]

# the local error is kept below ATOL + RTOL |y|
RTOL = 1e-11
ATOL = 1e-13

# step-size control
SAFETY = 0.9
MIN_FACTOR = 0.2  # largest decrease of a step
MAX_FACTOR = 10.0  # largest increase of a step
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7

N_STAGES = 12
# with f(t + h, y_new) and the three extra stages of the dense output
N_STAGES_EXTENDED = 16

C = [
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
]

# the lower triangle of the tableau, row by row as {column: coefficient};
# row 12 gives the solution (B) and rows 13-15 the extra dense-output stages
_A_SPARSE = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    5: {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    6: {
        0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2,
    },
    7: {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    8: {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    9: {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    10: {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    11: {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    12: {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    13: {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3,
        12: -8.298e-3,
    },
    14: {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    15: {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
}

# error estimators of orders 5 and 3, over the 12 stages and f(t + h, y_new)
_E5_SPARSE = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}
# the order-3 estimator is B minus these
_E3_SHIFT = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}

# dense-output rows F3..F6 over all the stages (F0..F2 come from the step ends)
_D_SPARSE = (
    {
        0: -0.84289382761090128651353491142e1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e1,
        7: 0.23846676565120698287728149680e1,
        8: 0.21170345824450282767155149946e1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e2,
        14: -0.91946323924783554000451984436e1,
        15: -0.44360363875948939664310572000e1,
    },
    {
        0: 0.10427508642579134603413151009e2,
        5: 0.24228349177525818288430175319e3,
        6: 0.16520045171727028198505394887e3,
        7: -0.37454675472269020279518312152e3,
        8: -0.22113666853125306036270938578e2,
        9: 0.77334326684722638389603898808e1,
        10: -0.30674084731089398182061213626e2,
        11: -0.93321305264302278729567221706e1,
        12: 0.15697238121770843886131091075e2,
        13: -0.31139403219565177677282850411e2,
        14: -0.93529243588444783865713862664e1,
        15: 0.35816841486394083752465898540e2,
    },
    {
        0: 0.19985053242002433820987653617e2,
        5: -0.38703730874935176555105901742e3,
        6: -0.18917813819516756882830838328e3,
        7: 0.52780815920542364900561016686e3,
        8: -0.11573902539959630126141871134e2,
        9: 0.68812326946963000169666922661e1,
        10: -0.10006050966910838403183860980e1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e1,
        13: -0.60196695231264120758267380846e2,
        14: 0.84320405506677161018159903784e2,
        15: 0.11992291136182789328035130030e2,
    },
    {
        0: -0.25693933462703749003312586129e2,
        5: -0.15418974869023643374053993627e3,
        6: -0.23152937917604549567536039109e3,
        7: 0.35763911791061412378285349910e3,
        8: 0.93405324183624310003907691704e2,
        9: -0.37458323136451633156875139351e2,
        10: 0.10409964950896230045147246184e3,
        11: 0.29840293426660503123344363579e2,
        12: -0.43533456590011143754432175058e2,
        13: 0.96324553959188282948394950600e2,
        14: -0.39177261675615439165231486172e2,
        15: -0.14972683625798562581422125276e3,
    },
)


# the order-3 estimator over the same stages: B less the shift
_E3_SPARSE = {j: b - _E3_SHIFT.get(j, 0.0) for j, b in _A_SPARSE[N_STAGES].items()}
# the stages of a step that its dense output reads, f(t + h, y_new) included
_KEPT = sorted(
    {0, N_STAGES}
    | {j for s in range(N_STAGES + 1, N_STAGES_EXTENDED) for j in _A_SPARSE[s] if j <= N_STAGES}
    | {j for row in _D_SPARSE for j in row if j <= N_STAGES}
)


@dataclass
class Run:
    """One DOP853 run over [t[0], t[-1]].

    ``t`` are the step ends and ``y`` the states there (lists of floats or
    complex numbers); ``F[k]`` are the seven dense-output rows of step k,
    each with one entry per component.  ``nfev`` counts every call of the
    right-hand side, dense-output stages included, and ``n_rejected`` the
    attempts whose error estimate failed, so nfev = 2 + 12 (len(t) - 1 +
    n_rejected) + 3 (len(t) - 1); the 2 is 1 when no first step is probed
    (NaN first rates, or rates that overflow the norm).  ``status`` is 0
    when the run reached the end of its interval, 1 when y[0] left the band
    and -1 when the step size collapsed; ``message`` says which.
    """

    t: List[float]
    y: List[list]
    F: List[list]
    nfev: int
    n_rejected: int
    status: int
    message: str


def _rms(values: Sequence, scale: Sequence) -> float:
    """RMS norm of values / scale."""
    total = 0.0
    for v, s in zip(values, scale):
        v = v / s
        total += v.real * v.real + v.imag * v.imag
    return math.sqrt(total) / len(scale) ** 0.5


def _initial_step(fun, t0, y0, f0, interval) -> tuple:
    """First step size (Hairer, Norsett & Wanner, Sec. II.4) and the number
    of right-hand-side calls it took: one probe, none when there is no step
    to probe."""
    scale = [ATOL + abs(v) * RTOL for v in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0.0:  # NaN rates, or rates that overflow the norm: no step
        return h0, 0
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval), 1


# ---------------------------------------------------------------------------
# the straight-line step
# ---------------------------------------------------------------------------

def _sum(row: dict, i: int) -> str:
    """Source of sum(k_j[i] * row[j] for every stage j), as sum() adds it:
    left to right from 0.  Zero coefficients are left out, which keeps the
    bits while the stages are finite (x + ±0.0 is x, and the running sum
    from 0 is never -0.0)."""
    return "(0" + "".join(f" + k{j}_{i} * {c!r}" for j, c in sorted(row.items())) + ")"


def _source(n: int) -> str:
    """Source of ``attempt`` and ``dense`` for n components.  Stage j of
    component i is the local k<j>_<i>, the state y<i> at the step start
    and z<i> at its end."""
    comps = range(n)

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{i}, " for i in comps)

    def stage(s: int) -> str:
        args = ", ".join(f"y{i} + {_sum(_A_SPARSE[s], i)} * h" for i in comps)
        return f"    {names(f'k{s}_')}= fun(t + {C[s]!r} * h, [{args}])"

    kept = "".join(names(f"k{j}_") for j in _KEPT)
    new = ", ".join(f"y{i} + h * {_sum(_A_SPARSE[N_STAGES], i)}" for i in comps)
    lines = ["def attempt(fun, t, t_new, h, y, f):", f"    {names('y')}= y", f"    {names('k0_')}= f"]
    lines += [stage(s) for s in range(1, N_STAGES)]
    lines += [f"    y_new = [{new}]", f"    {names('z')}= y_new"]
    lines.append(f"    {names(f'k{N_STAGES}_')}= fun(t_new, y_new)")
    for i in comps:
        lines += [
            f"    sc = {ATOL!r} + max(abs(y{i}), abs(z{i})) * {RTOL!r}",
            f"    e5_{i} = {_sum(_E5_SPARSE, i)} / sc",
            f"    e3_{i} = {_sum(_E3_SPARSE, i)} / sc",
        ]
    # the loop adds these to 0.0, which leaves a sum of squares (never
    # -0.0) as it is
    err5, err3 = (
        " + ".join(f"(e{p}_{i}.real * e{p}_{i}.real + e{p}_{i}.imag * e{p}_{i}.imag)" for i in comps)
        for p in (5, 3)
    )
    lines.append(f"    return y_new, [{names(f'k{N_STAGES}_')}], {err5}, {err3}, ({kept})")

    lines += [
        "def dense(fun, t, h, y, y_new, stages):",
        f"    {names('y')}= y",
        f"    {names('z')}= y_new",
        f"    {kept}= stages",
    ]
    lines += [stage(s) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]
    lines += [f"    d{i} = z{i} - y{i}" for i in comps]
    rows = [
        names("d"),
        "".join(f"h * k0_{i} - d{i}, " for i in comps),
        "".join(f"2 * d{i} - h * (k{N_STAGES}_{i} + k0_{i}), " for i in comps),
    ] + ["".join(f"h * {_sum(row, i)}, " for i in comps) for row in _D_SPARSE]
    lines.append("    return [" + ", ".join(f"[{row}]" for row in rows) + "]")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _stepper(n: int) -> tuple:
    """(attempt, dense) for n components, compiled from ``_source`` on the
    first run with n components.

    ``attempt(fun, t, t_new, h, y, f)`` takes one step of size h = t_new - t
    from y, whose rates are f: it returns y_new, f(t_new, y_new), the squared
    order-5 and order-3 error sums over the components and the stages the
    dense output reads.  ``dense(fun, t, h, y, y_new, stages)`` adds the
    three extra stages and returns the step's seven dense-output rows.
    """
    namespace: dict = {}
    exec(compile(_source(n), f"<dop853 step, {n} components>", "exec"), namespace)
    return namespace["attempt"], namespace["dense"]


def solve_ivp(
    fun: Callable,
    t_span: Tuple[float, float],
    y0: Sequence,
    band: Optional[Tuple[float, float]] = None,
) -> Run:
    """Integrate y' = fun(t, y) from t_span[0] forward to t_span[1].

    ``fun`` takes a float time and a list of components and returns a
    sequence of their rates, one per component.  Steps are accepted while
    the error estimate keeps the local error below ATOL + RTOL |y|.  The run
    stops early (status 1) at the first step end where y[0] is outside the
    open ``band`` (lo, hi), and (status -1) when the step would have to
    shrink below ten spacings of floats at t.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    y = list(y0)
    n = len(y)
    f = list(fun(t, y))
    h_abs, probes = _initial_step(fun, t, y, f, t_end - t)
    attempt, dense = _stepper(n)
    nfev, n_rejected = 1 + probes, 0
    ts, ys, rows = [t], [y], []
    status, message = 0, "the run reached the end of its interval"
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # not >=: a NaN first step, from NaN rates, collapses too
            if not h_abs >= min_step:
                status = -1
                message = f"the step size fell to {h_abs:.3g}, below {min_step:.3g}, at t = {t!r}"
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            y_new, f_new, err5, err3, stages = attempt(fun, t, t_new, h, y, f)
            nfev += N_STAGES
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if status:
            break
        rows.append(dense(fun, t, h, y, y_new, stages))
        nfev += N_STAGES_EXTENDED - N_STAGES - 1
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        if band is not None and not band[0] < y[0] < band[1]:
            status = 1
            message = f"y[0] = {y[0]:.6g} left ({band[0]:.6g}, {band[1]:.6g}) at t = {t!r}"
            break
    return Run(t=ts, y=ys, F=rows, nfev=nfev, n_rejected=n_rejected, status=status, message=message)
