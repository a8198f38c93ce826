"""Seeded workloads of the landau_td benchmark.

Each workload has a generator that turns ``(seed, n_rounds)`` into a list of
plain, JSON-serialisable op inputs (stdlib ``random`` only, so the inputs and
their digest do not depend on the numpy version), and an op function that
runs one input against ``landau_td`` and checks the outputs with the
workload's oracle.  An op returns an :class:`Outcome`; an exception raised by
the package, typed ``LandauError`` or not, is turned into a failed outcome by
the caller.

Op lists are built from rounds: a round is the smallest block that keeps the
workload's mix fixed (one op per profile kind, one near-edge coherent op per
five, one op per CLI verb, one op per moment family), so every run of every
seed has the same mix and only the labels inside it change.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

PROFILE_KINDS = (
    "constant",
    "exponential-mass",
    "exponential-frequency",
    "sinusoidal",
    "tabulated",
)
COHERENT_FAMILIES = (
    "canonical",
    "pa_canonical",
    "su2",
    "su2_pa",
    "bg",
    "perelomov",
    "pa_bg",
    "pa_perelomov",
)
CLI_VERBS = ("aux", "classical", "spectrum", "wavefunction", "coherent", "verify")
SU11_K = (0.5, 1.0, 1.5, 2.0)  # two-mode realisation needs 2k - 1 integer

NORM_BAR = 1e-12
OVERLAP_BAR = 1e-10
# moment-problem tolerances of the acceptance tests
MOMENT_TOL = {"su2_pa": 1e-5, "bg_pa": 1e-4, "perelomov_pa": 1e-3}
MOMENT_M_MAX = {"su2_pa": 6, "bg_pa": 6, "perelomov_pa": 8}

# Known defects of the package at the time the benchmark was written.  They
# are counted in ``failed`` and ``ok_rate``; a failure explained by one of
# them does not make the run incorrect, any other failure does.
KNOWN_DEFECTS = {
    "canonical_cutoff": (
        "canonical_state with |z| above about 7.7 stops its cutoff before the "
        "Poisson peak and returns norm_deficit ~ 1 without raising"
    ),
    "perelomov_pa_density": (
        "the Fourier-inverted perelomov_pa density misses the 1e-3 moment bar "
        "at l = 2, k >= 1 (4.7e-3 at k = 1.5)"
    ),
}


@dataclass
class Outcome:
    """Oracle verdict of one op.

    ``ratio`` is the worst measured-error/bar ratio of the op (None when the
    op carries no bar); ``reasons`` names each failed check; ``known`` is the
    KNOWN_DEFECTS key explaining every failed check, when one does.
    """

    passed: bool
    ratio: Optional[float] = None
    reasons: List[str] = field(default_factory=list)
    known: Optional[str] = None


def digest(inputs) -> str:
    """sha256 of the canonical JSON of the generated op list."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Draws:
    """Latin-hypercube draws over the slots of one op list.

    Each named parameter gets its own column: one uniform draw inside each
    of ``n`` equal strata, in seeded order, and slot ``i`` reads entry ``i``.
    Every run therefore covers each parameter's range evenly, so run totals
    and run maxima depend far less on the seed than independent draws would.
    """

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n
        self.slot = 0
        self._cols: Dict[str, List[float]] = {}

    def unit(self, key: str) -> float:
        col = self._cols.get(key)
        if col is None:
            strata = list(range(self.n))
            self.rng.shuffle(strata)
            col = self._cols[key] = [(s + self.rng.random()) / self.n for s in strata]
        return col[self.slot]

    def ladder(self, key: str) -> float:
        """Midpoint of this slot's stratum: the column's values are fixed,
        only their order is seeded."""
        return (math.floor(self.unit(key) * self.n) + 0.5) / self.n

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit(key)

    def randint(self, key: str, lo: int, hi: int) -> int:
        return min(hi, lo + int(self.unit(key) * (hi - lo + 1)))

    def choice(self, key: str, options):
        return options[min(len(options) - 1, int(self.unit(key) * len(options)))]

    def cplx(self, key: str, r_lo: float, r_hi: float) -> List[float]:
        """Complex label with stratified modulus in [r_lo, r_hi] and phase,
        as [re, im]."""
        r = self.uniform(key + ".r", r_lo, r_hi)
        phi = self.uniform(key + ".phi", 0.0, 2.0 * math.pi)
        return [r * math.cos(phi), r * math.sin(phi)]


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _a_plus_bi(pair) -> str:
    """CLI literal of a complex label; repr keeps every digit."""
    re, im = pair
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


# ---------------------------------------------------------------------------
# profiles (dynamics and cli)
# ---------------------------------------------------------------------------

def gen_profile(d: Draws, kind: str) -> Dict:
    """One in-domain profile document in the CLI schema.

    Ranges keep M and omega bounded away from zero on the whole window (the
    package certifies positivity on a dense sample), so no op is refused.

    The window length t1 and the rates that set how many oscillations the
    window holds set most of an op's cost (they explain most of its spread
    within a kind).  They follow one ladder per kind (``w``): they rise
    together, the rungs are the same in every run, and only their order is
    seeded, so every run holds the same spread of op costs.  The other
    parameters are independent stratified draws (``u``).
    """

    def u(name: str, lo: float, hi: float) -> float:
        return d.uniform(f"{kind}.{name}", lo, hi)

    sweep = d.ladder(f"{kind}.sweep")

    def w(lo: float, hi: float) -> float:
        return lo + (hi - lo) * sweep

    e_field = {"E1": u("E1", -0.3, 0.3), "E2": u("E2", -0.3, 0.3)}
    if kind == "constant":
        params = {"M": u("M", 0.6, 1.6), "omega": w(0.6, 1.6), **e_field}
    elif kind == "exponential-mass":
        params = {"M0": w(1.5, 0.8), "alpha": u("alpha", 0.02, 0.08), "omega": w(0.8, 1.5), **e_field}
    elif kind == "exponential-frequency":
        params = {"M": u("M", 0.8, 1.5), "tau": w(0.8, 1.5), "alpha": u("alpha", 0.02, 0.08), **e_field}
    elif kind == "sinusoidal":
        params = {
            "M": u("M", 0.8, 1.5),
            "omega0": w(0.8, 1.5),
            "depth": u("depth", 0.05, 0.4),
            "rate": u("rate", 0.3, 1.2),
            **e_field,
        }
    else:
        t_tab = [0.5 * i for i in range(25)]  # knots every 0.5 on [0, 12]
        f_m, f_w, w0 = w(0.2, 0.8), w(0.2, 0.8), u("omega0", 0.8, 1.4)
        params = {
            "t": t_tab,
            "M": [1.0 + 0.2 * math.sin(f_m * t) for t in t_tab],
            "omega": [w0 + 0.2 * math.cos(f_w * t) for t in t_tab],
            **e_field,
        }
    return {
        "kind": kind,
        "params": params,
        "q": u("q", 0.5, 1.5),
        "B": u("B", 0.3, 1.2),
        "kappa": u("kappa", 0.7, 1.5),
        "t0": 0.0,
        "t1": w(8.0, 12.0),
    }


def _make_profile(L, doc: Dict):
    return L.profiles.make_profile(
        doc["kind"],
        doc["params"],
        q=doc["q"],
        B=doc["B"],
        kappa=doc["kappa"],
        t0=doc["t0"],
        t1=doc["t1"],
    )


# ---------------------------------------------------------------------------
# dynamics: the analysis a physicist runs on one profile
# ---------------------------------------------------------------------------

def gen_dynamics(seed: int, n_rounds: int) -> List[Dict]:
    d = Draws(random.Random(f"dynamics:{seed}"), n_rounds)
    ops = []
    for r in range(n_rounds):
        d.slot = r
        for kind in PROFILE_KINDS:
            ops.append(
                {
                    "profile": gen_profile(d, kind),
                    "quanta": [d.randint(kind + ".n_plus", 0, 3), d.randint(kind + ".n_minus", 0, 3)],
                    "z0": d.cplx(kind + ".z0", 0.2, 2.0),
                    "z_dot0": d.cplx(kind + ".z_dot0", 0.0, 1.0),
                }
            )
    return ops


def op_dynamics(L, inp: Dict) -> Outcome:
    np = L.np
    prof = _make_profile(L, inp["profile"])
    grid = np.linspace(prof.t0, prof.t1, 401)
    rho0, rho_dot0 = L.auxode.default_initial_conditions(prof)
    sol = L.auxode.solve_ep_numeric(prof, rho0, rho_dot0, grid)
    L.auxode.classical_trajectory(prof, _c(inp["z0"]), _c(inp["z_dot0"]), grid)
    q = L.spectrum.HelicityQuanta(*inp["quanta"])
    L.spectrum.phase_gamma(q, prof, sol, grid)
    t_mid = 0.5 * (prof.t0 + prof.t1)
    scale = float(sol.rho_at(t_mid)) / math.sqrt(prof.kappa)
    r = np.linspace(0.0, 4.0 * scale, 48)
    theta = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    L.spectrum.wavefunction_polar(q, prof, sol, t_mid, r[:, None], theta[None, :])
    reports = [
        L.verify.orthonormality_check(prof, sol, t_mid, n_max=2, tol=1e-7),
        L.verify.schrodinger_residual_check(
            L.spectrum.HelicityQuanta(1, 0),
            prof,
            sol,
            [(t_mid, 0.7 * scale, 0.4), (t_mid, 1.2 * scale, 2.0)],
            tol=1e-3,
        ),
        L.verify.lr_invariant_check(prof, sol, t_mid, cutoff=40, tol=1e-6),
    ]
    return _from_reports(reports)


def _from_reports(reports) -> Outcome:
    reasons = [r.name for r in reports if not r.passed]
    ratio = max(r.max_residual / r.tolerance for r in reports)
    return Outcome(passed=not reasons, ratio=ratio, reasons=reasons)


# ---------------------------------------------------------------------------
# coherent: one member of each of the 8 families per op
# ---------------------------------------------------------------------------

NEAR_EDGE_EVERY = 5


def gen_coherent(seed: int, n_rounds: int) -> List[Dict]:
    """Labels for n_rounds rounds of NEAR_EDGE_EVERY ops, the last near-edge.

    The near-edge ops sweep the edge box once per run: one rung of a ladder
    per op sets |z+| in [7, 10], |eta| in [0.95, 0.99], j in [20, 40], the
    su(1,1) index k and the pa_perelomov order l together, so each run builds
    the same largest tables (k = 2, l = 2 at |eta| -> 0.99) and crosses the |z+| ~ 8 canonical cutoff
    defect at the same rung; the seed orders the rungs.  On the other ops
    |z+| and |z-|, which set the canonical table sizes, follow one ladder
    the same way.  Phases and every other label are independent stratified
    draws.
    """
    rng = random.Random(f"coherent:{seed}")
    inner = Draws(rng, n_rounds * (NEAR_EDGE_EVERY - 1))
    edge = Draws(rng, n_rounds)
    ops = []
    for r in range(n_rounds):
        for slot in range(NEAR_EDGE_EVERY):
            near = slot == NEAR_EDGE_EVERY - 1
            if near:
                d = edge
                d.slot = r
                e = d.ladder("sweep")
                zp = _polar(7.0 + 3.0 * e, d.uniform("z_plus.phi", 0.0, 2.0 * math.pi))
                zm = d.cplx("z_minus", 0.2, 3.0)
                eta_r, two_j = 0.95 + 0.04 * e, 40 + min(40, int(41 * e))
                k_edge = SU11_K[min(3, int(4 * e))]
                l_edge = min(2, int(3 * e))
            else:
                d = inner
                d.slot = r * (NEAR_EDGE_EVERY - 1) + slot
                # |z+| and |z-| set the canonical table sizes, most of an
                # inner op's cost: they rise together along a ladder
                e = d.ladder("z.sweep")
                zp = _polar(0.2 + 2.8 * e, d.uniform("z_plus.phi", 0.0, 2.0 * math.pi))
                zm = _polar(0.2 + 2.8 * e, d.uniform("z_minus.phi", 0.0, 2.0 * math.pi))
                eta_r, two_j = d.uniform("eta", 0.1, 0.9), d.randint("two_j", 1, 20)
                k_edge = l_edge = None
            n_add = d.randint("pa_bg.n_add", 0, 2)
            ops.append(
                {
                    "near_edge": near,
                    "canonical": {
                        "z_plus": zp,
                        "z_minus": zm,
                        "shift": [d.cplx("shift_plus", 0.0, 0.5), d.cplx("shift_minus", 0.0, 0.5)],
                    },
                    "pa_canonical": {
                        "m_plus": d.randint("m_plus", 0, 3),
                        "m_minus": d.randint("m_minus", 0, 3),
                    },
                    "su2": {
                        "j": two_j / 2.0,
                        "zeta": d.cplx("su2.zeta", 0.1, 2.0),
                        "zeta2": d.cplx("su2.zeta2", 0.1, 2.0),
                    },
                    "su2_pa": {
                        "j": two_j / 2.0,
                        "zeta": d.cplx("su2_pa.zeta", 0.1, 2.0),
                        "p": d.randint("su2_pa.p", 0, min(3, two_j)),
                    },
                    "bg": {
                        "k": d.choice("bg.k", SU11_K),
                        "z": d.uniform("bg.z", 0.2, 4.0),
                        "z2": d.uniform("bg.z2", 0.2, 4.0),
                    },
                    "perelomov": {
                        "k": k_edge or d.choice("perelomov.k", SU11_K),
                        "eta": _polar(eta_r, d.uniform("perelomov.phi", 0.0, 2.0 * math.pi)),
                        "eta2": d.cplx("perelomov.eta2", 0.1, eta_r),
                    },
                    "pa_bg": {
                        "k": d.choice("pa_bg.k", SU11_K),
                        "z": d.cplx("pa_bg.z", 0.2, 3.0),
                        "z2": d.cplx("pa_bg.z2", 0.2, 3.0),
                        "n_add": n_add,
                        "n_add2": d.randint("pa_bg.n_add2", 0, n_add),
                    },
                    "pa_perelomov": {
                        "k": k_edge or d.choice("pa_perelomov.k", SU11_K),
                        "eta": _polar(eta_r, d.uniform("pa_perelomov.phi", 0.0, 2.0 * math.pi)),
                        "l": d.randint("pa_perelomov.l", 0, 2) if l_edge is None else l_edge,
                    },
                }
            )
    return ops


def _polar(r: float, phi: float) -> List[float]:
    return [r * math.cos(phi), r * math.sin(phi)]


def _pa_canonical_cutoff(abs_z: float, m_add: int) -> int:
    """Cutoff past the photon-added Poisson peak, so the last shell is
    negligible (the package raises when it is not)."""
    return int(math.ceil(abs_z**2 + 8.0 * abs_z + 2 * m_add + 20))


def _pair(build: Callable[[Optional[int]], object], build2: Callable[[Optional[int]], object]):
    """Build two states on one common cutoff."""
    a = build(None)
    b = build2(a.cutoff)
    if b.cutoff != a.cutoff:
        a = build(b.cutoff)
    return a, b


def _check_json(C, np, state) -> bool:
    back = C.state_from_json(C.state_to_json(state))
    return (
        back.family == state.family
        and back.cutoff == state.cutoff
        and back.params == state.params
        and back.norm_deficit == state.norm_deficit
        and np.array_equal(back.coeffs, state.coeffs)
    )


def op_coherent(L, inp: Dict) -> Outcome:
    C, np = L.coherent, L.np
    reasons: List[str] = []
    ratios: List[float] = []

    def closed(name: str, state) -> None:
        # normalised by an exact closed form: the deficit is truncation error
        deficit = abs(state.norm_deficit)
        ratios.append(deficit / NORM_BAR)
        if not deficit <= NORM_BAR:
            reasons.append(f"{name}:norm_deficit")

    def compare(name: str, table: complex, exact: complex) -> None:
        err = abs(table - exact)
        ratios.append(err / OVERLAP_BAR)
        if not err <= OVERLAP_BAR:
            reasons.append(f"{name}:overlap")

    def round_trip(name: str, state) -> None:
        if not _check_json(C, np, state):
            reasons.append(f"{name}:json")

    p = inp["canonical"]
    zp, zm = _c(p["z_plus"]), _c(p["z_minus"])
    zp2, zm2 = zp + _c(p["shift"][0]), zm + _c(p["shift"][1])
    a, b = _pair(
        lambda cut: C.canonical_state(zp, zm, cut),
        lambda cut: C.canonical_state(zp2, zm2, cut),
    )
    closed("canonical", a)
    compare("canonical", abs(C.overlap(a, b)), C.canonical_overlap_modulus(zp, zm, zp2, zm2))
    round_trip("canonical", a)
    del a, b

    m = inp["pa_canonical"]
    cut = _pa_canonical_cutoff(max(abs(zp), abs(zm)), max(m["m_plus"], m["m_minus"]))
    s = C.photon_added_state(zp, zm, m["m_plus"], m["m_minus"], cut)
    round_trip("pa_canonical", s)

    p = inp["su2"]
    a = C.su2_state(p["j"], _c(p["zeta"]))
    b = C.su2_state(p["j"], _c(p["zeta2"]), a.cutoff)
    closed("su2", a)
    compare("su2", C.overlap(a, b), C.su2_overlap(p["j"], _c(p["zeta"]), _c(p["zeta2"])))
    round_trip("su2", a)

    p = inp["su2_pa"]
    s = C.su2_pa_state(p["j"], _c(p["zeta"]), p["p"])
    closed("su2_pa", s)
    round_trip("su2_pa", s)

    p = inp["bg"]
    mode = ("two_mode", p["k"])
    ell = int(round(2 * p["k"] - 1))
    a, b = _pair(
        lambda cut: C.su11_bg_state(mode, p["z"], cut),
        lambda cut: C.su11_bg_state(mode, p["z2"], cut),
    )
    closed("bg", a)
    compare("bg", C.overlap(a, b), C.bg_overlap(ell, p["z"], p["z2"]))
    round_trip("bg", a)
    del a, b

    p = inp["perelomov"]
    mode = ("two_mode", p["k"])
    ell = int(round(2 * p["k"] - 1))
    a, b = _pair(
        lambda cut: C.su11_perelomov_state(mode, _c(p["eta"]), cut),
        lambda cut: C.su11_perelomov_state(mode, _c(p["eta2"]), cut),
    )
    closed("perelomov", a)
    compare("perelomov", C.overlap(a, b), C.perelomov_overlap(ell, _c(p["eta"]), _c(p["eta2"])))
    round_trip("perelomov", a)
    del a, b

    p = inp["pa_bg"]
    a, b = _pair(
        lambda cut: C.su11_pa_bg_state(p["k"], _c(p["z"]), p["n_add"], cut),
        lambda cut: C.su11_pa_bg_state(p["k"], _c(p["z2"]), p["n_add2"], cut),
    )
    compare(
        "pa_bg",
        C.overlap(b, a),
        C.pa_bg_overlap(p["k"], p["n_add"], p["n_add2"], _c(p["z"]), _c(p["z2"])),
    )
    round_trip("pa_bg", a)
    del a, b

    p = inp["pa_perelomov"]
    s = C.su11_pa_perelomov_state(p["k"], _c(p["eta"]), p["l"])
    round_trip("pa_perelomov", s)
    del s

    known = None
    if reasons and all(r.startswith("canonical:") for r in reasons) and abs(zp) >= 7.0:
        known = "canonical_cutoff"
    return Outcome(passed=not reasons, ratio=max(ratios), reasons=reasons, known=known)


# ---------------------------------------------------------------------------
# moments: one family's resolution of the identity per op
# ---------------------------------------------------------------------------

# bg_pa and perelomov_pa ops cost 2-4 s and 9-15 s, so a run affords one or
# two of each; their points are a fixed design per round (round r uses entry
# r mod 2; the first entry holds the perelomov_pa point the known density
# defect shows at, so every run shows it).  The seed draws the su2_pa labels
# and the order of the families inside each round.
MOMENT_DESIGN = {
    "bg_pa": ({"k": 1.5, "n": 2}, {"k": 1.0, "n": 1}),
    "perelomov_pa": ({"k": 1.5, "l": 2}, {"k": 1.0, "l": 1}),
}


def gen_moments(seed: int, n_rounds: int) -> List[Dict]:
    rng = random.Random(f"moments:{seed}")
    d = Draws(rng, n_rounds)
    ops = []
    for r in range(n_rounds):
        d.slot = r
        two_j = d.randint("two_j", 1, 6)
        fams = {
            "su2_pa": {"j": two_j / 2.0, "p": d.randint("p", 0, min(2, two_j))},
            "bg_pa": MOMENT_DESIGN["bg_pa"][r % 2],
            "perelomov_pa": MOMENT_DESIGN["perelomov_pa"][r % 2],
        }
        order = list(fams)
        rng.shuffle(order)
        for fam in order:
            ops.append(
                {
                    "family": fam,
                    "params": fams[fam],
                    "m_max": MOMENT_M_MAX[fam],
                    "tol": MOMENT_TOL[fam],
                }
            )
    return ops


MOMENTS_WARMUP = {"family": "su2_pa", "params": {"j": 1.0, "p": 1}, "m_max": 6, "tol": 1e-5}


def op_moments(L, inp: Dict) -> Outcome:
    spec = L.coherent.weight_spec(inp["family"], inp["params"])
    report = L.verify.moment_problem_check(spec, m_max=inp["m_max"], tol=inp["tol"])
    out = _from_reports([report])
    if not out.passed and inp["family"] == "perelomov_pa" and inp["params"]["l"] == 2:
        out.known = "perelomov_pa_density"
    return out


# ---------------------------------------------------------------------------
# cli: one cold landau-td process per op
# ---------------------------------------------------------------------------

def gen_cli(seed: int, n_rounds: int) -> List[Dict]:
    n_ops = n_rounds * len(CLI_VERBS)
    d = Draws(random.Random(f"cli:{seed}"), n_ops)
    ops = []
    for i in range(n_ops):
        d.slot = i
        verb = CLI_VERBS[i % len(CLI_VERBS)]
        prof = None if verb == "coherent" else gen_profile(d, PROFILE_KINDS[i % len(PROFILE_KINDS)])
        if verb == "aux":
            args = []
        elif verb == "classical":
            z0, zd = d.cplx("z0", 0.2, 2.0), d.cplx("z_dot0", 0.0, 1.0)
            args = ["--z0", _a_plus_bi(z0), "--z-dot0", _a_plus_bi(zd)]
        elif verb in ("spectrum", "wavefunction"):
            args = ["--n-plus", str(d.randint("n_plus", 0, 3)), "--n-minus", str(d.randint("n_minus", 0, 3))]
            if verb == "wavefunction":
                args += ["--t", repr(d.uniform("t", 0.5, 7.5))]
        elif verb == "verify":
            args = ["--suite", "all"]
        else:
            family = COHERENT_FAMILIES[(i // len(CLI_VERBS)) % len(COHERENT_FAMILIES)]
            args = _coherent_args(d, family)
        ops.append({"verb": verb, "profile": prof, "args": args})
    return ops


def _coherent_args(d: Draws, family: str) -> List[str]:
    k = repr(d.choice("k", SU11_K))
    if family in ("canonical", "pa_canonical"):
        args = [
            "--z-plus", _a_plus_bi(d.cplx("z_plus", 0.2, 3.0)),
            "--z-minus", _a_plus_bi(d.cplx("z_minus", 0.2, 3.0)),
        ]
        if family == "pa_canonical":
            args += ["--m-plus", str(d.randint("m_plus", 0, 2)), "--m-minus", str(d.randint("m_minus", 0, 2))]
    elif family in ("su2", "su2_pa"):
        two_j = d.randint("two_j", 1, 20)
        args = ["--j", repr(two_j / 2.0), "--zeta", _a_plus_bi(d.cplx("zeta", 0.1, 2.0))]
        if family == "su2_pa":
            args += ["--p", str(d.randint("p", 0, min(3, two_j)))]
    elif family in ("bg", "pa_bg"):
        args = ["--k", k, "--z", _a_plus_bi(d.cplx("z", 0.2, 3.0))]
        if family == "pa_bg":
            args += ["--n-add", str(d.randint("n_add", 0, 2))]
    else:
        args = ["--k", k, "--eta", _a_plus_bi(d.cplx("eta", 0.1, 0.9))]
        if family == "pa_perelomov":
            args += ["--l", str(d.randint("l", 0, 2))]
    return ["--family", family] + args


def cli_argv(inp: Dict, profile_path: Optional[str]) -> List[str]:
    argv = [inp["verb"]]
    if profile_path is not None:
        argv += ["--profile", profile_path]
    return argv + list(inp["args"])


def write_profiles(ops: List[Dict], directory: str) -> List[Optional[str]]:
    """Write each op's profile document; returns paths relative to the
    working directory (None for ops without a profile)."""
    os.makedirs(directory, exist_ok=True)
    paths: List[Optional[str]] = []
    for i, op in enumerate(ops):
        if op["profile"] is None:
            paths.append(None)
            continue
        path = os.path.join(directory, f"profile_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["profile"], fh, sort_keys=True)
        paths.append(path)
    return paths


@dataclass
class ColdResult:
    seconds: float  # wall
    cpu_seconds: float  # user + system time of the child
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def run_cold(argv: List[str], env: Dict[str, str], stderr_path: str, clock) -> ColdResult:
    """One cold ``landau-td`` process; rusage (CPU time, peak RSS) is read
    from this child alone."""
    with open(stderr_path, "w+b") as err:
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, "-m", "landau_td.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return ColdResult(elapsed, cpu, proc.returncode, out, err.read(), usage.ru_maxrss)


def run_warm(L, argv: List[str]) -> Tuple[int, str]:
    """The same argv through ``cli.main`` in this process; returns
    (exit code, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = L.cli.main(list(argv))
    return code, buf.getvalue()


def check_cli(inp: Dict, cold: ColdResult, warm: Tuple[int, str]) -> Outcome:
    reasons = []
    if cold.exit_code != 0:
        reasons.append(f"exit:{cold.exit_code}")
    text = cold.stdout.decode("utf-8", errors="replace")
    ratio = None
    try:
        if inp["verb"] in ("coherent", "verify"):
            doc = json.loads(text)
            if inp["verb"] == "verify":
                ratio = max(r["max_residual"] / r["tolerance"] for r in doc)
        else:
            _parse_csv(text)
    except (ValueError, KeyError, TypeError):
        reasons.append("parse")
    if warm[0] != cold.exit_code or warm[1].encode("utf-8") != cold.stdout:
        reasons.append("warm_mismatch")
    return Outcome(passed=not reasons, ratio=ratio, reasons=reasons)


def _parse_csv(text: str) -> None:
    """Header plus rectangular rows of floats (the residual columns carry nan
    where their stencils do not reach)."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("no rows")
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError("ragged row")
        for cell in cells:
            float(cell)


GENERATORS = {
    "dynamics": gen_dynamics,
    "coherent": gen_coherent,
    "moments": gen_moments,
    "cli": gen_cli,
}
