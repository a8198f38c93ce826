"""Span tracing of the landau_td layers, installed from the benchmark.

The tracer replaces public functions at the module attribute their caller
looks up (a module's global lookup goes through the same attribute), records
one span per call (name, start, end, parent span, op id) in memory, and
restores the originals on exit.  Untraced runs never install it, so they
import the package unmodified.

A span's layer is the part of its name before the first dot.  The time a
metric reports for a function is its layer-exclusive time: span time minus
the time of descendant spans in other layers (nested spans of the same layer
stay included, so ``solve_ep_numeric`` keeps its ``solve_ivp``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name): every name a caller in the package or in
# the workloads looks up.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("profiles", "make_profile", "profiles.make_profile"),
    ("profiles", "profile_from_json", "profiles.profile_from_json"),
    ("coherent", "meijer_g", "specfun.meijer_g"),
    ("coherent", "hypergeometric", "specfun.hypergeometric"),
    ("coherent", "bessel", "specfun.bessel"),
    ("spectrum", "laguerre", "specfun.laguerre"),
    ("auxode", "solve_ep_numeric", "auxode.solve_ep_numeric"),
    ("verify", "solve_ep_numeric", "auxode.solve_ep_numeric"),
    ("auxode", "solve_ivp", "auxode.solve_ivp"),
    ("auxode", "classical_trajectory", "auxode.classical_trajectory"),
    ("spectrum", "phase_gamma", "spectrum.phase_gamma"),
    ("verify", "phase_gamma", "spectrum.phase_gamma"),
    ("spectrum", "hamiltonian_expectation", "spectrum.hamiltonian_expectation"),
    ("spectrum", "wavefunction_polar", "spectrum.wavefunction_polar"),
    ("verify", "wavefunction_polar", "spectrum.wavefunction_polar"),
    ("verify", "build_operator_matrices", "spectrum.build_operator_matrices"),
    ("coherent", "canonical_state", "coherent.build.canonical"),
    ("coherent", "photon_added_state", "coherent.build.pa_canonical"),
    ("coherent", "su2_state", "coherent.build.su2"),
    ("coherent", "su2_pa_state", "coherent.build.su2_pa"),
    ("coherent", "su11_bg_state", "coherent.build.bg"),
    ("coherent", "su11_perelomov_state", "coherent.build.perelomov"),
    ("coherent", "su11_pa_bg_state", "coherent.build.pa_bg"),
    ("coherent", "su11_pa_perelomov_state", "coherent.build.pa_perelomov"),
    ("coherent", "state_to_json", "coherent.state_to_json"),
    ("coherent", "state_from_json", "coherent.state_from_json"),
    ("coherent", "overlap", "coherent.overlap"),
    ("coherent", "canonical_overlap_modulus", "coherent.closed_overlap"),
    ("coherent", "su2_overlap", "coherent.closed_overlap"),
    ("coherent", "bg_overlap", "coherent.closed_overlap"),
    ("coherent", "perelomov_overlap", "coherent.closed_overlap"),
    ("coherent", "pa_bg_overlap", "coherent.closed_overlap"),
    ("coherent", "weight_spec", "coherent.weight_spec"),
    ("verify", "orthonormality_check", "verify.orthonormality"),
    ("verify", "schrodinger_residual_check", "verify.schrodinger"),
    ("verify", "lr_invariant_check", "verify.lr_invariant"),
    ("verify", "algebra_check", "verify.algebra"),
    ("verify", "moment_problem_check", "verify.moment_problem_check"),
)

# the evaluator closures live in landau_td.coherent, so their spans count
# there and come off verify's self time
EVALUATOR_SPAN = "coherent.evaluator"


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, op]
        self.attrs: Dict[int, Dict] = {}
        self.op = -1
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, idx, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if i in self.attrs:
                    row["attrs"] = self.attrs[i]
                fh.write(json.dumps(row) + "\n")


def _record_nfev(tracer: Tracer, idx: int, sol) -> None:
    tracer.attrs[idx] = {"nfev": int(sol.nfev)}


def _record_state(np):
    def record(tracer: Tracer, idx: int, state) -> None:
        coeffs = state.coeffs
        tracer.attrs[idx] = {
            "cutoff": int(state.cutoff),
            "bytes": int(coeffs.nbytes),
            "entries": int(coeffs.size),
            "nonzero": int(np.count_nonzero(coeffs)),
        }

    return record


def _record_json(tracer: Tracer, idx: int, text: str) -> None:
    tracer.attrs[idx] = {"bytes": len(text.encode("utf-8"))}


def _record_report(tracer: Tracer, idx: int, report) -> None:
    tracer.attrs[idx] = {"passed": bool(report.passed)}


def _hook(span: str, np) -> Optional[Callable]:
    """What a span records about its result, besides its times."""
    if span == "auxode.solve_ivp":
        return _record_nfev
    if span == "coherent.state_to_json":
        return _record_json
    if span.startswith("coherent.build."):
        return _record_state(np)
    if span.startswith("verify."):
        return _record_report
    return None


@contextmanager
def installed(tracer: Tracer, L):
    """Patch every WRAPPED attribute for the duration of the block."""
    saved = []
    for mod_name, attr, span in WRAPPED:
        module = getattr(L, mod_name)
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, span, _hook(span, L.np))
        if span == "verify.moment_problem_check":
            wrapped = _wrap_evaluator(tracer, wrapped)
        saved.append((module, attr, original))
        setattr(module, attr, wrapped)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrap_evaluator(tracer: Tracer, check: Callable) -> Callable:
    """Trace ``WeightSpec.evaluator`` of each spec handed to the check."""

    def traced_check(spec, *args, **kwargs):
        evaluator = spec.evaluator
        spec.evaluator = tracer.wrap(evaluator, EVALUATOR_SPAN)
        try:
            return check(spec, *args, **kwargs)
        finally:
            spec.evaluator = evaluator

    traced_check.__wrapped__ = check
    return traced_check


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def exclusive_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the time of descendants in another layer."""
    children: Dict[int, List[int]] = {}
    for i, rec in enumerate(spans):
        children.setdefault(rec[3], []).append(i)

    def foreign(i: int, layer: str) -> float:
        total = 0.0
        for c in children.get(i, ()):
            if layer_of(spans[c][0]) != layer:
                total += spans[c][2] - spans[c][1]
            else:
                total += foreign(c, layer)
        return total

    return [
        (rec[2] - rec[1]) - foreign(i, layer_of(rec[0])) for i, rec in enumerate(spans)
    ]


class Summary:
    """Totals by span name over one traced pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        excl = exclusive_times(tracer.spans)
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        for rec, t in zip(tracer.spans, excl):
            self.calls[rec[0]] = self.calls.get(rec[0], 0) + 1
            self.seconds[rec[0]] = self.seconds.get(rec[0], 0.0) + t

    def ms(self, name: str) -> float:
        return 1e3 * self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def mean_inclusive_ms(self, name: str) -> float:
        """Mean span duration, children included (0 when never called)."""
        durations = [rec[2] - rec[1] for rec in self.tracer.spans if rec[0] == name]
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    def attrs(self, prefix: str, key: str) -> List:
        spans = self.tracer.spans
        return [
            a[key]
            for i, a in self.tracer.attrs.items()
            if spans[i][0].startswith(prefix) and key in a
        ]
