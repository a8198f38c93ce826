"""The straight-line DOP853 step against the generic stage loop it was
generated from (``reference.dop853_reference``): every field of every
``Run`` the same, bit for bit."""

import dataclasses
import importlib.util
import math
import pathlib
import sys
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_td import auxode, coherent, dop853, profiles, spectrum, verify
from reference import KIND_PARAMS, dop853_reference, kind_profile

_WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _same_run(fun, t_span, y0, band=None) -> dop853.Run:
    """The stepper's run, after checking it against the generic loop field
    by field (repr: exact floats, -0.0 and NaN included)."""
    run = dop853.solve_ivp(fun, t_span, y0, band)
    ref = dop853_reference(fun, t_span, y0, band)
    for field in dataclasses.fields(dop853.Run):
        assert repr(getattr(run, field.name)) == repr(getattr(ref, field.name)), field.name
    return run


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_PARAMS)),
    which=st.sampled_from(["auxiliary", "classical"]),
    t0=st.floats(0.0, 11.5),
    length=st.floats(1e-3, 12.0),
    start=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
)
def test_kind_runs_are_the_generic_loops_bits(kind, which, t0, length, start):
    prof = kind_profile(kind)
    span = (t0, min(t0 + length, 12.0))
    if which == "auxiliary":
        # around the adiabatic envelope at t0, with the solver's band
        rho0 = math.sqrt(prof.kappa / (float(prof.mass(t0)) * float(prof.Omega(t0))))
        rho0 *= 1.0 + 0.5 * start[0]
        _same_run(auxode._ep_rhs(prof), span, [rho0, start[1]], (1e-6 * rho0, 1e6 * rho0))
    else:
        y0 = [complex(start[0], start[1]), complex(start[2], start[3])]
        _same_run(auxode._classical_rhs(prof), span, y0)


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(-2.0, 2.0),
    freq=st.floats(0.0, 5.0),
    y0=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0)),
    t1=st.floats(0.1, 10.0),
)
def test_one_component_runs(rate, freq, y0, t1):
    run = _same_run(lambda t, y: [rate * y[0] + math.cos(freq * t)], (0.0, t1), [y0])
    assert run.status == 0 and run.t[-1] == t1


def test_band_exit():
    run = _same_run(lambda t, y: [y[0]], (0.0, 3.0), [1.0], (0.5, 2.0))
    assert run.status == 1 and run.y[-1][0] >= 2.0
    prof = kind_profile("sinusoidal")
    rho0, _ = auxode.default_initial_conditions(prof)
    run = _same_run(auxode._ep_rhs(prof), (0.0, 12.0), [rho0, 0.5], (0.9 * rho0, 1.1 * rho0))
    assert run.status == 1


@settings(max_examples=10, deadline=None)
@given(y0=st.floats(0.5, 2.0))
def test_step_collapse_at_a_blow_up(y0):
    # y' = y^2 leaves every bound at t = 1/y0
    run = _same_run(lambda t, y: [y[0] * y[0]], (0.0, 2.0 / y0), [y0])
    assert run.status == -1 and run.n_rejected > 0
    assert abs(run.t[-1] - 1.0 / y0) < 1e-9


def test_nan_rates():
    # NaN from the start: no step at all, and no initial-step probe either,
    # so the one call at the start is all nfev counts
    calls = []

    def nan_rates(t, y):
        calls.append(t)
        return [math.nan, math.nan]

    run = _same_run(nan_rates, (0.0, 1.0), [1.0, 0.0])
    assert run.status == -1 and run.t == [0.0]
    # _same_run made two runs, the stepper's and the reference's
    assert run.nfev == 1 and len(calls) == 2
    # NaN past t = 2.5: the steps shrink onto it and collapse there
    run = _same_run(
        lambda t, y: [math.nan, math.nan] if t > 2.5 else [y[1], -y[0]], (0.0, 5.0), [1.0, 0.0]
    )
    assert run.status == -1 and 2.5 - 1e-12 < run.t[-1] <= 2.5


def test_bench_dynamics_runs_are_the_generic_loops_bits(monkeypatch):
    # every solver run of the 70 ops of a 15 s seed-1 bench `dynamics` run
    # (14 rounds of the five kinds)
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    L = types.SimpleNamespace(
        np=np, profiles=profiles, auxode=auxode, coherent=coherent, spectrum=spectrum, verify=verify
    )
    runs = []

    def checked(fun, t_span, y0, band=None):
        runs.append(_same_run(fun, t_span, y0, band))
        return runs[-1]

    monkeypatch.setattr(auxode, "solve_ivp", checked)
    ops = workloads.gen_dynamics(1, 14)
    for inp in ops:
        before = len(runs)
        workloads.op_dynamics(L, inp)
        assert len(runs) > before
    assert len(ops) == 70
