"""The benchmark's span tracer patches package functions by module attribute
(``bench/tracing.py``); these tests keep every attribute it names in place
and the ODE runs it counts readable."""

import importlib.util
import pathlib
import types

import numpy as np
import pytest

import landau_td
from landau_td import auxode, coherent, profiles, spectrum, verify
from reference import kind_profile

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(tracing):
    for mod_name, attr, _ in tracing.WRAPPED:
        module = getattr(landau_td, mod_name)
        assert callable(getattr(module, attr)), f"landau_td.{mod_name}.{attr}"


def test_one_piece_reports_its_calls():
    prof = kind_profile("sinusoidal")
    run = auxode.solve_ivp(
        auxode._ep_rhs(prof), (0.0, 12.0), list(auxode.default_initial_conditions(prof))
    )
    assert type(run.nfev) is int and run.nfev > 0


def test_the_tracer_sees_every_piece(tracing):
    # the knot-to-knot pieces of a tabulated profile each go through the
    # patched auxode.solve_ivp and record their nfev
    L = types.SimpleNamespace(
        np=np, profiles=profiles, auxode=auxode, coherent=coherent, spectrum=spectrum, verify=verify
    )
    prof = kind_profile("tabulated")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, L):
        auxode.solve_ep_numeric(
            prof, *auxode.default_initial_conditions(prof), np.linspace(0.0, 12.0, 41)
        )
    assert auxode.solve_ivp.__module__ == "landau_td.dop853"
    runs = [i for i, rec in enumerate(tracer.spans) if rec[0] == "auxode.solve_ivp"]
    assert len(runs) == prof.knots.size + 1
    assert all(tracer.attrs[i]["nfev"] > 0 for i in runs)


def test_the_tracer_sees_the_weight(tracing):
    # the moment check calls the weight only through spec.evaluator, which
    # the tracer swaps for the duration of the check
    L = types.SimpleNamespace(
        np=np, profiles=profiles, auxode=auxode, coherent=coherent, spectrum=spectrum, verify=verify
    )
    spec = coherent.weight_spec("su2_pa", {"j": 1.5, "p": 1})
    evaluator = spec.evaluator
    tracer = tracing.Tracer()
    with tracing.installed(tracer, L):
        report = verify.moment_problem_check(spec, m_max=6, tol=1e-10)
    assert report.passed
    assert any(rec[0] == tracing.EVALUATOR_SPAN for rec in tracer.spans)
    assert spec.evaluator is evaluator
