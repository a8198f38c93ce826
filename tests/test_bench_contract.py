"""The benchmark's ops call the package through a namespace ``L`` of its
modules (``bench/workloads.py``); these tests keep every name they call and
every result attribute they read in place, so that an API change fails here
and not in a bench run."""

import importlib
import pathlib
import re

import numpy as np
import pytest

from landau_td import auxode, coherent, verify
from reference import kind_profile

_WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text()


def _called_names():
    """(module, name) of every L.<module>.<name> in the workloads, and of
    every <alias>.<name> where an op binds an alias to L.<module>."""
    calls = set(re.findall(r"\bL\.(\w+)\.(\w+)", _WORKLOADS))
    for names, modules in re.findall(r"^\s*([\w, ]+?) = (L\.\w+(?:, L\.\w+)*)\s*$", _WORKLOADS, re.M):
        for alias, module in zip(names.split(", "), modules.split(", ")):
            calls |= {(module[2:], name) for name in re.findall(rf"\b{alias}\.(\w+)", _WORKLOADS)}
    return sorted((module, name) for module, name in calls if module != "np")


def test_the_ops_call_the_package():
    assert ("auxode", "solve_ep_numeric") in _called_names()
    assert ("coherent", "su2_state") in _called_names()


@pytest.mark.parametrize("module, name", _called_names())
def test_every_called_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"landau_td.{module}"), name), f"L.{module}.{name}"


def test_the_result_attributes_the_ops_read():
    prof = kind_profile("constant")
    aux = auxode.stationary_solution(prof, np.linspace(0.0, 12.0, 5))
    assert aux.rho_at(6.0) == aux.rho[0]
    state = coherent.su2_state(1.0, 0.3 + 0.1j)
    for attr in ("cutoff", "norm_deficit", "coeffs", "family", "params"):
        assert hasattr(state, attr), f"StateVector.{attr}"
    report = verify.orthonormality_check(prof, aux, 6.0, n_max=1, tol=1e-10)
    for attr in ("name", "passed", "max_residual", "tolerance"):
        assert hasattr(report, attr), f"CheckReport.{attr}"
