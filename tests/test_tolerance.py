"""The one tolerance object: every check reads ``metastab.config.DEFAULT`` when it runs."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metastab as ms
from metastab import (
    chain,
    cli,
    config,
    models,
    numerics,
    pathsim,
    potential,
    reduction,
    specio,
    transforms,
)
from metastab.errors import (
    BadSpec,
    BadTolerance,
    NotAdmissible,
    NotReversible,
    NotStationary,
    NotZeroMean,
    SolverFailure,
    ToleranceViolation,
)

from metastab.potential import Flow, edge_set, zero_flow

from conftest import birth_death, tamper_solves


def _off(pi, i, rel=1e-8):
    """``pi`` with entry ``i`` off by ``rel`` relative, renormalized."""
    w = pi.weights.copy()
    w[i] *= 1.0 + rel
    return ms.ProbVector(w / w.sum())


def _perturb_solves(monkeypatch, perturb):
    """Pass the result of every solve through ``perturb``."""
    tamper_solves(monkeypatch, lambda b, x: perturb(x))


def _dirichlet_form(monkeypatch):
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 3)
    return lambda: ms.dirichlet_form(bd4, pi, np.arange(4.0)), NotStationary, "D\\(f\\)"


def _equilibrium_harmonicity(monkeypatch):
    # h moves at state 3 only, so the escape-rate capacity (read at state 2)
    # does not move and D(h) moves to second order
    bd5 = birth_death(5)
    pi = ms.stationary(bd5)

    def perturb(H):
        H = H.copy()
        H[1] += [1e-8, -1e-8]
        return H

    _perturb_solves(monkeypatch, perturb)
    return (lambda: ms.equilibrium_potential(bd5, pi, ["1"], ["5"]),
            SolverFailure, "harmonicity")


def _symmetric_capacity(monkeypatch):
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)

    # every rate of the symmetric part 1e-8 larger, so its capacity is too
    def faster(ch, p):
        return ms.build_chain(ch.states, [(a, b, r * (1.0 + 1e-8)) for a, b, r in ch.edges()])

    monkeypatch.setattr(potential, "symmetric_part", faster)
    return (lambda: ms.symmetric_capacity(bd4, pi, ["1"], ["4"]),
            ToleranceViolation, "symmetric capacity")


def _poisson_residual(monkeypatch):
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    _perturb_solves(monkeypatch, lambda x: x * (1.0 + 1e-8))
    return (lambda: ms.poisson_solve(bd4, pi, [1.0, -1.0, 1.0, -1.0], 1.0),
            SolverFailure, "Poisson residual")


def _point_capacity_harmonicity(monkeypatch):
    # the Green function's diagonal, hence every capacity, is left alone
    bd5 = birth_death(5)
    pi = ms.stationary(bd5)
    _perturb_solves(monkeypatch, lambda X: X + 1e-8 * (1.0 - np.eye(*X.shape)))
    return (lambda: reduction._point_capacities(bd5.rates.toarray(), pi.weights, 0, bd5.states,
                                                "test"),
            SolverFailure, "harmonicity")


def _thomson_reversibility(monkeypatch):
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 3)
    h = potential.hitting_probability(bd4, ["1"], ["4"])
    return (lambda: potential.thomson_function_bound(bd4, pi, ["1"], ["4"], h),
            NotReversible, "reversible")


def _thomson_harmonicity(monkeypatch):
    # h + 1e-8 at state 2 is not harmonic there by about 1e-8
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    f = potential.hitting_probability(bd4, ["1"], ["4"]) + np.array([0.0, 1e-8, 0.0, 0.0])
    return (lambda: potential.thomson_function_bound(bd4, pi, ["1"], ["4"], f),
            NotAdmissible, "not harmonic")


def _poisson_mean(monkeypatch):
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    return (lambda: ms.poisson_solve(bd4, pi, [1.0, -1.0, 1.0, -1.0 + 4e-8], 1.0),
            NotZeroMean, "not zero")


def _trace_chain(monkeypatch):
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 1)
    return (lambda: ms.trace_chain(bd4, pi, ["1", "2", "3"]),
            ToleranceViolation, "trace chain")


def _collapse_chain(monkeypatch):
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 3)
    return (lambda: ms.collapse_chain(bd4, pi, ["1", "2"]),
            ToleranceViolation, "collapsed measure")


def _enlarge_chain(monkeypatch):
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 3)
    return lambda: ms.enlarge_chain(bd4, pi, 1.0), ToleranceViolation, "enlarged"


def _is_reversible_default(monkeypatch):
    # detailed balance off by about 1e-10 of the largest flux
    bd4 = birth_death(4)
    pi = _off(ms.stationary(bd4), 3, rel=1e-10)

    def call():
        assert ms.is_reversible(bd4, pi), "detailed balance fails"

    return call, AssertionError, "detailed balance"


def _resolvent_range(monkeypatch):
    # the solution dips 1e-10 below 0 at its smallest entry
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    part = ms.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})), frozenset())
    _perturb_solves(monkeypatch, lambda x: x - x.min() - 1e-10)
    return (lambda: ms.resolvent_solve(bd4, pi, 1.0, 1, part),
            SolverFailure, "escapes")


def _require_levels(monkeypatch):
    # the test function is 1 + 1e-10 on the source set
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    f = np.array([1.0 + 1e-10, 2.0 / 3.0, 1.0 / 3.0, 0.0])
    phi = zero_flow(edge_set(bd4, pi))
    return (lambda: ms.dirichlet_upper_bound(bd4, pi, ["1"], ["4"], f, phi),
            NotAdmissible, "must equal 1.0")


def _require_flow_class(monkeypatch):
    # a unit flow along 1-2-3-4 whose middle edge carries 1e-7 extra, so
    # states 2 and 3 have divergence 1e-7
    bd4 = birth_death(4)
    pi = ms.stationary(bd4)
    psi = Flow(edge_set(bd4, pi), np.array([1.0, 1.0 + 1e-7, 1.0]))
    return (lambda: ms.thomson_lower_bound(bd4, pi, ["1"], ["4"], psi, np.zeros(4)),
            NotAdmissible, "divergence-free")


def _prob_vector_sum(monkeypatch):
    return lambda: ms.ProbVector(np.array([0.5, 0.5 + 1e-10])), BadSpec, "sums to"


# checks whose bound is a fixed multiple of ``rel``: each case misses its
# identity by more than the bound at the default rel = 1e-10 and by less than
# the bound at rel = 1e-6
RELATIVE_CHECKS = {
    "dirichlet_form": _dirichlet_form,
    "equilibrium_potential": _equilibrium_harmonicity,
    "symmetric_capacity": _symmetric_capacity,
    "poisson_solve": _poisson_residual,
    "poisson_solve_mean": _poisson_mean,
    "point_capacities": _point_capacity_harmonicity,
    "thomson_function_bound_reversibility": _thomson_reversibility,
    "thomson_function_bound_harmonicity": _thomson_harmonicity,
    "trace_chain": _trace_chain,
    "collapse_chain": _collapse_chain,
    "enlarge_chain": _enlarge_chain,
    "is_reversible_default": _is_reversible_default,
    "resolvent_solve_range": _resolvent_range,
    "require_levels": _require_levels,
    "require_flow_class": _require_flow_class,
    "prob_vector_sum": _prob_vector_sum,
}


@pytest.mark.parametrize("case", sorted(RELATIVE_CHECKS))
def test_identity_bound_reads_package_tolerance(case, monkeypatch):
    call, error, match = RELATIVE_CHECKS[case](monkeypatch)
    with pytest.raises(error, match=match):
        call()
    monkeypatch.setattr(config, "DEFAULT", dataclasses.replace(config.DEFAULT, rel=1e-6))
    call()


def test_rel_is_the_only_relative_field():
    assert [f.name for f in dataclasses.fields(config.ToleranceConfig)] == [
        "rel", "spectral_guard", "state_guard"]


def test_default_bounds_keep_their_values():
    cfg = config.ToleranceConfig()
    assert cfg.rel == 1e-10
    assert cfg.stationary_residual == cfg.prob_sum == 1e-12
    assert cfg.input_stationary == cfg.capacity_rel == 1e-9
    assert cfg.flow_divergence == 1e-8


def test_env_tolerance_reaches_checks_from_import():
    script = (
        "import numpy as np, metastab as ms\n"
        "steps = [('1', '2'), ('2', '3'), ('3', '4')]\n"
        "bd4 = ms.build_chain('1234', [(a, b, 1.0) for x, y in steps"
        " for a, b in ((x, y), (y, x))])\n"
        "w = np.array([1.0, 1.0, 1.0, 1.0 + 1e-8])\n"
        "ms.collapse_chain(bd4, ms.ProbVector(w / w.sum()), ['1', '2'])\n"
        "print(ms.config.DEFAULT.rel)\n")
    src = str(Path(ms.__file__).resolve().parent.parent)
    env = dict(os.environ, METASTAB_TOL="1e-6", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert float(out.stdout) == 1e-6


@pytest.mark.parametrize("value", ["abc", "-1", "0", "inf", "nan"])
def test_env_tolerance_must_be_finite_and_positive(value, monkeypatch):
    monkeypatch.setenv("METASTAB_TOL", value)
    with pytest.raises(BadTolerance, match=f"METASTAB_TOL .* got '{value}'"):
        config.default_tolerances()


def test_no_function_takes_a_tolerance_object():
    for module in (chain, cli, models, numerics, pathsim, potential, reduction, specio,
                   transforms):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                assert param.name != "tol", f"{module.__name__}.{name}"
                assert not isinstance(param.default, config.ToleranceConfig), \
                    f"{module.__name__}.{name}"


def test_no_small_float_literal_outside_config():
    """Every bound is read from ``config``; the only small literals left are
    the 1e-300 division guards."""
    found = []
    for path in sorted(Path(ms.__file__).resolve().parent.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < node.value <= 1e-6 and node.value != 1e-300):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found
