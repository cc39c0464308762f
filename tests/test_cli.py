"""CLI contract: reports, determinism, schema validity, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from metastab import cli, config, pathsim, potential, reduction
from metastab.chain import Partition, stationary
from metastab.cli import main
from metastab.models import build_from_string
from metastab.pathsim import fdd_compare, sample_valleys
from metastab.potential import capacity
from metastab.reduction import coarse_rates
from metastab.specio import load_chain_spec

from conftest import (NON_REVERSIBLE, count_factors, double_well_log_conductances,
                      log_series_capacity, tamper_solves)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "metastab" / "schema"
     / "report-v1.schema.json").read_text())

BD3 = {
    "states": ["1", "2", "3"],
    "rates": [["1", "2", 1.0], ["2", "1", 1.0], ["2", "3", 1.0], ["3", "2", 1.0]],
    "partition": {"valleys": [["1"], ["3"]], "delta": ["2"]},
}

C3 = {
    "states": ["1", "2", "3"],
    "rates": [["1", "2", 1.0], ["2", "3", 1.0], ["3", "1", 1.0]],
}


BD4 = {
    "states": ["1", "2", "3", "4"],
    "rates": [[a, b, 1.0] for a, b in ("12", "21", "23", "32", "34", "43")],
    "partition": {"valleys": [["1"], ["4"]], "delta": ["2", "3"]},
}


def _path_spec(labels):
    """The path labels[0] - ... - labels[4], every rate 1.0, its middle state Delta."""
    return {
        "states": labels,
        "rates": [[s, t, 1.0] for a, b in zip(labels, labels[1:]) for s, t in ((a, b), (b, a))],
        "partition": {"valleys": [labels[:2], labels[3:]], "delta": [labels[2]]},
    }


# a path a - 1 - m - c - 2, its labels strings and JSON numbers
MIXED = _path_spec(["a", 1, "m", "c", 2])


def _edited(spec, where, value):
    """A deep copy of ``spec`` with the entry at the key path ``where`` set to ``value``."""
    spec = json.loads(json.dumps(spec))
    *path, last = where
    obj = spec
    for key in path:
        obj = obj[key]
    obj[last] = value
    return spec


@pytest.fixture
def bd3_spec(tmp_path):
    p = tmp_path / "bd3.json"
    p.write_text(json.dumps(BD3))
    return str(p)


@pytest.fixture
def c3_spec(tmp_path):
    p = tmp_path / "c3.json"
    p.write_text(json.dumps(C3))
    return str(p)


def _count_calls(monkeypatch, owner, name):
    """Record every call of ``owner.name`` in the returned list."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _under_small_guard(monkeypatch, capsys, command, model):
    """(exit code, error or None, |valley 1|) of ``command`` on ``model`` with
    ``spectral_guard`` one below |valley 1| and T_F forbidden."""
    size = len(build_from_string(model).partition.valley(1))

    def forbidden(*args, **kwargs):
        raise AssertionError("the trace chain was built")

    monkeypatch.setattr(reduction, "_trace_rates", forbidden)
    monkeypatch.setattr(config, "DEFAULT", replace(config.DEFAULT, spectral_guard=size - 1))
    code = main([command, "--model", model])
    return code, json.loads(capsys.readouterr().out).get("error"), size


def run_report(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text()), out.read_bytes()


class TestAnalyze:
    def test_bd3_report(self, bd3_spec, tmp_path):
        report, _ = run_report(["analyze", "--spec", bd3_spec, "--theta", "1"],
                               tmp_path)
        jsonschema.validate(report, SCHEMA)
        rates = report["reduced_model"]["rates"]
        assert rates[0][1] == pytest.approx(0.5, rel=1e-12)
        assert rates[1][0] == pytest.approx(0.5, rel=1e-12)
        # pi(E_j) lambda(j) = theta Cap(E_j, rest), with Cap solved on its own
        chain, part = load_chain_spec(bd3_spec)
        pi = stationary(chain)
        masses = report["stationary"]["valley_masses"]
        reduced = report["reduced_model"]
        for j in range(1, part.n + 1):
            lhs = masses[j - 1] * reduced["holding_rates"][j - 1]
            rhs = reduced["theta"] * capacity(chain, pi, sorted(part.valley(j)),
                                              sorted(part.others(j)))
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)

    def test_default_theta_is_min_timescale(self, bd3_spec, tmp_path):
        report, _ = run_report(["analyze", "--spec", bd3_spec], tmp_path)
        assert report["reduced_model"]["theta"] == pytest.approx(2.0, rel=1e-12)
        assert report["reduced_model"]["rates"][0][1] == \
            pytest.approx(1.0, rel=1e-12)

    def test_glued_model_symmetric_rates(self, tmp_path):
        report, _ = run_report(
            ["analyze", "--model", "glued_cubes:d=2,N=8,ell=2"], tmp_path)
        jsonschema.validate(report, SCHEMA)
        rates = report["reduced_model"]["rates"]
        assert len(rates) == 4
        for j in range(4):
            left = rates[j][(j - 1) % 4]
            right = rates[j][(j + 1) % 4]
            assert left == pytest.approx(right, rel=1e-9)

    @pytest.mark.parametrize("extra", [[], ["--theta", "50"]])
    def test_one_flux_kernel_per_result(self, monkeypatch, tmp_path, extra):
        # stationary's valley coupling makes the valleys' one harmonic-measure
        # solve; coarse_rates reads it, and the default theta, the time scales,
        # the jump probabilities and check_conditions read coarse_rates' result
        model = "glued_cubes:d=2,N=8,ell=2"
        delta = len(build_from_string(model).partition.delta)
        calls = _count_calls(monkeypatch, reduction, "_harmonic_measure")
        sizes = count_factors(monkeypatch)
        report, _ = run_report(["analyze", "--model", model] + extra, tmp_path)
        assert len(calls) == 1
        assert sizes.count(delta) == 1
        red = report["reduced_model"]
        for j, row in enumerate(red["jump_probabilities"]):
            for k, p in enumerate(row):
                assert p == (0.0 if j == k else red["rates"][j][k] / red["holding_rates"][j])

    @pytest.mark.parametrize("command", [["analyze"], ["validate", "--trials", "3"]],
                             ids=["analyze", "validate"])
    def test_partition_validated_once(self, monkeypatch, tmp_path, command):
        # stationary, coarse_rates, check_conditions and the sampler read one layout
        calls = _count_calls(monkeypatch, Partition, "validate_for")
        run_report(command + ["--model", "zero_range:L=3,N=30,alpha=3,p=0.5"], tmp_path)
        assert len(calls) == 1

    def test_one_factorization_larger_than_the_valleys(self, monkeypatch, tmp_path):
        # the block off the valleys: stationary reads pi off the trace chain
        # on the valleys, coarse_rates and check_conditions reuse its factor
        model = "zero_range:L=3,N=30,alpha=3,p=0.5"
        union = len(build_from_string(model).partition.union())
        sizes = count_factors(monkeypatch)
        for args in (["analyze"], ["validate", "--trials", "2", "--grid", "0.5"]):
            sizes.clear()
            run_report(args + ["--model", model], tmp_path)
            assert [m for m in sizes if m > union] == [433]

    def test_one_trace_chain_per_analyze(self, monkeypatch, tmp_path):
        # stationary builds T_F and the valley traces; check_conditions reads them
        model = "glued_cubes:d=2,N=8,ell=2"
        valleys = build_from_string(model).partition.valleys
        traces = _count_calls(monkeypatch, reduction, "_trace_rates")
        valley_traces = _count_calls(monkeypatch, reduction, "_valley_trace")
        run_report(["analyze", "--model", model], tmp_path)
        assert len(traces) == 1
        assert len(valley_traces) == sum(len(v) > 1 for v in valleys) == 4

    def test_spectral_guard_exits_3_before_the_trace_chain(self, monkeypatch, capsys):
        code, err, size = _under_small_guard(monkeypatch, capsys, "analyze", NON_REVERSIBLE)
        assert code == 3
        assert err["type"] == "TooLarge"
        assert err["message"].startswith("stationary: valley 1: ")
        assert err["message"].endswith(f"{size} states exceed the guard {size - 1}")

    def test_spectral_guard_on_the_tree_route_names_check_conditions(self, monkeypatch,
                                                                      capsys):
        # the tree law needs no valley trace; check_conditions meets the guard
        code, err, size = _under_small_guard(monkeypatch, capsys, "analyze",
                                             "glued_cubes:d=2,N=8,ell=2")
        assert code == 3
        assert err["type"] == "TooLarge"
        assert err["message"].startswith("check_conditions: valley 1: ")
        assert err["message"].endswith(f"{size} states exceed the guard {size - 1}")

    @pytest.mark.parametrize("model", [
        "potential_rw:N=16,points=41", "potential_rw:N=32,points=41",
        "potential_rw:N=64,points=41", "potential_rw:N=16,points=81",
        "potential_rw:N=32,points=81", "potential_rw:N=64,points=81",
    ])
    def test_deep_wells(self, model, tmp_path):
        report, _ = run_report(["analyze", "--model", model], tmp_path)
        pi = build_from_string(model).pi_formula.weights
        assert report["stationary"]["min"] == pytest.approx(pi.min(), rel=1e-12)

    @pytest.mark.parametrize("points, N", [
        (41, 8), (41, 16), (41, 32), (41, 64), (81, 8), (81, 16), (81, 32), (81, 64),
    ])
    def test_deep_wells_against_the_series_oracle(self, tmp_path, points, N):
        # a 1-D walk is a birth-death chain: each capacity is a series conductance
        model = f"potential_rw:N={N},points={points}"
        report, _ = run_report(["analyze", "--model", model], tmp_path)
        spec = build_from_string(model)
        chain, valleys = spec.chain, [spec.chain.indices_of(v) for v in spec.partition.valleys]
        log_pi, log_c = double_well_log_conductances(points, N)
        assert valleys[0].max() < valleys[1].min()
        log_cap = log_series_capacity(log_c, valleys[0].max(), valleys[1].min())
        log_theta = np.array([np.logaddexp.reduce(log_pi[e]) - log_cap for e in valleys])
        log_point = [max(-log_series_capacity(log_c, x, chain.index[ref]) for x in e
                         if x != chain.index[ref])
                     for e, ref in zip(valleys, report["conditions"]["reference_states"])]

        def relerr(value, log_exact):
            return np.abs(np.expm1(np.log(value) - log_exact))

        rates = np.array(report["reduced_model"]["rates"])
        assert relerr(report["capacities"]["timescales"], log_theta).max() <= 1e-12
        assert relerr([rates[0, 1], rates[1, 0]], log_theta.min() - log_theta).max() <= 1e-12
        assert relerr(report["conditions"]["capacity_ratio"],
                      log_cap + np.array(log_point)).max() <= 1e-12

    def test_underflow_is_a_named_solver_failure(self, capsys):
        # pi at the rim of the deepest wells is below the smallest double
        assert main(["analyze", "--model", "potential_rw:N=120,points=41"]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        assert err["message"].startswith("stationary: pi('")
        assert "an irreducible chain has pi > 0" in err["message"]

    @staticmethod
    def _cut_first_valley_trace(monkeypatch, model):
        # valley 1's trace loses every rate out of one state
        trace = reduction._valley_trace
        calls = []

        def cut(rates, e):
            out = trace(rates, e)
            calls.append(1)
            if len(calls) == 1:
                out[0] = 0.0
            return out

        monkeypatch.setattr(reduction, "_valley_trace", cut)
        return main(["analyze", "--model", model])

    def test_disconnected_valley_trace_is_a_named_solver_failure(self, capsys, monkeypatch):
        assert self._cut_first_valley_trace(monkeypatch, NON_REVERSIBLE) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        assert re.fullmatch(r"stationary: valley 1: its trace chain is not irreducible: "
                            r"'.+' is unreachable from '.+'", err["message"])

    def test_disconnected_valley_trace_on_the_tree_route(self, capsys, monkeypatch):
        assert self._cut_first_valley_trace(monkeypatch, "glued_cubes:d=2,N=6,ell=1") == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        assert re.fullmatch(r"check_conditions: valley 1: its trace chain is not irreducible: "
                            r"'.+' is unreachable from '.+'", err["message"])

    @pytest.mark.parametrize("command", ["analyze", "cycles"])
    def test_trace_chain_errors_name_their_stage(self, capsys, monkeypatch, command):
        # every solve with many right-hand sides is off by 1e-6
        tamper_solves(monkeypatch, lambda b, x: x * (1.0 + 1e-6) if b.ndim == 2 else x)
        assert main([command, "--model", NON_REVERSIBLE]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        assert err["message"].startswith("stationary: harmonic measure off the boundary")

    def test_trace_chain_errors_on_the_tree_route(self, capsys, monkeypatch, tmp_path):
        # the tree law solves nothing: analyze meets the tamper in coarse_rates,
        # and cycles makes no solve at all
        tamper_solves(monkeypatch, lambda b, x: x * (1.0 + 1e-6) if b.ndim == 2 else x)
        model = "glued_cubes:d=2,N=8,ell=2"
        assert main(["analyze", "--model", model]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        assert err["message"].startswith("coarse_rates: harmonic measure off the boundary")
        run_report(["cycles", "--model", model], tmp_path)

    @staticmethod
    def _valley_flux_error(capsys, monkeypatch, model):
        # only the valleys' harmonic-measure solve, one column per valley, is off
        valleys = build_from_string(model).partition.n
        tamper_solves(monkeypatch, lambda b, x: x * (1.0 + 1e-6)
                      if b.shape[1:] == (valleys,) else x)
        assert main(["analyze", "--model", model]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "SolverFailure"
        return err["message"]

    def test_valley_flux_solve_errors_name_stationary(self, capsys, monkeypatch):
        assert self._valley_flux_error(capsys, monkeypatch, NON_REVERSIBLE).startswith(
            "stationary: harmonic measure off the boundary")

    def test_valley_flux_solve_errors_on_the_tree_route_name_coarse_rates(
            self, capsys, monkeypatch):
        message = self._valley_flux_error(capsys, monkeypatch, "glued_cubes:d=2,N=8,ell=2")
        assert message.startswith("coarse_rates: harmonic measure off the boundary")

    def test_the_chain_picks_the_route(self, monkeypatch, tmp_path):
        # a reversible chain takes the tree law with or without a partition,
        # so validate and cycles build neither T_F nor a valley trace
        traces = [_count_calls(monkeypatch, module, "_trace_rates")
                  for module in (potential, reduction)]
        traces.append(_count_calls(monkeypatch, reduction, "_valley_trace"))
        laws = _count_calls(monkeypatch, reduction, "_trace_law")
        run_report(["validate", "--model", "zero_range:L=3,N=30,alpha=3,p=0.5",
                    "--trials", "2"], tmp_path)
        run_report(["cycles", "--model", "glued_cubes:d=2,N=32,ell=8"], tmp_path)
        assert traces == [[], [], []] and laws == []
        run_report(["analyze", "--model", "zero_range:L=4,N=20,alpha=3,p=0.7"], tmp_path)
        assert len(laws) == 1

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path):
        # one process runs --theta 50 and then the default; each report
        # matches the one a fresh process writes
        model = "glued_cubes:d=2,N=4,ell=1"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for extra in (["--theta", "50"], []):
            args = ["analyze", "--model", model] + extra
            _, here = run_report(args, tmp_path)
            fresh = tmp_path / "fresh.json"
            subprocess.run([sys.executable, "-m", "metastab.cli", *args, "--out", str(fresh)],
                           env=env, check=True)
            assert here == fresh.read_bytes()

    @pytest.mark.parametrize("theta", ["0", "-1", "nan", "inf"])
    def test_bad_theta_exits_2(self, bd3_spec, capsys, theta):
        assert main(["analyze", "--spec", bd3_spec, f"--theta={theta}"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "BadSpec" and "theta" in err["message"]

    def test_byte_identical_reruns(self, bd3_spec, tmp_path):
        _, first = run_report(["analyze", "--spec", bd3_spec], tmp_path, "a.json")
        _, second = run_report(["analyze", "--spec", bd3_spec], tmp_path, "b.json")
        assert first == second

    def test_missing_partition_exits_2(self, c3_spec, capsys):
        code = main(["analyze", "--spec", c3_spec])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert "partition" in err["error"]["message"]

    def test_conflicting_inputs_exit_2(self, bd3_spec):
        assert main(["analyze", "--spec", bd3_spec, "--model", "x:y=1"]) == 2

    def test_infinite_spec_rate_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "inf.json"
        spec.write_text(json.dumps(BD3).replace("1.0]", "Infinity]", 1))
        assert main(["analyze", "--spec", str(spec)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "NonPositiveRate" and "('1', '2')" in err["message"]

    @pytest.mark.parametrize("spec, partition, field", [
        (_edited(BD3, ("rates", 0, 2), "abc"), None, "rates"),
        (_edited(BD3, ("rates", 0, 2), None), None, "rates"),
        (_edited(BD3, ("rates", 0, 2), True), None, "rates"),
        (_edited(BD3, ("states", 0), ["1"]), None, "states"),
        (BD3, {"valleys": [[["1"]], ["3"]], "delta": ["2"]}, "valleys"),
        (_edited(BD4, ("partition", "delta"), "23"), None, "delta"),
    ], ids=["string-rate", "null-rate", "boolean-rate", "list-label", "list-in-valley",
            "string-delta"])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, spec, partition, field):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["analyze", "--spec", str(tmp_path / "spec.json")]
        if partition is not None:
            (tmp_path / "part.json").write_text(json.dumps(partition))
            argv += ["--partition", str(tmp_path / "part.json")]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "BadSpec" and repr(field) in err["message"]

    def test_too_few_model_points_exits_2(self, capsys):
        assert main(["analyze", "--model", "potential_rw:N=8,points=-1"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "BadParams" and "points" in err["message"]

    def test_resource_guard_exits_3(self):
        assert main(["analyze", "--model", "zero_range:L=6,N=60,alpha=3,p=0.5"]) == 3


class TestSimulate:
    def test_reruns_byte_identical(self, bd3_spec, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            code = main(["simulate", "--spec", bd3_spec, "--start", "1",
                         "--horizon", "20", "--trials", "2", "--seed", "7",
                         "--out", str(d)])
            assert code == 0
        for name in ("trajectory_0000.csv", "trajectory_0001.csv", "summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_trials_drawn_together_match_single_paths(self, bd3_spec, monkeypatch, tmp_path):
        sampler, widths = pathsim._trajectories, []

        def recorded(tables, guide, starts, *args):
            widths.append(len(starts))
            return sampler(tables, guide, starts, *args)

        monkeypatch.setattr(pathsim, "_trajectories", recorded)
        d = tmp_path / "sim"
        assert main(["simulate", "--spec", bd3_spec, "--start", "1", "--horizon", "300",
                     "--trials", "3", "--seed", "7", "--out", str(d)]) == 0
        assert widths == [3]
        chain, _ = load_chain_spec(bd3_spec)
        for trial in range(3):
            one = tmp_path / "one.csv"
            cli._write_trajectory(pathsim.simulate(chain, "1", 300.0, (7, trial)), one)
            assert (d / f"trajectory_{trial:04d}.csv").read_bytes() == one.read_bytes()
        assert widths == [3, 1, 1, 1]

    def test_trace_surgery_valley_alphabet(self, bd3_spec, tmp_path):
        d = tmp_path / "sim"
        code = main(["simulate", "--spec", bd3_spec, "--start", "1",
                     "--horizon", "50", "--trials", "1", "--seed", "3",
                     "--surgery", "trace", "--out", str(d)])
        assert code == 0
        rows = (d / "trajectory_0000.csv").read_text().strip().splitlines()[1:]
        states = {row.split(",")[1] for row in rows}
        assert states <= {"1", "2"}  # valley indices only
        summary = json.loads((d / "summary.json").read_text())
        assert summary["surgery"] == "trace"

    def test_last_passage_from_delta_exits_2(self, bd3_spec, tmp_path):
        code = main(["simulate", "--spec", bd3_spec, "--start", "2",
                     "--horizon", "10", "--trials", "1", "--seed", "1",
                     "--surgery", "last_passage", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_failed_surgery_leaves_no_files(self, bd3_spec, tmp_path, capsys):
        # trial 5 never leaves the separating set before the horizon
        out = tmp_path / "new" / "sim"
        code = main(["simulate", "--spec", bd3_spec, "--start", "2", "--horizon", "0.5",
                     "--trials", "6", "--seed", "2", "--surgery", "trace", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == ("BadSubset",
                                                 "trial 5: path never visits the trace set")
        assert not (tmp_path / "new").exists()

    def test_unknown_start_exits_2(self, bd3_spec, tmp_path):
        code = main(["simulate", "--spec", bd3_spec, "--start", "zz",
                     "--horizon", "10", "--out", str(tmp_path / "y")])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "inf"), ("--horizon", "nan"), ("--trials", "0"),
    ])
    def test_bad_flag_exits_2_before_simulating(self, bd3_spec, monkeypatch, capsys,
                                                tmp_path, flag, value):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulate ran with a bad flag")

        monkeypatch.setattr(pathsim, "_trajectories", forbidden)
        args = {"--horizon": "10", "--trials": "1", flag: value}
        code = main(["simulate", "--spec", bd3_spec, "--start", "1",
                     "--out", str(tmp_path / "z")]
                    + [f"{k}={v}" for k, v in args.items()])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert flag in err["message"]


class TestValidate:
    def test_bd3_validation_report(self, bd3_spec, tmp_path):
        report, _ = run_report(
            ["validate", "--spec", bd3_spec, "--theta", "2", "--grid", "0.5,1",
             "--trials", "400", "--seed", "5", "--delta", "0.5"], tmp_path)
        jsonschema.validate(report, SCHEMA)
        rows = report["validation"]["fdd"]["rows"]
        assert [r["t"] for r in rows] == [0.5, 1.0]
        for r in rows:
            assert 0.0 <= r["tv"] <= 1.0
        assert report["validation"]["delta_occupation"]["worst_mean"] > 0
        # exact floats of the (seed, trial) streams: any drift in the draws fails
        assert [r["tv"] for r in rows] == [0.35, 0.345]
        assert report["validation"]["delta_occupation"]["worst_mean"] == \
            0.30691973213617346
        assert report["validation"]["short_time_delta_probability"]["sup"] == 0.3975

    def test_jump_tables_built_once(self, bd3_spec, monkeypatch, tmp_path):
        # 20 trials from each of the 2 reference states, one sample read by all
        # three validators, all on one pair of jump and guide tables
        sampler = pathsim._trajectories
        calls = []

        def recorded(tables, guide, starts, *args):
            calls.append((tables, guide, len(starts)))
            return sampler(tables, guide, starts, *args)

        monkeypatch.setattr(pathsim, "_trajectories", recorded)
        run_report(["validate", "--spec", bd3_spec, "--grid", "0.5", "--trials", "20",
                    "--seed", "5"], tmp_path)
        assert sum(paths for _, _, paths in calls) == 40
        assert all(t is calls[0][0] and g is calls[0][1] for t, g, _ in calls)

    def test_one_pool(self, bd3_spec, pools, tmp_path):
        args = ["validate", "--spec", bd3_spec, "--theta", "2", "--grid", "0.5",
                "--trials", "20", "--seed", "5"]
        _, pooled = run_report(args + ["--jobs", "2"], tmp_path, "j2.json")
        assert pools == [2]
        assert pooled == run_report(args + ["--jobs", "1"], tmp_path, "j1.json")[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_start_outside_the_reference_states(self, tmp_path, jobs):
        model = "glued_cubes:d=2,N=4,ell=1"
        spec = build_from_string(model)
        chain, partition = spec.chain, spec.partition
        pi = stationary(chain, partition)
        start = min(partition.valley(1) - {partition.reference_states(chain, pi)[0]})
        args = ["validate", "--model", model, "--grid", "0.5,1", "--trials", "30",
                "--seed", "4", "--jobs", jobs]
        default, _ = run_report(args, tmp_path, "default.json")
        moved, _ = run_report(args + ["--start", start], tmp_path, "moved.json")
        # the start's own sample: stream i = 1, the grid times only
        reduced = coarse_rates(chain, pi, partition, None)
        own = sample_valleys(chain, partition, [t * reduced.theta for t in (0.5, 1.0)], 30, 4,
                             [start])
        rows = [row._asdict() for row in fdd_compare(own, reduced, [0.5, 1.0], start).rows]
        assert moved["validation"]["fdd"]["start"] == start
        assert moved["validation"]["fdd"]["rows"] == json.loads(json.dumps(rows))
        assert moved["validation"]["fdd"]["rows"] != default["validation"]["fdd"]["rows"]
        for section in ("delta_occupation", "short_time_delta_probability"):
            assert json.dumps(moved["validation"][section]) == \
                json.dumps(default["validation"][section])

    def test_jobs_do_not_change_results(self, bd3_spec, tmp_path):
        args = ["validate", "--spec", bd3_spec, "--theta", "2", "--grid", "0.5",
                "--trials", "60", "--seed", "5"]
        r1, b1 = run_report(args + ["--jobs", "1"], tmp_path, "j1.json")
        r2, b2 = run_report(args + ["--jobs", "2"], tmp_path, "j2.json")
        assert b1 == b2

    def test_one_flux_kernel(self, bd3_spec, monkeypatch, tmp_path):
        calls = _count_calls(monkeypatch, reduction, "_harmonic_measure")
        run_report(["validate", "--spec", bd3_spec, "--grid", "0.5", "--trials", "20",
                    "--seed", "5"], tmp_path)
        assert len(calls) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--theta", "inf"), ("--trials", "0"), ("--trials", "-3"),
        ("--delta", "inf"), ("--delta", "nan"), ("--grid", "0.5,nan"),
        ("--grid", "1,inf"), ("--grid", "0.5,x"), ("--grid", ","), ("--grid", "0"),
        ("--grid", "-0.5,1"), ("--grid", "1,1,2"),
        ("--jobs", "0"), ("--jobs", "-3"),
    ])
    def test_bad_flag_exits_2_before_simulating(self, bd3_spec, monkeypatch, capsys,
                                                flag, value):
        def forbidden(*args, **kwargs):
            raise AssertionError("validate simulated with a bad flag")

        monkeypatch.setattr(pathsim, "_trajectories", forbidden)
        assert main(["validate", "--spec", bd3_spec, f"{flag}={value}"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert flag.lstrip("-") in err["message"]

    @pytest.mark.parametrize("start, error", [("zz", "BadSpec"), ("2", "BadPartition")])
    def test_bad_start_exits_2_before_simulating(self, bd3_spec, monkeypatch, capsys,
                                                 start, error):
        def forbidden(*args, **kwargs):
            raise AssertionError("validate simulated from a bad start")

        monkeypatch.setattr(pathsim, "_trajectories", forbidden)
        assert main(["validate", "--spec", bd3_spec, "--start", start]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == error and repr(start) in err["message"]

    def test_unknown_flag_exits_2(self, bd3_spec):
        with pytest.raises(SystemExit) as err:
            main(["validate", "--spec", bd3_spec, "--bogus", "1"])
        assert err.value.code == 2


class TestCycles:
    def test_cycle_chain(self, c3_spec, tmp_path):
        report, _ = run_report(["cycles", "--spec", c3_spec], tmp_path)
        jsonschema.validate(report, SCHEMA)
        assert report["cycles"]["count"] == 1
        assert report["cycles"]["max_length"] == 3
        assert report["cycles"]["reconstruction_residual"] <= 1e-12

    def test_reversible_spec_two_cycles(self, bd3_spec, tmp_path):
        report, _ = run_report(["cycles", "--spec", bd3_spec], tmp_path)
        assert report["cycles"]["max_length"] == 2
        assert report["cycles"]["reconstruction_residual"] <= 1e-12

    def test_steep_rates_are_explained(self, tmp_path):
        # the rates span 6.5e60; every edge lies on one of the 40 two-cycles,
        # and the cycles through an edge add up to its rate, the smallest too
        model = "potential_rw:N=64,points=41"
        report, _ = run_report(["cycles", "--model", model], tmp_path)
        chain = build_from_string(model).chain
        assert report["cycles"]["count"] == 40
        assert report["cycles"]["max_length"] == 2
        assert report["cycles"]["reconstruction_residual"] <= \
            config.DEFAULT.input_stationary * chain.max_rate
        explained = {}
        for cycle in report["cycles"]["cycles"]:
            labels = cycle["vertices"]
            for a, b, rate in zip(labels, labels[1:] + labels[:1], cycle["rates"]):
                explained[a, b] = explained.get((a, b), 0.0) + rate
        assert max(abs(explained.get((a, b), 0.0) - rate) / rate
                   for a, b, rate in chain.edges()) <= 1e-12

    def test_spectral_guard_exits_3(self, monkeypatch, capsys):
        # a non-reversible model's partition routes pi through the valley traces
        code, err, _ = _under_small_guard(monkeypatch, capsys, "cycles", NON_REVERSIBLE)
        assert code == 3
        assert err["type"] == "TooLarge"
        assert err["message"].startswith("stationary: valley 1: ")

    def test_reversible_model_needs_no_valley_trace(self, monkeypatch, capsys):
        code, err, _ = _under_small_guard(monkeypatch, capsys, "cycles",
                                          "glued_cubes:d=2,N=8,ell=2")
        assert (code, err) == (0, None)

    def test_unexplained_rates_exit_4(self, c3_spec, capsys, monkeypatch):
        decompose = cli.cycle_decompose

        def dropped(chain, pi):
            dec = decompose(chain, pi)
            return replace(dec, cycles=dec.cycles[1:])

        monkeypatch.setattr(cli, "cycle_decompose", dropped)
        assert main(["cycles", "--spec", c3_spec]) == 4
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ToleranceViolation"
        assert err["message"].startswith("cycles: reconstruction residual 1.000e+00 exceeds ")

    def test_byte_identical(self, c3_spec, tmp_path):
        _, a = run_report(["cycles", "--spec", c3_spec], tmp_path, "a.json")
        _, b = run_report(["cycles", "--spec", c3_spec], tmp_path, "b.json")
        assert a == b


class TestMixedLabels:
    """State labels that are strings and JSON numbers in one spec."""

    @pytest.fixture
    def mixed_spec(self, tmp_path):
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(MIXED))
        return str(p)

    @pytest.mark.parametrize("args", [["analyze"], ["cycles"],
                                      ["validate", "--trials", "5", "--grid", "0.5,1"]])
    def test_reports_follow_the_schema(self, args, mixed_spec, tmp_path):
        report, _ = run_report(args + ["--spec", mixed_spec], tmp_path)
        jsonschema.validate(report, SCHEMA)

    def test_trace_surgery(self, mixed_spec, tmp_path):
        assert main(["simulate", "--spec", mixed_spec, "--start", "a", "--horizon", "5",
                     "--surgery", "trace", "--out", str(tmp_path / "sim")]) == 0

    def test_number_label_starts(self, mixed_spec, tmp_path):
        assert main(["simulate", "--spec", mixed_spec, "--start", "1", "--horizon", "5",
                     "--out", str(tmp_path / "sim")]) == 0
        report, _ = run_report(["validate", "--spec", mixed_spec, "--start", "1",
                                "--trials", "3"], tmp_path)
        assert report["validation"]["fdd"]["start"] == "1"

    @pytest.mark.parametrize("command", [["simulate", "--horizon", "5"],
                                         ["validate", "--trials", "3"]],
                             ids=["simulate", "validate"])
    def test_start_naming_two_labels_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(_path_spec(["a", 1, "m", "c", "1"])))
        assert main(command + ["--spec", str(path), "--start", "1",
                               "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["type"], err["message"]) == (
            "BadSpec", "start state '1' matches the labels 1 and '1'")

    def test_partition_that_misses_both_kinds(self, mixed_spec, tmp_path, capsys):
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"valleys": [["c", 2]], "delta": ["m"]}))
        assert main(["analyze", "--spec", mixed_spec, "--partition", str(partition)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "BadPartition"
        assert err["message"] == "partition misses states [1, 'a']"


class TestEnvTolerance:
    def test_env_overrides_base_tolerance(self, monkeypatch):
        monkeypatch.setenv("METASTAB_TOL", "1e-6")
        from metastab.config import default_tolerances
        cfg = default_tolerances()
        assert cfg.rel == pytest.approx(1e-6)
        assert cfg.capacity_rel == pytest.approx(1e-5)

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_env_tolerance_exits_2(self, bd3_spec, value):
        # a fresh process: the tolerances are read from the environment once
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, METASTAB_TOL=value, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "metastab.cli", "analyze",
                               "--spec", bd3_spec], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        err = json.loads(proc.stdout)["error"]
        assert err["type"] == "BadTolerance"
        assert err["message"] == \
            f"METASTAB_TOL must be a finite positive number, got '{value}'"
