"""CLI contract: reports, determinism, schema validity, exit codes."""

import json
from pathlib import Path

import jsonschema
import pytest

from metastab import reduction
from metastab.chain import stationary
from metastab.cli import main
from metastab.potential import capacity
from metastab.specio import load_chain_spec

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

    @pytest.mark.parametrize("extra, calls", [([], 3), (["--theta", "50"], 2)])
    def test_one_flux_kernel_per_result(self, monkeypatch, tmp_path, extra, calls):
        # timescales (for the default theta), coarse_rates and check_conditions
        kernel = reduction._valley_flux
        seen = []

        def counted(*args, **kwargs):
            seen.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(reduction, "_valley_flux", counted)
        report, _ = run_report(
            ["analyze", "--model", "glued_cubes:d=2,N=8,ell=2"] + extra, tmp_path)
        assert len(seen) == calls
        red = report["reduced_model"]
        for j, row in enumerate(red["jump_probabilities"]):
            for k, p in enumerate(row):
                assert p == (0.0 if j == k else red["rates"][j][k] / red["holding_rates"][j])

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

    def test_unknown_start_exits_2(self, bd3_spec, tmp_path):
        code = main(["simulate", "--spec", bd3_spec, "--start", "zz",
                     "--horizon", "10", "--out", str(tmp_path / "y")])
        assert code == 2


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

    def test_jobs_do_not_change_results(self, bd3_spec, tmp_path):
        args = ["validate", "--spec", bd3_spec, "--theta", "2", "--grid", "0.5",
                "--trials", "60", "--seed", "5"]
        r1, b1 = run_report(args + ["--jobs", "1"], tmp_path, "j1.json")
        r2, b2 = run_report(args + ["--jobs", "2"], tmp_path, "j2.json")
        assert b1 == b2

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

    def test_byte_identical(self, c3_spec, tmp_path):
        _, a = run_report(["cycles", "--spec", c3_spec], tmp_path, "a.json")
        _, b = run_report(["cycles", "--spec", c3_spec], tmp_path, "b.json")
        assert a == b


class TestEnvTolerance:
    def test_env_overrides_base_tolerance(self, monkeypatch):
        monkeypatch.setenv("METASTAB_TOL", "1e-6")
        from metastab.config import default_tolerances
        cfg = default_tolerances()
        assert cfg.rel == pytest.approx(1e-6)
        assert cfg.capacity_rel == pytest.approx(1e-5)
