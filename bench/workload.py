"""One benchmark workload, or one set-up probe, in a process of its own.

``run.py`` starts this file with OpenBLAS/OpenMP pinned to one thread, the
checkout's ``src`` on PYTHONPATH and a fixed hash seed.  The address-space
limit is applied first, before numpy is imported, so a dense blow-up becomes
a counted MemoryError instead of exhausting the machine.

The load is a closed loop with one client: the workload's operations run
back to back, in whole passes over its rungs, for the number of passes that
comes nearest to ``--seconds``.  Every operation's output is checked outside the timed region, and
a failed check counts the operation as failed.  The last stdout line is a
JSON object with the raw counts that ``run.py`` turns into metrics.
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "metastab" / "schema" / "report-v1.schema.json"

SETUP_MODEL = "glued_cubes:d=2,N=4,ell=1"
# Address-space cap of this process.  reduce-large peaks near 1 GB of address
# space; the cap turns a dense blow-up into a counted MemoryError.
MEM_LIMIT_MB = 3072

# Rungs that pass every output check at the seed commit; the rungs left out,
# and why, are listed in NOTES.md.
SWEEP = (
    "glued_cubes:d=2,N=8,ell=2",
    "glued_cubes:d=2,N=16,ell=4",
    "zero_range:L=3,N=30,alpha=3,p=0.5",
    "zero_range:L=3,N=60,alpha=3,p=0.7",
    "zero_range:L=4,N=20,alpha=3,p=0.7",
)
LARGE = (
    "glued_cubes:d=3,N=12,ell=3",
    "zero_range:L=4,N=28,alpha=3,p=0.7",
)
VALIDATE_MODEL = "zero_range:L=3,N=30,alpha=3,p=0.5"
VALIDATE_TRIALS = 20

# Relative tolerance of the pi-vs-pi_formula and reduced-model identity checks.
REL_TOL = 1e-9
# An fdd row fails when its TV distance exceeds this many standard errors.
# The report's standard error is floored by that of the reduced law, so a
# degenerate sample (every trial in one valley) cannot make it zero.  With 20
# trials, multinomial draws from the reduced law exceed the limit in about
# 1 call in 2,500.
TV_STDERR_MULTIPLE = 3.0

# Function name -> span name, by the layer (module) that defines it.
SPAN_NAMES = {
    "build_from_string": "models.build",
    "stationary": "chain.stationary",
    "spectral_gap": "chain.spectral_gap",
    "capacity": "potential.capacity",
    "trace_chain": "transforms.trace_chain",
    "collapse_chain": "transforms.collapse_chain",
    "reflected_chain": "transforms.reflected_chain",
    "timescales": "reduction.timescales",
    "coarse_rates": "reduction.coarse_rates",
    "jump_probabilities": "reduction.jump_probabilities",
    "check_conditions": "reduction.check_conditions",
    "solve_linear": "numerics.solve_linear",
    "splu": "numerics.splu",
    "simulate": "pathsim.simulate",
    "fdd_compare": "pathsim.fdd_compare",
    "estimate_T2": "pathsim.estimate_T2",
    "estimate_91": "pathsim.estimate_91",
}


class CheckFailed(Exception):
    pass


def _relerr(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_reduced(rates, holding, probs, masses, caps, theta):
    """p(j, k) = r(j, k) / lambda(j) and pi(E_j) lambda(j) = theta Cap(E_j, rest)."""
    n = len(rates)
    for j in range(n):
        for k in range(n):
            if k != j:
                err = _relerr(probs[j][k], rates[j][k] / holding[j])
                _require(err <= REL_TOL, f"p({j + 1},{k + 1}) vs r/lambda: rel err {err:.3e}")
        err = _relerr(masses[j] * holding[j], theta * caps[j])
        _require(err <= REL_TOL, f"valley {j + 1} mass*holding vs theta*cap: rel err {err:.3e}")


class Workload:
    """Rungs, one timed operation per rung, and its untimed output check."""

    def __init__(self, ms, name, seed):
        import jsonschema
        import numpy as np

        self.ms = ms
        self.np = np
        self.name = name
        self.seed = seed
        self.schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
        self.validate_schema = jsonschema.validate
        self.pi_relerr_max = 0.0
        self._facts = {}
        if name == "reduce-sweep":
            self.rungs = list(SWEEP)
        elif name == "reduce-large":
            self.rungs = list(LARGE)
        else:
            self.rungs = [VALIDATE_MODEL]
        random.Random(seed).shuffle(self.rungs)

    # -- timed operations ---------------------------------------------------

    def run(self, rung, tracer=None):
        if self.name == "reduce-large":
            return self._pipeline(rung)
        if self.name == "reduce-sweep":
            argv = ["analyze", "--model", rung]
        else:
            argv = ["validate", "--model", rung, "--trials", str(VALIDATE_TRIALS),
                    "--jobs", "1", "--seed", str(self.seed)]
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        buf = io.StringIO()
        with span, contextlib.redirect_stdout(buf):
            code = self.ms.cli.main(argv)
        return code, buf.getvalue()

    def _pipeline(self, rung):
        ms = self.ms
        spec = ms.build_from_string(rung)
        chain, partition = spec.chain, spec.partition
        pi = ms.stationary(chain)
        profile = ms.timescales(chain, pi, partition)
        theta = float(profile.values.min())
        model = ms.coarse_rates(chain, pi, partition, theta)
        probs = [ms.jump_probabilities(chain, pi, partition, j)
                 for j in range(1, partition.n + 1)]
        return spec, pi, model, probs

    # -- untimed checks -----------------------------------------------------

    def _pi_check(self, pi, formula):
        np = self.np
        err = float(np.max(np.abs(pi - formula) / formula))
        self.pi_relerr_max = max(self.pi_relerr_max, err)
        _require(err <= REL_TOL, f"pi vs pi_formula: entrywise rel err {err:.3e}")

    def _rung_facts(self, rung):
        """State count of a CLI rung and the check of metastab.stationary on it."""
        if rung not in self._facts:
            spec = self.ms.build_from_string(rung)
            try:
                self._pi_check(self.ms.stationary(spec.chain).weights, spec.pi_formula.weights)
                problem = None
            except CheckFailed as exc:
                problem = str(exc)
            self._facts[rung] = (spec.chain.n, problem)
        return self._facts[rung]

    def check(self, rung, out):
        """Raise CheckFailed on a wrong output; return the rung's state count."""
        if self.name == "reduce-large":
            spec, pi, model, probs = out
            self._pi_check(pi.weights, spec.pi_formula.weights)
            n = model.valley_count
            check_reduced(model.rates.tolist(), model.holding_rates.tolist(),
                          [[row.get(k + 1, 0.0) for k in range(n)] for row in probs],
                          model.diagnostics["valley_masses"],
                          model.diagnostics["valley_capacities"], model.theta)
            return spec.chain.n
        code, text = out
        report = json.loads(text)
        if code != 0:
            raise CheckFailed(f"exit {code} {report.get('error', {}).get('type')}")
        self.validate_schema(report, self.schema)
        n, problem = self._rung_facts(rung)
        _require(problem is None, problem)
        if self.name == "reduce-sweep":
            red = report["reduced_model"]
            check_reduced(red["rates"], red["holding_rates"], red["jump_probabilities"],
                          report["stationary"]["valley_masses"],
                          report["capacities"]["valley_escape"], red["theta"])
        else:
            fdd = report["validation"]["fdd"]
            for row in fdd["rows"]:
                total = sum(row["empirical"]) + row["delta_mass"]
                _require(abs(total - 1.0) <= 1e-12, f"fdd t={row['t']}: mass {total!r}")
                se_reduced = 0.5 * sum((p * (1.0 - p) / fdd["trials"]) ** 0.5
                                       for p in row["reduced"])
                limit = TV_STDERR_MULTIPLE * max(row["stderr"], se_reduced)
                _require(row["tv"] <= limit,
                         f"fdd t={row['t']}: tv {row['tv']:.3g} > {limit:.3g}")
        return n


def _execute(workload, rung, tracer=None):
    """Run one operation; return (wall seconds, output, error or None)."""
    t0 = time.perf_counter()
    try:
        out, error = workload.run(rung, tracer), None
    except Exception as exc:  # a failed operation is data: record it and go on
        traceback.print_exc(file=sys.stderr)
        out, error = None, type(exc).__name__
    return time.perf_counter() - t0, out, error


def _verify(workload, rung, out):
    """Check one output; return (states credited, error or None)."""
    try:
        return workload.check(rung, out), None
    except CheckFailed as exc:
        return 0, f"check: {exc}"
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return 0, f"check: {type(exc).__name__}"


def _trace_targets(ms):
    """(owner, attribute, span name, result hook) for every wrapped function."""
    import scipy.sparse.linalg as spla

    def jumps(rec, path):
        rec["jumps"] = len(path.events)

    lookups = [
        (ms.cli, ("stationary", "timescales", "coarse_rates", "jump_probabilities",
                  "check_conditions", "build_from_string", "fdd_compare",
                  "estimate_T2", "estimate_91")),
        (ms.reduction, ("capacity", "spectral_gap", "stationary", "trace_chain",
                        "collapse_chain", "reflected_chain")),
        # the reduce-large pipeline looks its functions up on the package
        (ms, ("build_from_string", "stationary", "timescales", "coarse_rates",
              "jump_probabilities")),
        (ms.numerics, ("solve_linear",)),
        (spla, ("splu",)),
        (ms.pathsim, ("simulate",)),
    ]
    return [(owner, attr, SPAN_NAMES[attr], jumps if attr == "simulate" else None)
            for owner, attrs in lookups for attr in attrs]


def layer_metrics(spans, passes, pi_relerr_max, overhead_frac):
    """Per-pass per-layer numbers derived from the recorded spans."""
    summary = summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0) / passes

    out = {}
    for name in ("reduction.check_conditions", "potential.capacity", "numerics.solve_linear",
                 "chain.spectral_gap", "cli.analyze", "transforms.collapse_chain",
                 "transforms.trace_chain", "transforms.reflected_chain",
                 "reduction.jump_probabilities", "reduction.coarse_rates",
                 "reduction.timescales", "chain.stationary", "models.build",
                 "pathsim.simulate", "pathsim.fdd_compare", "pathsim.estimate_T2",
                 "pathsim.estimate_91", "cli.validate"):
        out[f"{name}_s"] = get(name, "s")
    for name in ("potential.capacity", "numerics.solve_linear", "numerics.splu",
                 "chain.stationary", "pathsim.simulate"):
        out[f"{name}_calls"] = get(name, "calls")
    out["reduction.check_conditions_self_s"] = get("reduction.check_conditions", "self_s")
    out["potential.capacity_self_s"] = get("potential.capacity", "self_s")
    out["pathsim.estimators_self_s"] = sum(
        get(name, "self_s")
        for name in ("pathsim.fdd_compare", "pathsim.estimate_T2", "pathsim.estimate_91"))
    out["pathsim.jumps"] = get("pathsim.simulate", "jumps")
    sim_s = out["pathsim.simulate_s"]
    out["pathsim.jumps_per_s"] = out["pathsim.jumps"] / sim_s if sim_s > 0 else 0.0
    out["chain.pi_relerr_max"] = pi_relerr_max
    out["trace.overhead_frac"] = overhead_frac
    return out


def setup_probe():
    """Seconds to import metastab and run one small analyze, in this fresh process."""
    t0 = time.perf_counter()
    import metastab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = metastab.cli.main(["analyze", "--model", SETUP_MODEL])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"set-up call exited {code}")
    return elapsed


def _import_metastab():
    import metastab
    import metastab.cli

    if Path(metastab.__file__).resolve().parent != SRC / "metastab":
        raise SystemExit(f"metastab imported from {metastab.__file__}, not from {SRC}")
    return metastab


def run_workload(name, seed, seconds, traced, spans_path):
    ms = _import_metastab()
    workload = Workload(ms, name, seed)
    tracer = Tracer()
    targets = _trace_targets(ms) if traced else None
    attempted = failed = states_ok = passes = 0
    wall = {False: 0.0, True: 0.0}
    failures = []
    start = time.perf_counter()
    pass_s = 0.0
    # stop at the pass boundary nearest to ``seconds``
    while passes == 0 or time.perf_counter() - start + pass_s / 2 < seconds:
        pass_start = time.perf_counter()
        for i, rung in enumerate(workload.rungs):
            # in the traced run each rung runs untraced and traced, the order
            # alternating so neither side always gets the warmer start
            modes = ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,)
            for mode in modes:
                if mode:
                    with tracer.installed(targets), tracer.span("op", op=attempted, rung=rung):
                        dt, out, error = _execute(workload, rung, tracer)
                else:
                    dt, out, error = _execute(workload, rung)
                states = 0
                if error is None:
                    states, error = _verify(workload, rung, out)
                out = None  # free this output before the next operation runs
                attempted += 1
                wall[mode] += dt
                states_ok += states
                if error is not None:
                    failed += 1
                    failures.append({"rung": rung, "traced": mode, "error": error})
                print(f"{name} {rung} traced={int(mode)} {dt:.3f}s "
                      f"{'ok' if error is None else error}", file=sys.stderr)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    import numpy
    import scipy

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "passes": passes,
        "wall_s": wall[False],
        "states_ok": states_ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mem_limit_mb": MEM_LIMIT_MB,
        "versions": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        },
    }
    if traced:
        tracer.write_jsonl(spans_path)
        result["layers"] = layer_metrics(tracer.spans, passes, workload.pi_relerr_max,
                                         wall[True] / wall[False] - 1.0)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup", help="time the import and one small analyze")
    run = sub.add_parser("run", help="run one workload")
    run.add_argument("--workload", required=True,
                     choices=("reduce-sweep", "reduce-large", "validate-mc"))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    limit = MEM_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be 1 before numpy is imported")
    if args.mode == "setup":
        result = {"setup_s": setup_probe()}
        _import_metastab()
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
