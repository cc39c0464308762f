"""Command-line front end.

Subcommands: ``analyze`` (reduced model, time scales, condition ratios),
``simulate`` (trajectory CSVs plus a summary), ``validate`` (Monte-Carlo
validators against the reduced model), and ``cycles`` (cycle decomposition).

Exit codes: 0 success, 2 input error, 3 resource guard, 4 numerical failure.
Deterministic commands produce byte-identical reports for identical inputs;
reports carry a fingerprint of the input and validate against the shipped
JSON schema (schema/report-v1.schema.json).
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .chain import stationarity_residual, stationary
from .config import default_tolerances
from .errors import InputError, MetastabError, NumericalError, TooLarge
from .models import build_from_string
from .pathsim import (
    estimate_91,
    estimate_T2,
    fdd_compare,
    last_passage_path,
    project,
    simulate,
    trace_path,
)
from .reduction import check_conditions, coarse_rates, timescales
# jump_probabilities is not called here; the traced benchmark run looks it up
# on this module to report its time
from .reduction import jump_probabilities  # noqa: F401
from .specio import load_chain_spec, load_partition
from .transforms import cycle_decompose

_SURGERIES = ("none", "trace", "last_passage")


def _fingerprint(args) -> str:
    h = hashlib.sha256()
    if args.model:
        h.update(b"model:")
        h.update(args.model.encode())
    else:
        h.update(b"spec:")
        h.update(FsPath(args.spec).read_bytes())
    if getattr(args, "partition", None):
        h.update(b"partition:")
        h.update(FsPath(args.partition).read_bytes())
    return h.hexdigest()


def _load_input(args, tol):
    """Resolve --model/--spec/--partition into (chain, partition, model_spec)."""
    if bool(args.model) == bool(args.spec):
        raise InputError("exactly one of --model or --spec is required")
    model_spec = None
    if args.model:
        model_spec = build_from_string(args.model, tol)
        chain, partition = model_spec.chain, model_spec.partition
    else:
        chain, partition = load_chain_spec(args.spec)
    if getattr(args, "partition", None):
        partition = load_partition(args.partition)
        partition.validate_for(chain)
    return chain, partition, model_spec


def _require_partition(partition):
    if partition is None:
        raise InputError("partition required (inline in the spec, via --partition, "
                         "or from a model default)")
    return partition


def _resolve_theta(args, chain, pi, partition, tol):
    if args.theta is not None:
        if args.theta <= 0:
            raise InputError("--theta must be positive")
        return float(args.theta)
    return float(timescales(chain, pi, partition, tol).values.min())


def _report_skeleton(command, args, seed=None) -> dict:
    meta = {
        "tool": "metastab",
        "version": __version__,
        "schema": "report-v1",
        "command": command,
        "input_fingerprint": _fingerprint(args),
        "seed": seed,
    }
    return {"meta": meta}


def _emit(report: dict, out):
    text = json.dumps(report, sort_keys=True, indent=1, allow_nan=False) + "\n"
    if out:
        FsPath(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _stationary_section(chain, pi, partition):
    section = {
        "residual": stationarity_residual(chain, pi),
        "min": float(pi.weights.min()),
        "max": float(pi.weights.max()),
    }
    if partition is not None:
        section["valley_masses"] = [
            float(pi.mass(chain.indices_of(v))) for v in partition.valleys]
        section["delta_mass"] = float(pi.mass(chain.indices_of(partition.delta))) \
            if partition.delta else 0.0
    return section


def cmd_analyze(args) -> int:
    tol = default_tolerances()
    chain, partition, model_spec = _load_input(args, tol)
    partition = _require_partition(partition)
    partition.validate_for(chain, require_valleys=2)
    pi = stationary(chain, tol)
    theta = _resolve_theta(args, chain, pi, partition, tol)
    model = coarse_rates(chain, pi, partition, theta, tol)
    # time scales and p(j, k) = r(j, k) / lambda(j) come from the same model
    caps = model.diagnostics["valley_capacities"]
    scales = np.array(model.diagnostics["valley_masses"]) / np.array(caps)
    conditions = check_conditions(chain, pi, partition, theta, tol)
    report = _report_skeleton("analyze", args)
    report["stationary"] = _stationary_section(chain, pi, partition)
    report["capacities"] = {
        "valley_escape": caps,
        "timescales": scales.tolist(),
        "timescale_spread": float(scales.max() / scales.min()),
        "suggested_theta": model_spec.suggested_theta if model_spec else None,
    }
    reduced = model.to_dict()
    reduced["jump_probabilities"] = (model.rates / model.holding_rates[:, None]).tolist()
    report["reduced_model"] = reduced
    report["conditions"] = conditions.to_dict()
    _emit(report, args.out)
    return 0


def _write_trajectory(path, fs_path):
    with open(fs_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "state"])
        writer.writerow([repr(0.0), path.initial])
        for t, s in path.events:
            writer.writerow([repr(float(t)), s])


def cmd_simulate(args) -> int:
    tol = default_tolerances()
    chain, partition, _ = _load_input(args, tol)
    if args.surgery not in _SURGERIES:
        raise InputError(f"--surgery must be one of {_SURGERIES}")
    if args.start is None:
        raise InputError("--start is required for simulate")
    if args.start not in chain.index:
        raise InputError(f"unknown start state {args.start!r}")
    if args.horizon is None or args.horizon <= 0:
        raise InputError("--horizon must be a positive number")
    if args.surgery != "none":
        partition = _require_partition(partition)
    out_dir = FsPath(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    occupation = {}
    jump_counts = {}
    files = []
    total_time = 0.0
    for trial in range(args.trials):
        raw = simulate(chain, args.start, args.horizon, (args.seed, trial), tol)
        if args.surgery == "none":
            out_path = raw
        elif args.surgery == "trace":
            traced = trace_path(raw, sorted(partition.union()))
            out_path = project(traced, partition, "psi")
        else:
            out_path = last_passage_path(project(raw, partition, "phi"))
        name = f"trajectory_{trial:04d}.csv"
        _write_trajectory(out_path, out_dir / name)
        files.append(name)
        for a, b, s in out_path.sojourns():
            occupation[str(s)] = occupation.get(str(s), 0.0) + (b - a)
            total_time += b - a
        prev = out_path.initial
        for _, s in out_path.events:
            key = f"{prev}->{s}"
            jump_counts[key] = jump_counts.get(key, 0) + 1
            prev = s
    summary = {
        "meta": {
            "tool": "metastab",
            "version": __version__,
            "command": "simulate",
            "input_fingerprint": _fingerprint(args),
            "seed": args.seed,
        },
        "trials": args.trials,
        "horizon": args.horizon,
        "surgery": args.surgery,
        "start": args.start,
        "files": files,
        "occupation_fraction": {k: v / total_time for k, v in sorted(occupation.items())},
        "jump_counts": dict(sorted(jump_counts.items())),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, allow_nan=False) + "\n",
        encoding="utf-8")
    return 0


def cmd_validate(args) -> int:
    tol = default_tolerances()
    chain, partition, _ = _load_input(args, tol)
    partition = _require_partition(partition)
    partition.validate_for(chain, require_valleys=2)
    pi = stationary(chain, tol)
    theta = _resolve_theta(args, chain, pi, partition, tol)
    grid = [float(x) for x in args.grid.split(",")] if args.grid else [0.5, 1.0, 2.0]
    model = coarse_rates(chain, pi, partition, theta, tol)
    label_map = partition.label_map()
    if args.start:
        if args.start not in chain.index:
            raise InputError(f"unknown start state {args.start!r}")
        if label_map.get(args.start, 0) == 0:
            raise InputError("--start must lie inside a valley")
        start = args.start
    else:
        start = partition.reference_states(chain, pi)[0]
    fdd = fdd_compare(chain, partition, theta, model, grid, args.trials,
                      args.seed, start, jobs=args.jobs, tol=tol)
    t2 = estimate_T2(chain, partition, theta, max(grid), args.trials,
                     args.seed, jobs=args.jobs, pi=pi, tol=tol)
    est91 = estimate_91(chain, partition, theta, args.delta, args.trials,
                        args.seed, jobs=args.jobs, pi=pi, tol=tol)
    report = _report_skeleton("validate", args, seed=args.seed)
    report["validation"] = {
        "theta": theta,
        "fdd": {
            "start": str(fdd.start),
            "start_valley": fdd.start_valley,
            "trials": fdd.trials,
            "rows": [
                {"t": r.t, "empirical": list(r.empirical),
                 "delta_mass": r.delta_mass, "reduced": list(r.reduced),
                 "tv": r.tv, "stderr": r.stderr}
                for r in fdd.rows
            ],
        },
        "delta_occupation": {
            "horizon": t2.horizon,
            "trials": t2.trials,
            "worst_mean": t2.worst_mean,
            "per_valley": [
                {"valley": v.valley, "start": str(v.start), "mean": v.mean,
                 "stderr": v.stderr,
                 "escape_probability": v.escape_probability}
                for v in t2.per_valley
            ],
        },
        "short_time_delta_probability": {
            "grid": list(est91.grid),
            "sup": est91.sup,
            "trials": est91.trials,
            "per_start": [
                {"start": str(s), "probabilities": list(est91.probabilities[s]),
                 "stderr": list(est91.stderr[s])}
                for s in est91.probabilities
            ],
        },
    }
    _emit(report, args.out)
    return 0


def cmd_cycles(args) -> int:
    tol = default_tolerances()
    chain, _, _ = _load_input(args, tol)
    pi = stationary(chain, tol)
    dec = cycle_decompose(chain, pi, tol)
    recon = dec.reconstructed_rates(chain)
    residual = float(np.abs((recon - chain.rates).toarray()).max())
    report = _report_skeleton("cycles", args)
    report["cycles"] = {
        "count": len(dec.cycles),
        "max_length": dec.max_cycle_length(),
        "reconstruction_residual": residual,
        "cycles": [
            {"vertices": list(labels), "rates": [float(r) for r in rates]}
            for labels, rates in dec.cycles
        ],
    }
    _emit(report, args.out)
    return 0


def _add_io_flags(p, partition_flag=True):
    p.add_argument("--model", help="model string, e.g. glued_cubes:d=2,N=8,ell=2")
    p.add_argument("--spec", help="chain-spec JSON file")
    if partition_flag:
        p.add_argument("--partition", help="partition JSON file (overrides the spec's)")
    p.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metastab",
        description="Metastable model reduction of finite-state CTMCs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="reduced model, time scales, condition ratios")
    _add_io_flags(p)
    p.add_argument("--theta", type=float, help="time scale (default: min valley timescale)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="sample trajectories to CSV")
    _add_io_flags(p)
    p.add_argument("--start", help="start state label")
    p.add_argument("--horizon", type=float, help="trajectory horizon (chain time)")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--surgery", default="none", choices=_SURGERIES)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="Monte-Carlo validation of the reduced model")
    _add_io_flags(p)
    p.add_argument("--theta", type=float)
    p.add_argument("--grid", help="comma-separated rescaled times (default 0.5,1,2)")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.1,
                   help="short-time window for the separating-set probability")
    p.add_argument("--start", help="start state for the marginal comparison")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cycles", help="cycle decomposition of the generator")
    _add_io_flags(p, partition_flag=False)
    p.set_defaults(func=cmd_cycles)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _emit_error(exc, 2)
        return 2
    except TooLarge as exc:
        _emit_error(exc, 3)
        return 3
    except NumericalError as exc:
        _emit_error(exc, 4)
        return 4
    except MetastabError as exc:
        _emit_error(exc, 2)
        return 2
    except OSError as exc:
        _emit_error(exc, 2)
        return 2


def _emit_error(exc, code):
    obj = {"error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code}}
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
