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
import collections
import contextlib
import csv
import functools
import hashlib
import json
import math
import sys
import types
from pathlib import Path as FsPath

import numpy as np

from . import __version__, config
from .chain import stationarity_residual, stationary
from .errors import (BadSpec, InputError, MetastabError, NumericalError, ToleranceViolation,
                     TooLarge)
from .models import build_from_string
from .pathsim import (
    estimate_91,
    estimate_T2,
    fdd_compare,
    last_passage_path,
    project,
    sample_valleys,
    short_time_grid,
    simulate_paths,
    trace_path,
)
from .reduction import check_conditions, coarse_rates
# timescales and jump_probabilities are not called here; the traced benchmark
# run looks them up on this module to report their time
from .reduction import jump_probabilities, timescales  # noqa: F401
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


def _load_input(args):
    """Resolve --model/--spec/--partition into (chain, partition, model_spec)."""
    if bool(args.model) == bool(args.spec):
        raise InputError("exactly one of --model or --spec is required")
    model_spec = None
    if args.model:
        model_spec = build_from_string(args.model)
        chain, partition = model_spec.chain, model_spec.partition
    else:
        chain, partition = load_chain_spec(args.spec)
    if getattr(args, "partition", None):
        partition = load_partition(args.partition)
        partition.validate_for(chain)
    return chain, partition, model_spec


def _start_state(chain, text):
    """The state whose label reads ``text`` (``--start``), a number label too."""
    for s in chain.states:
        if str(s) == text:
            return s
    raise BadSpec(f"unknown start state {text!r}")


def _require_partition(partition):
    if partition is None:
        raise InputError("partition required (inline in the spec, via --partition, "
                         "or from a model default)")
    return partition


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


def _stationary_section(chain, pi, model):
    return {
        "residual": stationarity_residual(chain, pi),
        "min": float(pi.weights.min()),
        "max": float(pi.weights.max()),
        "valley_masses": model.diagnostics["valley_masses"],
        "delta_mass": model.diagnostics["delta_mass"],
    }


def _reduce(args):
    """Load the input and reduce it: (chain, partition, model_spec, pi, model)."""
    chain, partition, model_spec = _load_input(args)
    partition = _require_partition(partition)
    pi = stationary(chain, partition)
    return chain, partition, model_spec, pi, coarse_rates(chain, pi, partition, args.theta)


def cmd_analyze(args) -> int:
    chain, partition, model_spec, pi, model = _reduce(args)
    scales = model.timescales
    conditions = check_conditions(chain, pi, partition, model)
    report = _report_skeleton("analyze", args)
    report["stationary"] = _stationary_section(chain, pi, model)
    report["capacities"] = {
        "valley_escape": model.diagnostics["valley_capacities"],
        "timescales": scales.tolist(),
        "timescale_spread": float(scales.max() / scales.min()),
        "suggested_theta": model_spec.suggested_theta if model_spec else None,
    }
    reduced = model.to_dict()
    reduced["jump_probabilities"] = model.jump_probabilities.tolist()
    report["reduced_model"] = reduced
    report["conditions"] = {**conditions.to_dict(),
                            "reference_states": [str(s) for s in conditions.reference_states]}
    _emit(report, args.out)
    return 0


def _csv_cells(labels):
    """Each label's CSV cell, in an object array to gather from: ``csv.writer``'s
    ``writerow`` returns what it passes to ``write``, here ``,<cell>\\r\\n``."""
    writer = csv.writer(types.SimpleNamespace(write=lambda line: line))
    return np.array([writer.writerow(("", s))[1:-2] for s in labels], dtype=object)


def _write_trajectory(path, cells, fs_path):
    """One ``time,state`` row per sojourn, in the bytes ``csv.writer`` writes;
    ``cells`` holds the cell of each of the path's labels."""
    rows = zip(map(repr, path.times.tolist()), cells[path.states].tolist())
    with open(fs_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(["time,state", *map(",".join, rows), ""]))


def _simulate_into(args, chain, start, partition, out_dir, written):
    """Write ``simulate``'s trajectories and summary into ``out_dir``; each file is
    listed in ``written`` before it is opened.  Sums run in path order."""
    # every path of the run is on these labels; after a surgery, project's coarse alphabet
    labels = chain.states if args.surgery == "none" else tuple(range(partition.n + 1))
    cells, names = _csv_cells(labels), [str(s) for s in labels]
    occupation, seen = np.zeros(len(labels)), np.zeros(len(labels), dtype=bool)
    jump_counts, files, total_time = collections.Counter(), [], np.zeros(1)
    seeds = [(args.seed, trial) for trial in range(args.trials)]
    for trial, raw in enumerate(simulate_paths(chain, start, args.horizon, seeds)):
        try:
            if args.surgery == "none":
                out_path = raw
            elif args.surgery == "trace":
                traced = trace_path(raw, partition.union())
                out_path = project(traced, partition, "psi")
            else:
                out_path = last_passage_path(project(raw, partition, "phi"))
        except InputError as exc:
            raise type(exc)(f"trial {trial}: {exc}") from exc
        name = f"trajectory_{trial:04d}.csv"
        written.append(out_dir / name)
        _write_trajectory(out_path, cells, out_dir / name)
        files.append(name)
        states, durations = out_path.states, np.diff(out_path.times, append=out_path.horizon)
        np.add.at(occupation, states, durations)
        seen[states] = True
        total_time = np.cumsum(np.concatenate((total_time[-1:], durations)))
        pairs, counts = np.unique(states[:-1] * len(labels) + states[1:], return_counts=True)
        jump_counts.update(dict(zip(pairs.tolist(), counts.tolist())))
    occupied = np.flatnonzero(seen).tolist()
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
        "occupation_fraction": {names[i]: v / float(total_time[-1]) for i, v in
                                zip(occupied, occupation[occupied].tolist())},
        "jump_counts": {f"{names[code // len(labels)]}->{names[code % len(labels)]}": count
                        for code, count in jump_counts.items()},
    }
    written.append(out_dir / "summary.json")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, allow_nan=False) + "\n",
        encoding="utf-8")


def cmd_simulate(args) -> int:
    chain, partition, _ = _load_input(args)
    if args.start is None:
        raise InputError("--start is required for simulate")
    start = _start_state(chain, args.start)
    if args.horizon is None or not (math.isfinite(args.horizon) and args.horizon > 0):
        raise InputError(f"--horizon must be finite and positive, got {args.horizon!r}")
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.surgery != "none":
        partition = _require_partition(partition)
    out_dir = FsPath(args.out or ".")
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        _simulate_into(args, chain, start, partition, out_dir, written)
    except BaseException:
        # a failed run leaves no file of its own behind
        for fs_path in written:
            fs_path.unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    return 0


def cmd_validate(args) -> int:
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if not (math.isfinite(args.delta) and args.delta > 0):
        raise InputError(f"--delta must be finite and positive, got {args.delta!r}")
    try:
        grid = [float(x) for x in args.grid.split(",")] if args.grid else [0.5, 1.0, 2.0]
    except ValueError as exc:
        raise InputError(f"--grid must be comma-separated numbers, got {args.grid!r}") from exc
    if not (all(map(math.isfinite, grid)) and min(grid) >= 0 and max(grid) > 0):
        raise InputError(f"--grid needs finite, nonnegative entries, one positive: {args.grid!r}")
    if len(set(grid)) < len(grid):
        raise InputError(f"--grid repeats an entry: {args.grid!r}")
    chain, partition, _, pi, model = _reduce(args)
    theta, refs = model.theta, partition.reference_states(chain, pi)
    start = _start_state(chain, args.start) if args.start else refs[0]
    times = [t * theta for t in grid]
    # a start that is not a reference state gets a sample of its own, drawn first
    own = None if start in refs else sample_valleys(
        chain, partition, times, args.trials, args.seed, [start], args.jobs)
    times += [s * theta for s in short_time_grid(args.delta)]
    sample = sample_valleys(chain, partition, times, args.trials, args.seed, refs, args.jobs)
    fdd = fdd_compare(own or sample, model, grid, start)
    t2 = estimate_T2(sample, theta, max(grid))
    est91 = estimate_91(sample, theta, args.delta)._asdict()
    probabilities, stderr = est91.pop("probabilities"), est91.pop("stderr")
    est91["per_start"] = [{"start": str(s), "probabilities": probabilities[s],
                           "stderr": stderr[s]} for s in probabilities]
    report = _report_skeleton("validate", args, seed=args.seed)
    report["validation"] = {
        "theta": model.theta,
        "fdd": {**fdd._asdict(), "start": str(fdd.start),
                "rows": [row._asdict() for row in fdd.rows]},
        "delta_occupation": {**t2._asdict(), "per_valley": [
            {**v._asdict(), "start": str(v.start)} for v in t2.per_valley]},
        "short_time_delta_probability": est91,
    }
    _emit(report, args.out)
    return 0


def cmd_cycles(args) -> int:
    chain, partition, _ = _load_input(args)
    # a partition of at least two valleys gives the route that stays right in deep wells
    routed = partition is not None and partition.n >= 2
    dec = cycle_decompose(chain, stationary(chain, partition if routed else None))
    residual = float(abs(dec.reconstructed_rates(chain) - chain.rates).max())
    if residual > (bound := config.DEFAULT.input_stationary * chain.max_rate):
        raise ToleranceViolation(
            f"cycles: reconstruction residual {residual:.3e} exceeds {bound:.3e}")
    report = _report_skeleton("cycles", args)
    report["cycles"] = {
        "count": len(dec.cycles),
        "max_length": dec.max_cycle_length(),
        "reconstruction_residual": residual,
        "cycles": [
            {"vertices": [str(s) for s in labels], "rates": [float(r) for r in rates]}
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
        config.DEFAULT  # the first use reads METASTAB_TOL: a bad value fails here
        return args.func(args)
    except (MetastabError, OSError) as exc:
        code = 3 if isinstance(exc, TooLarge) else 4 if isinstance(exc, NumericalError) else 2
        _emit_error(exc, code)
        return code


def _emit_error(exc, code):
    obj = {"error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code}}
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
