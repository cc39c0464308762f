"""Benchmark entry point: metastab's reduction and validation workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduce-sweep --seed 1 --seconds 36 --trace 0

Each workload runs in a child process (``workload.py``) with OpenBLAS and
OpenMP pinned to one thread and an address-space limit.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; it first times
``SETUP_REPEATS`` fresh processes that import metastab and run one small
``analyze``.  ``--trace 1`` reports the per-layer metrics from spans and
writes the spans to ``bench/out/``.  The line before the last is the run's
fingerprint; the last line is the result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("reduce-sweep", "reduce-large", "validate-mc")
SETUP_REPEATS = 5
# Every run must end within 180 s.
DEADLINE_S = 170.0
THREADS = "1"


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    return env


def run_child(args, deadline):
    """Run workload.py with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "metastab" / "__init__.py").is_file():
        print(f"error: no metastab sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        setups = [run_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    res = run_child(["run", "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--spans", str(spans)], deadline)

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "states_per_s": res["states_ok"] / res["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")
    fingerprint = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": res["passes"], "failures": res["failures"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "threads": {"OPENBLAS_NUM_THREADS": THREADS, "OMP_NUM_THREADS": THREADS},
        "mem_limit_mb": res["mem_limit_mb"], "setup_samples_s": setups,
        "git_commit": git_commit(), **res["versions"],
    }
    print(json.dumps({"fingerprint": fingerprint}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
