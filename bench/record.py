"""Run the benchmark over several seeds and record its numbers.

Usage, from the root of a checkout:

    python3 bench/record.py --label baseline

For every workload of BENCHMARK.json this makes ``SEEDS`` untraced runs
(seeds 1..SEEDS, the workloads interleaved) and ``TRACED`` traced runs with
seed 1.  It writes ``bench/BENCH_<label>.json`` with the median and quartiles
of every metric, and prints each end-to-end spread (quartile distance over
median) beside the metric's bound.  Counts from the traced runs must repeat
exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("numerics.solve_linear_calls", "numerics.splu_calls", "potential.capacity_calls",
                "chain.stationary_calls", "pathsim.simulate_calls", "pathsim.jumps")
SEEDS = 10
TRACED = 2
PER_RUN = ("workload", "seed", "trace", "passes", "failures", "setup_samples_s")


def bench(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: {"e2e": [], "layers": []} for w in workloads}
    fingerprint = None
    for seed in range(1, SEEDS + 1):
        for w in workloads:
            fingerprint, result = bench(w, seed, 0, seconds)
            runs[w]["e2e"].append(result)
            print(f"{w} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    for w in workloads:
        for _ in range(TRACED):
            runs[w]["layers"].append(bench(w, 1, 1, seconds)[1])

    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS,
           "fingerprint": {k: v for k, v in fingerprint.items() if k not in PER_RUN},
           "workloads": {}}
    for w, r in runs.items():
        rec = {"attempted": sum(x["attempted"] for x in r["e2e"]),
               "failed": sum(x["failed"] for x in r["e2e"]),
               "end_to_end": {}, "per_layer": {}}
        for name in bounds:
            rec["end_to_end"][name] = summary([x["metrics"][name]["value"] for x in r["e2e"]])
            s = rec["end_to_end"][name]
            print(f"{w:13s} {name:14s} median={s['median']:.5g} spread={s['spread']:.4f} "
                  f"bound={bounds[name]}")
        if r["layers"]:
            for name in r["layers"][0]["metrics"]:
                rec["per_layer"][name] = summary([x["metrics"][name]["value"] for x in r["layers"]])
            rec["counts_repeat_exactly"] = all(
                len({x["metrics"][c]["value"] for x in r["layers"]}) == 1 for c in EXACT_COUNTS)
            print(f"{w:13s} counts repeat exactly: {rec['counts_repeat_exactly']}")
        out["workloads"][w] = rec
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
