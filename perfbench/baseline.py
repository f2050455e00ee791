"""Run every workload on several seeds and summarize the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload, runs perfbench/run.py once per seed at BENCHMARK.json's
run_seconds (workloads interleaved, so slow spells of the machine spread over
all of them), then once traced.
Prints every end-to-end metric by name and unit with its median, quartiles
and spread (interquartile range over median, as statistics.quantiles gives
it), and flags spreads above a third of the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = {w: [] for w in workloads}
    machine = {}
    for seed in seeds:
        for workload in workloads:
            detail, result = run_once(workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {detail['failures']}")
            results[workload].append(result["metrics"])
            machine[workload] = detail["machine"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"; repetitions {[round(w, 3) for w in detail['wall_s']]}", flush=True)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"run_seconds": BENCHMARK["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in workloads:
        entry = summary["workloads"][workload] = {"end_to_end": {}}
        for name, bound in bounds.items():
            unit = results[workload][0][name]["unit"]
            stats = summarize([m[name]["value"] for m in results[workload]])
            entry["end_to_end"][name] = {"unit": unit, **stats}
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:17s} {name:13s} {stats['median']:12.5g} {unit:6s} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        detail, result = run_once(workload, seeds[0], 1)
        entry["traced"] = {"layer_shares": detail["layer_shares"],
                           "metrics": result["metrics"]}
        print(f"{workload:17s} traced shares {detail['layer_shares']}")
        entry["machine"] = machine[workload]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
