"""Measure every workload over several seeds and write the baseline record.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 1-10 [--out bench/BASELINE.json]

For each workload it makes one run per seed with tracing off and one traced
run on the first seed, all through bench/run.py. The record holds, per
end-to-end metric, the median over seeds and the spread (quartile distance
as a share of the median, as statistics.quantiles gives the quartiles),
the traced per-layer medians with the layer self-time report, each run's
input digest, and the python/numpy versions and CPU count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, environment
from workloads import WORKLOADS


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stdout}")
    return json.loads((WORK / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", default=str(ROOT / "bench" / "BASELINE.json"))
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = run_once(name, seeds[0], seconds, 1)
        end_to_end = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            end_to_end[metric] = {"median": statistics.median(values), "spread": spread(values), "values": values}
            print(f"  {metric}: median {end_to_end[metric]['median']:.6g} spread {end_to_end[metric]['spread']:.4f}")
        layers = traced["trace"]["self_s_by_layer"]
        record["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "stresses": list(WORKLOADS[name].dominant),
            "layers_called": [m for m, s in layers.items() if s > 0 and m != "cli"],
            "layers_bypassed": [m for m, s in layers.items() if s == 0],
            "inputs": {r["seed"]: r["input"] for r in runs},
            "end_to_end": end_to_end,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {"seed": traced["seed"], "per_layer": traced["metrics"], "report": traced["trace"]},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
