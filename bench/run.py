"""survmrl end-to-end benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's input from --seed in this process, then
starts bench/worker.py, which runs the workload's CLI commands in-process
through survmrl.cli.run_cli, job after job (closed loop, one thread), for
--seconds. Every output is checked: byte-identical across the jobs of the
run, and against an independent recomputation from the input
(bench/checks.py). With --trace 0 it also times fresh interpreter launches
that import survmrl.cli and build the parser. All processes run pinned to
one CPU, and every timed interval is scaled to reference machine speed by
a probe run right before and after it (bench/speed.py); raw wall times are
kept in the detail file.

End-to-end metrics (--trace 0):
  job_s        median time of one job (the workload's command list)
  rows_per_s   input rows read by all timed jobs / their summed time
  setup_s      median time of a fresh `import survmrl.cli` + build_parser()
  peak_rss_mb  peak resident memory of the process that runs the jobs
The error rate is failed / attempted in the result line.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (see BENCHMARK.json). Lines before it are a report
for people. A detail file per run is written under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import spans
import speed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_LAUNCHES = 9
SETUP_CODE = "import survmrl.cli as cli; cli.build_parser()"
WORKER_GRACE_S = 140


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Launch times of fresh interpreters that import the CLI and build its
    parser, at reference speed and raw."""
    command = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)  # bytecode cache
    scaled, walls = [], []
    before = speed.probe()
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        walls.append(perf_counter() - start)
        after = speed.probe()
        scaled.append(speed.at_reference_speed(walls[-1], before, after))
        before = after
    return scaled, walls


def run_worker(spec: dict, spec_path: Path, env: dict[str, str]) -> dict:
    spec_path.write_text(json.dumps(spec))
    worker = [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path)]
    subprocess.run(worker, env=env, cwd=ROOT, check=True, timeout=spec["seconds"] + WORKER_GRACE_S)
    return json.loads(Path(spec["result"]).read_text())


def check_outputs(workload, input_path: Path, ref_dir: Path, stdouts: list[str]) -> list[list[str]]:
    """Independent-check problems per command, on the run's reference outputs."""
    problems = []
    for command, stdout in zip(workload.commands, stdouts):
        try:
            problems.append(command.check(input_path, ref_dir, stdout))
        except Exception as exc:  # an unreadable output is a failed check
            problems.append([f"{command.args[0]}: output unreadable: {type(exc).__name__}: {exc}"])
    return problems


def count_failures(records: list[dict], problems: list[list[str]]) -> int:
    """Invocations with a nonzero exit, a traceback, outputs that differ from
    the run's first invocation of the same command, or a failed check."""
    reference: dict[int, dict] = {}
    failed = 0
    for record in records:
        ref = reference.setdefault(record["command"], record["digests"])
        if record["exit"] != 0 or record["crashed"] or record["digests"] != ref or problems[record["command"]]:
            failed += 1
    return failed


def end_to_end(result: dict, setup_times: list[float], rows_per_job: int) -> dict:
    job_s = result["job_s"]
    return {
        "job_s": statistics.median(job_s),
        "rows_per_s": rows_per_job * len(job_s) / sum(job_s),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> tuple[dict, dict]:
    """Per-metric medians over the traced jobs, and the median traced job."""
    traced = result["traced"]
    metrics = {name: statistics.median(job.get(name, 0.0) for job in traced) for name in spans.PER_LAYER}
    metrics["trace.overhead_ratio"] = metrics["trace.job_s"] / statistics.median(result["job_s"]) - 1.0
    median_job = sorted(traced, key=lambda job: job["trace.job_s"])[(len(traced) - 1) // 2]
    return metrics, median_job


def trace_report(workload, metrics: dict, job: dict) -> tuple[list[str], dict]:
    job_s = job["trace.job_s"]
    layers = sorted(((m, job[f"{m}.self_s"]) for m in spans.MODULES), key=lambda kv: -kv[1])
    lines = [f"layer self time in the median traced job ({job_s:.4f} s):"]
    lines += [f"  {m:<11} {s:10.4f} s  {100 * s / job_s:5.1f}%" for m, s in layers]
    total = sum(s for _, s in layers)
    lines.append(f"  layer self times + cli.self_s = {total:.6f} s; traced job_s = {job_s:.6f} s")
    share = sum(job[name] for name in workload.dominant) / job_s
    verdict = "holds" if share >= workload.min_share else "DOES NOT HOLD"
    lines.append(
        f"  {' + '.join(workload.dominant)} = {100 * share:.1f}% of traced job_s "
        f"(chosen for >= {100 * workload.min_share:.0f}%: {verdict})"
    )
    lines.append(f"  trace.overhead_ratio = {metrics['trace.overhead_ratio']:.4f}")
    summary = {
        "self_s_by_layer": dict(layers),
        "self_s_sum": total,
        "traced_job_s": job_s,
        "dominant_share": share,
        "dominant_share_holds": share >= workload.min_share,
    }
    return lines, summary


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "survmrl" / "cli.py").is_file():
        print(f"survmrl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    speed.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        text = workload.make_input(args.seed)
        input_path = run_dir / "input.csv"
        input_path.write_text(text)
        input_info = inputs.describe(text)

        out_dir, ref_dir = run_dir / "out", run_dir / "ref"
        env = program_env()
        spec = {
            "commands": workload.command_specs(str(input_path), str(out_dir)),
            "out": str(out_dir),
            "ref": str(ref_dir),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans": str(WORK / f"{workload.name}-seed{args.seed}-spans.json"),
            "result": str(run_dir / "result.json"),
        }
        setup_times, setup_walls = ([], []) if args.trace else measure_setup(env)
        result = run_worker(spec, run_dir / "spec.json", env)
        problems = check_outputs(workload, input_path, ref_dir, result["stdout"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(result["records"])
    failed = count_failures(result["records"], problems)
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "input": input_info,
        "environment": environment(),
        "problems": [p for ps in problems for p in ps],
        "crashes": [r["stderr"] for r in result["records"] if r["crashed"] or r["exit"] != 0][:3],
        "job_s_samples": result["job_s"],
        "job_wall_s_samples": result["wall_s"],
    }
    report = [
        f"workload {workload.name} seed {args.seed}: {workload.why}",
        f"input sha256={input_info['sha256']} rows={input_info['rows']}"
        + (f" censored_fraction={input_info['censored_fraction']:.4f}" if "censored_fraction" in input_info else ""),
    ]
    report += [f"check failed: {p}" for p in detail["problems"]]
    if args.trace:
        metrics, median_job = per_layer(result)
        units = spans.PER_LAYER
        lines, detail["trace"] = trace_report(workload, metrics, median_job)
        report += lines
    else:
        metrics = end_to_end(result, setup_times, input_info["rows"] * len(workload.commands))
        units = {"job_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MiB"}
        detail["setup_s_samples"], detail["setup_wall_s_samples"] = setup_times, setup_walls
        job_s, walls = result["job_s"], result["wall_s"]
        report.append(
            f"job_s samples={len(job_s)} min={min(job_s):.4f} max={max(job_s):.4f} "
            f"(raw wall: median={statistics.median(walls):.4f} min={min(walls):.4f} max={max(walls):.4f})"
        )
    report += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    report.append(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    detail["metrics"] = metrics
    detail["attempted"], detail["failed"] = attempted, failed
    (WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
