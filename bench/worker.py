"""Timed process of the benchmark: runs one workload's jobs in-process.

Usage: python bench/worker.py SPEC.json  (with survmrl importable)

The spec names the commands (argv and output files), the output and
reference directories, the run length and whether to trace. The process
does nothing but run jobs, so its peak RSS is the program's. The first
job is an untimed warm-up whose outputs are kept as the run's reference.
Each timed command is followed by a speed probe (see speed.py) that scales
its time to reference machine speed. With tracing on, untraced and traced
jobs alternate; the traced ones install the span wrappers, and every
wrapped name is checked to be the original function again afterwards.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import speed

MIN_JOBS = 3


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_job(run_cli, commands: list[dict], out_dir: Path, clock: speed.Clock | None = None):
    """Run every command once.

    Returns the job's wall time, the same at reference speed (equal to the
    wall time without a clock), per-invocation records and stdouts.
    """
    for command in commands:
        for name in command["outputs"]:
            (out_dir / name).unlink(missing_ok=True)
    outcomes = []
    wall = scaled = 0.0
    for command in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code, crashed = run_cli(command["argv"]), False
            except Exception:  # a traceback is a failed invocation, not a dead benchmark
                traceback.print_exc()
                code, crashed = None, True
        elapsed = perf_counter() - start
        wall += elapsed
        scaled += clock.scale(elapsed) if clock else elapsed
        outcomes.append((code, crashed, stdout.getvalue(), stderr.getvalue()))
    records = []
    for index, (command, (code, crashed, _, stderr)) in enumerate(zip(commands, outcomes)):
        paths = [out_dir / name for name in command["outputs"]]
        records.append({
            "command": index,
            "exit": code,
            "crashed": crashed,
            "stderr": stderr[-2000:],
            "digests": {p.name: file_digest(p) for p in paths},
            "bytes": sum(p.stat().st_size for p in paths if p.is_file()),
        })
    return wall, scaled, records, [stdout for _, _, stdout, _ in outcomes]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    speed.pin_to_one_cpu()
    from survmrl import cli

    commands, out_dir, ref_dir = spec["commands"], Path(spec["out"]), Path(spec["ref"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ref_dir.mkdir(parents=True, exist_ok=True)

    _, _, records, stdouts = run_job(cli.run_cli, commands, out_dir)
    for command in commands:
        for name in command["outputs"]:
            if (out_dir / name).is_file():
                shutil.copyfile(out_dir / name, ref_dir / name)

    job_s, wall_s, traced, last_spans = [], [], [], []
    clock = speed.Clock()
    deadline = perf_counter() + spec["seconds"]
    while perf_counter() < deadline or len(job_s) < MIN_JOBS:
        wall, scaled, job_records, _ = run_job(cli.run_cli, commands, out_dir, clock)
        job_s.append(scaled)
        wall_s.append(wall)
        records += job_records
        if not spec["trace"]:
            continue
        originals = spans.originals()
        with spans.Tracer() as tracer:
            spans.install(tracer)
            wall, scaled, job_records, _ = run_job(cli.run_cli, commands, out_dir, clock)
        if spans.originals() != originals:
            raise RuntimeError("a traced function was not restored")
        records += job_records
        output_bytes = sum(r["bytes"] for r in job_records)
        traced.append(spans.layer_metrics(tracer.spans, tracer.counts, wall, output_bytes, scaled / wall))
        last_spans = tracer.spans

    if spec["trace"]:
        rows = [[s.name, s.start, s.end, s.parent] for s in last_spans]
        Path(spec["spans"]).write_text(json.dumps(rows))
    result = {
        "records": records,
        "stdout": stdouts,
        "job_s": job_s,
        "wall_s": wall_s,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
