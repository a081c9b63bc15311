"""Tests of the benchmark itself.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import worker
from workloads import WORKLOADS

from survmrl import cli

BENCH = Path(__file__).resolve().parent

SMALL_INPUTS = {
    "envelope": lambda: inputs.exponential_groups(3, 150),
    "mrl-tail": lambda: inputs.pareto_tail_groups(3, 300),
    "ingest-km": lambda: inputs.exponential_groups(3, 300),
    "survey": lambda: inputs.paired_survey(3, 40),
}

# (file, column, first characters of the row) that gets one digit changed
CORRUPTIONS = {
    "envelope": ("diff.csv", "value", ""),
    "mrl-tail": ("mrl.A.csv", "component_km", ""),
    "ingest-km": ("km.B.csv", "value", ""),
    "survey": ("stats.csv", "value", "discordant_b,"),
}


def _run_twice(name: str, tmp_path: Path):
    """Input, reference outputs, and the records of two jobs of a small workload."""
    workload = WORKLOADS[name]
    input_path = tmp_path / "input.csv"
    input_path.write_text(SMALL_INPUTS[name]())
    out_dir, ref_dir = tmp_path / "out", tmp_path / "ref"
    out_dir.mkdir()
    commands = workload.command_specs(str(input_path), str(out_dir))
    _, _, records, stdouts = worker.run_job(cli.run_cli, commands, out_dir)
    shutil.copytree(out_dir, ref_dir)
    _, _, more, _ = worker.run_job(cli.run_cli, commands, out_dir)
    return workload, input_path, out_dir, ref_dir, records + more, stdouts


def _change_digit(path: Path, column: str, row_prefix: str = ""):
    """Change the leading digit of one field in the first data row matching the prefix."""
    lines = path.read_text().splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    row = next(i for i, line in enumerate(lines) if i > 0 and line.startswith(row_prefix))
    fields = lines[row].split(",")
    text = fields[col]
    pos = next(i for i, ch in enumerate(text) if ch.isdigit())
    fields[col] = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
    lines[row] = ",".join(fields)
    path.write_text("".join(lines))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_program_output_and_catch_one_changed_digit(name, tmp_path):
    workload, input_path, out_dir, ref_dir, records, stdouts = _run_twice(name, tmp_path)
    problems = run.check_outputs(workload, input_path, ref_dir, stdouts)
    assert problems == [[] for _ in workload.commands]
    assert run.count_failures(records, problems) == 0

    file_name, column, row_prefix = CORRUPTIONS[name]
    command = next(i for i, c in enumerate(workload.commands) if file_name in c.outputs)

    # A corrupted reference fails its independent check, so every
    # invocation of that command is counted as failed.
    _change_digit(ref_dir / file_name, column, row_prefix)
    problems = run.check_outputs(workload, input_path, ref_dir, stdouts)
    assert problems[command]
    assert run.count_failures(records, problems) == sum(r["command"] == command for r in records)


def test_output_that_differs_between_jobs_is_a_failure(tmp_path):
    workload, input_path, out_dir, ref_dir, records, stdouts = _run_twice("ingest-km", tmp_path)
    problems = run.check_outputs(workload, input_path, ref_dir, stdouts)
    _change_digit(out_dir / "km.A.csv", "value")
    last = records[-1]
    corrupted = dict(last, digests={name: worker.file_digest(out_dir / name) for name in last["digests"]})
    assert corrupted["digests"] != last["digests"]
    assert run.count_failures(records + [corrupted], problems) == 1


def test_nonzero_exit_and_traceback_are_failures(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    commands = [{"argv": ["km", "--input", str(tmp_path / "missing.csv"), "--out", str(out_dir / "km.svg")],
                 "outputs": ["km.svg"]}]
    _, _, records, _ = worker.run_job(cli.run_cli, commands, out_dir)
    assert records[0]["exit"] == 1 and not records[0]["crashed"]
    assert run.count_failures(records, [[]]) == 1

    def broken(argv):
        raise ZeroDivisionError("boom")

    _, _, records, _ = worker.run_job(broken, commands, out_dir)
    assert records[0]["crashed"] and "ZeroDivisionError" in records[0]["stderr"]
    assert run.count_failures(records, [[]]) == 1


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        spans.Span("mrl.fit", 0.0, 10.0, -1),  # children cover 3 + 4
        spans.Span("km.step_integral", 1.0, 4.0, 0),  # child covers 1
        spans.Span("gpd.fit", 2.0, 3.0, 1),
        spans.Span("km.step_integral", 5.0, 9.0, 0),
        spans.Span("render.svg", 11.0, 12.5, -1),
    ]
    assert dict(spans.self_times(tree)) == {
        "mrl.fit": 3.0,
        "km.step_integral": 2.0 + 4.0,
        "gpd.fit": 1.0,
        "render.svg": 1.5,
    }
    layers = spans.layer_self_times(tree, job_s=14.0)
    assert layers["km"] == 6.0 and layers["mrl"] == 3.0 and layers["gpd"] == 1.0 and layers["render"] == 1.5
    assert layers["cli"] == 14.0 - 10.0 - 1.5
    assert sum(layers.values()) == 14.0
    assert spans.totals(tree)["km.step_integral"] == 7.0


def test_every_wrapped_function_is_restored(tmp_path):
    before = spans.originals()
    workload = WORKLOADS["mrl-tail"]
    input_path = tmp_path / "input.csv"
    input_path.write_text(SMALL_INPUTS["mrl-tail"]())
    with spans.Tracer() as tracer:
        spans.install(tracer)
        assert all(spans.originals()[key] is not fn for key, fn in before.items())
        wall, _, records, _ = worker.run_job(cli.run_cli, workload.command_specs(str(input_path), str(tmp_path)), tmp_path)
    after = spans.originals()
    assert all(after[key] is fn for key, fn in before.items())
    assert all(r["exit"] == 0 for r in records)
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, wall, sum(r["bytes"] for r in records))
    assert set(metrics) == set(spans.PER_LAYER) - {"trace.overhead_ratio"}
    assert metrics["km.step_integral_calls"] > 0 and metrics["gpd.fit_calls"] == 4

    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            spans.install(tracer)
            raise RuntimeError
    assert spans.originals() == before


def test_inputs_are_a_function_of_the_seed():
    assert inputs.exponential_groups(5, 100) == inputs.exponential_groups(5, 100)
    assert inputs.exponential_groups(5, 100) != inputs.exponential_groups(6, 100)
    info = inputs.describe(inputs.exponential_groups(5, 5000))
    assert info["rows"] == 10000 and 0.28 < info["censored_fraction"] < 0.38
    info = inputs.describe(inputs.pareto_tail_groups(5, 5000))
    assert 0.28 < info["censored_fraction"] < 0.38
    assert inputs.describe(inputs.paired_survey(5, 10))["rows"] == 80


def test_benchmark_json_names_match_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
