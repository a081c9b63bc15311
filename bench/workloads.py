"""The four benchmark workloads: input generator, CLI commands, checks.

A job is a workload's command list run in order through
``survmrl.cli.run_cli``; each command names the files it writes and the
independent check of those files. Resampling seeds given to the program
are fixed, so every job of a run must produce the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks
import inputs

PROGRAM_SEED = "20240807"


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # CLI arguments; {input} and {out} are filled in per run
    outputs: tuple[str, ...]  # files the command writes into {out}
    check: Callable

    def argv(self, input_path: str, out_dir: str) -> list[str]:
        return [a.format(input=input_path, out=out_dir) for a in self.args]


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int], str]
    commands: tuple[Command, ...]
    why: str
    # Layer metrics this workload was chosen to stress, and the smallest
    # share of the traced job time they should take together.
    dominant: tuple[str, ...]
    min_share: float

    def command_specs(self, input_path: str, out_dir: str) -> list[dict]:
        """The commands as the worker takes them: argv and output file names."""
        return [{"argv": c.argv(input_path, out_dir), "outputs": list(c.outputs)} for c in self.commands]


def _plot_command(command: str, extra: tuple[str, ...], outputs: tuple[str, ...], check: Callable) -> Command:
    """A command writing <stem>.svg and <stem>.csv (per group when the CLI splits it)."""
    stem = outputs[0].removesuffix(".svg")
    args = (command, "--input", "{input}", "--out", f"{{out}}/{stem}.svg", "--out-csv", f"{{out}}/{stem}.csv")
    return Command(args + extra, outputs, check)


_ENVELOPE = ("--permutations", "200", "--seed", PROGRAM_SEED)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "envelope",
            lambda seed: inputs.exponential_groups(seed, 5000),
            (
                _plot_command("diff", _ENVELOPE, ("diff.svg", "diff.csv"), checks.check_diff),
                _plot_command("ratio", _ENVELOPE, ("ratio.svg", "ratio.csv"), checks.check_ratio),
            ),
            "permutation envelopes dominate (compare.envelope); MRL and GPD are not called",
            ("compare.envelope_s",),
            0.60,
        ),
        Workload(
            "mrl-tail",
            lambda seed: inputs.pareto_tail_groups(seed, 4000),
            (
                _plot_command("mrl", (), ("mrl.svg", "mrl.A.csv", "mrl.B.csv"), checks.check_mrl),
                _plot_command("mrl-diff", (), ("mrl-diff.svg", "mrl-diff.csv"), checks.check_mrl_diff),
            ),
            "hybrid MRL fits and re-evaluation dominate (km.step_integral); no envelope runs",
            ("km.step_integral_s",),
            0.70,
        ),
        Workload(
            "ingest-km",
            lambda seed: inputs.exponential_groups(seed, 50000),
            (_plot_command("km", (), ("km.svg", "km.A.csv", "km.B.csv"), checks.check_km),),
            "CSV decode and SVG/CSV output dominate (dataset, render); estimation is trivial",
            ("dataset.load_s", "render.svg_s", "render.csv_s"),
            0.50,
        ),
        Workload(
            "survey",
            lambda seed: inputs.paired_survey(seed, 2000),
            (
                Command(
                    ("stats", "--input", "{input}", "--out-csv", "{out}/stats.csv", "--bootstrap", "2000", "--seed", PROGRAM_SEED),
                    ("stats.csv",),
                    checks.check_stats,
                ),
            ),
            "the only studystats path: survey parsing, bootstrap replicates, exact McNemar",
            ("studystats.load_s", "studystats.bootstrap_s", "studystats.mcnemar_s", "studystats.wilcoxon_s"),
            0.70,
        ),
    )
}
