"""Command-line entry point.

Subcommands: ``km``, ``mrl``, ``diff``, ``ratio``, ``mrl-diff``, ``stats``.
Each run reads one CSV, writes SVG and/or CSV outputs, and prints a
one-line summary carrying every setting that affects the output, so a run
can be reproduced from its log line. Any request for resampling
(permutation envelopes, bootstrap intervals) requires an explicit seed.
Outputs are staged beside their targets and moved into place only once
every one of them is written, so a failed run leaves none behind.

Exit codes: 0 success, 1 data or estimation error (message on stderr),
2 flag errors (usage on stderr). A run whose stdout is closed before the
summary is printed (``survmrl ... | head -1``) keeps its committed outputs,
prints one stderr line and exits 1.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from contextlib import suppress
from pathlib import Path

from . import compare, mrl, render, studystats
from .dataset import SurvivalSample, load_dataset
from .errors import EstimationError, SurvmrlError
from .km import km_fit

_BANNER = "survmrl"


def _number_arg(kind: type, accept, requirement: str):
    """argparse type that parses ``kind`` and rejects values failing ``accept``."""
    noun = "a number" if kind is float else "an integer"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value

    return parse


_quantile_arg = _number_arg(float, lambda v: 0.0 < v < 1.0, "quantile must be strictly inside (0, 1)")
_positive_float = _number_arg(float, lambda v: 0.0 < v < math.inf, "must be finite and > 0")
_nonnegative_int = _number_arg(int, lambda v: v >= 0, "must be >= 0")
_seed_arg = _number_arg(int, lambda v: 0 <= v < 2**64, "seed must fit in an unsigned 64-bit range")
_min_exceedances_arg = _number_arg(int, lambda v: v >= 2, "must be >= 2")
_grid_point = _number_arg(float, lambda v: 0.0 <= v < math.inf, "grid values must be finite and >= 0")


def _band_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"band must be 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"band must be numeric, got {text!r}") from None
    if not (0.0 <= lo < hi <= 1.0):
        raise argparse.ArgumentTypeError(f"band needs 0 <= lo < hi <= 1, got {text}")
    return lo, hi


def _grid_arg(text: str) -> tuple[float, ...]:
    return tuple(map(_grid_point, text.split(",")))


def _groups_arg(text: str) -> tuple[str, ...]:
    groups = tuple(g.strip() for g in text.split(",") if g.strip())
    if not groups:
        raise argparse.ArgumentTypeError("groups list is empty")
    repeated = [g for g in groups if groups.count(g) > 1]
    if repeated:
        raise argparse.ArgumentTypeError(f"group {repeated[0]!r} is listed more than once")
    return groups


def _add_io_arguments(parser: argparse.ArgumentParser, csv_only: bool = False):
    parser.add_argument("--input", required=True, help="input CSV path")
    if not csv_only:
        parser.add_argument("--out", help="output SVG path")
    parser.add_argument("--out-csv", help="output CSV path")


def _add_threshold_arguments(parser: argparse.ArgumentParser):
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--threshold", type=_positive_float, help="explicit tail threshold")
    mode.add_argument(
        "--threshold-quantile",
        type=_quantile_arg,
        default=0.8,
        help="event-time quantile for the tail threshold (default 0.8)",
    )
    parser.add_argument(
        "--min-exceedances",
        type=_min_exceedances_arg,
        default=10,
        help="minimum observations required above the threshold (default 10)",
    )


def _add_resampling_arguments(parser: argparse.ArgumentParser, flag: str, default: int, help: str, band: str):
    """The replicate count ``flag``, stored as ``replicates``, with ``--seed`` and ``--band``."""
    name = flag.removeprefix("--")
    parser.set_defaults(replicates_flag=flag)
    parser.add_argument(
        flag, dest="replicates", metavar=name.upper(), type=_nonnegative_int, default=default, help=help
    )
    parser.add_argument("--seed", type=_seed_arg, help=f"RNG seed (required when {name} > 0)")
    parser.add_argument("--band", type=_band_arg, default=(0.025, 0.975), help=f"{band} quantiles lo,hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_BANNER,
        description="Survival curves, hybrid mean residual life, and comparison plots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_km = sub.add_parser("km", help="Kaplan-Meier survival plot")
    p_km.set_defaults(run=_run_km)
    _add_io_arguments(p_km)
    p_km.add_argument("--groups", type=_groups_arg, help="groups to overlay (default: all)")

    p_mrl = sub.add_parser("mrl", help="hybrid mean residual life plot")
    p_mrl.set_defaults(run=_run_mrl)
    _add_io_arguments(p_mrl)
    p_mrl.add_argument("--groups", type=_groups_arg, help="groups to overlay (default: all)")
    _add_threshold_arguments(p_mrl)
    p_mrl.add_argument("--grid", type=_grid_arg, help="evaluation times (comma list)")

    for name, title in (("diff", "survival difference"), ("ratio", "survival ratio")):
        p = sub.add_parser(name, help=f"{title} plot with permutation envelope")
        p.set_defaults(run=_run_survival_comparison)
        _add_io_arguments(p)
        p.add_argument("--groups", type=_groups_arg, help="two groups A,B (default: the file's two)")
        _add_resampling_arguments(
            p, "--permutations", 1000, "envelope replicates (default 1000; 0 disables the envelope)", "band"
        )
        p.add_argument("--grid", type=_grid_arg, help="evaluation times (comma list)")

    p_md = sub.add_parser("mrl-diff", help="difference of hybrid MRL curves")
    p_md.set_defaults(run=_run_mrl_diff)
    _add_io_arguments(p_md)
    p_md.add_argument("--groups", type=_groups_arg, help="two groups A,B (default: the file's two)")
    _add_threshold_arguments(p_md)

    p_stats = sub.add_parser("stats", help="paired pre/post survey statistics")
    p_stats.set_defaults(run=_run_stats)
    _add_io_arguments(p_stats, csv_only=True)
    _add_resampling_arguments(
        p_stats, "--bootstrap", 0, "bootstrap replicates for proportion intervals (0 disables)", "interval"
    )
    return parser


def _shown(label: str) -> str:
    """A label or path as a message or summary line prints it: quoted if it holds a control character."""
    return label if label.isprintable() else repr(label)


def _load(args: argparse.Namespace, exactly_two: bool) -> tuple[dict[str, SurvivalSample], list[str]]:
    """The input's samples and the groups to use: ``--groups`` in order, or all sorted."""
    samples = load_dataset(args.input)
    if args.groups is None:
        groups = sorted(samples)
    else:
        missing = [g for g in args.groups if g not in samples]
        if missing:
            raise SurvmrlError(f"group(s) not in dataset: {', '.join(map(_shown, missing))}")
        groups = list(args.groups)
    if exactly_two and len(groups) != 2:
        raise SurvmrlError(f"need exactly two groups, got {len(groups)}: {', '.join(map(_shown, groups))}")
    return samples, groups


def _threshold_summary(args: argparse.Namespace) -> str:
    if args.threshold is not None:
        return f"threshold={args.threshold!r}"
    return f"threshold_quantile={args.threshold_quantile!r} min_exceedances={args.min_exceedances}"


def _resampling_summary(args: argparse.Namespace) -> str:
    """``permutations=…`` or ``bootstrap=…``, with the seed and band when there are replicates."""
    name = args.replicates_flag.removeprefix("--")
    if args.replicates == 0:
        return f"{name}=0"
    return f"{name}={args.replicates} seed={args.seed} band={args.band[0]!r},{args.band[1]!r}"


def _fit_mrls(args, samples, groups, grid=None) -> dict[str, mrl.MrlCurve]:
    """Hybrid MRL per group, in ``groups`` order; a failed fit names its group."""
    config = mrl.ThresholdConfig(
        quantile=args.threshold_quantile,
        explicit_value=args.threshold,
        min_exceedances=args.min_exceedances,
    )
    curves = {}
    for g in groups:
        try:
            curves[g] = mrl.fit_hybrid_mrl(samples[g], config, grid=grid)
        except EstimationError as exc:
            raise EstimationError(f"group {g!r}: {exc}") from None
    return curves


class _StagedOutputs:
    """Output files that appear together or not at all.

    ``write`` puts each output in a temp file beside its target as soon as
    it is rendered, so only one rendering is in memory at a time, and
    refuses a second output to the same file. ``commit`` moves every
    staged file into place with ``os.replace``; ``discard`` deletes
    whatever a failed run left staged.
    """

    def __init__(self):
        self._staged: list[tuple[Path, Path]] = []

    def write(self, path: str | Path, data: bytes):
        target = Path(path)
        if target.is_dir():  # os.replace would fail only at commit time
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        # the entry os.replace acts on; unlike Path.resolve, realpath survives a symlink loop
        entry = (os.path.realpath(target.parent), target.name)
        if any(entry == (os.path.realpath(staged.parent), staged.name) for _, staged in self._staged):
            raise SurvmrlError(f"output {_shown(str(path))} is named twice in this run")
        temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
        try:
            handle = open(temp, "xb")
        except OSError as exc:  # name the output the user asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        self._staged.append((temp, target))
        with handle:
            handle.write(data)

    def commit(self):
        for temp, target in self._staged:
            os.replace(temp, target)
        self._staged.clear()

    def discard(self):
        for temp, _ in self._staged:
            with suppress(OSError):
                temp.unlink()
        self._staged.clear()


def _write_plot(args, outputs: _StagedOutputs, spec: render.PlotSpec, csv_curves: dict, envelope=None):
    """The SVG goes to --out; each curve's CSV to --out-csv, named
    ``<stem>.<group><suffix>`` when there are several curves."""
    if args.out:
        outputs.write(args.out, render.render_plot_svg(spec))
    if args.out_csv:
        base = Path(args.out_csv)
        for group, curve in csv_curves.items():
            path = base
            if len(csv_curves) > 1:
                name = f"{base.stem}.{group}{base.suffix}"
                if Path(name).name != name:
                    raise SurvmrlError(f"group label {group!r} cannot be used in an output file name")
                path = base.with_name(name)
            outputs.write(path, render.export_curve_csv(curve, envelope=envelope))


def _comparison_spec(title, y_label, groups, curve, reference, envelope=None) -> render.PlotSpec:
    group_a, group_b = groups
    lower, upper = ((), ()) if envelope is None else (envelope.lower, envelope.upper)
    series = render.PlotSeries(f"{group_a}-{group_b}", grid=curve.grid, values=curve.values, lower=lower, upper=upper)
    return render.PlotSpec(
        title=f"{title} ({group_a} vs {group_b})",
        x_label="time",
        y_label=y_label,
        series=(series,),
        reference_line=reference,
    )


def _run_km(args: argparse.Namespace, outputs: _StagedOutputs) -> str:
    samples, groups = _load(args, exactly_two=False)
    curves = {g: km_fit(samples[g]) for g in groups}
    if args.out_csv:
        for g in groups:
            if not curves[g].event_times.size:
                raise SurvmrlError(f"group {g!r} has no events, so its Kaplan-Meier CSV has no rows")
    series = tuple(
        render.PlotSeries(
            label=g,
            step=curves[g].survival,
            censor_times=curves[g].censor_marks,
        )
        for g in groups
    )
    spec = render.PlotSpec(
        title="Kaplan-Meier survival",
        x_label="time",
        y_label="survival probability",
        series=series,
    )
    _write_plot(args, outputs, spec, curves)
    parts = [
        f"{_shown(g)}: n={samples[g].n} events={curves[g].deaths.sum()} knots={len(curves[g].event_times)}"
        for g in groups
    ]
    return f"km input={_shown(args.input)} groups={','.join(map(_shown, groups))} | " + " | ".join(parts)


def _run_mrl(args: argparse.Namespace, outputs: _StagedOutputs) -> str:
    samples, groups = _load(args, exactly_two=False)
    curves = _fit_mrls(args, samples, groups, grid=args.grid)
    series = tuple(
        render.PlotSeries(label=g, grid=curves[g].grid, values=curves[g].values)
        for g in groups
    )
    spec = render.PlotSpec(
        title="Mean residual life",
        x_label="time",
        y_label="mean residual life",
        series=series,
    )
    _write_plot(args, outputs, spec, curves)
    parts = [
        f"{_shown(g)}: u={c.threshold!r} shape={c.gpd.shape:.6g} scale={c.gpd.scale:.6g} "
        f"converged={c.gpd.converged} m={c.gpd.n_exceedances} grid_size={len(c.grid)}"
        for g, c in curves.items()
    ]
    return (
        f"mrl input={_shown(args.input)} groups={','.join(map(_shown, groups))} {_threshold_summary(args)} "
        f"grid={'custom' if args.grid else 'default'} | " + " | ".join(parts)
    )


def _run_survival_comparison(args: argparse.Namespace, outputs: _StagedOutputs) -> str:
    """``diff`` or ``ratio``, after ``args.command``."""
    samples, groups = _load(args, exactly_two=True)
    group_a, group_b = groups
    curve_a, curve_b = km_fit(samples[group_a]), km_fit(samples[group_b])
    if args.command == "ratio":
        build, label, reference = compare.survival_ratio, "survival ratio", 1.0
    else:
        build, label, reference = compare.survival_difference, "survival difference", 0.0
    curve = build(curve_a, curve_b, grid=args.grid)
    envelope = None
    if args.replicates > 0:
        envelope = compare.permutation_envelope(
            samples[group_a],
            samples[group_b],
            f"surv_{args.command}",
            n_permutations=args.replicates,
            seed=args.seed,
            grid=curve.grid,
            band_quantiles=args.band,
        )
    spec = _comparison_spec(label, label, groups, curve, reference, envelope)
    _write_plot(args, outputs, spec, {group_a: curve}, envelope)
    return (
        f"{args.command} input={_shown(args.input)} groups={_shown(group_a)},{_shown(group_b)} "
        f"{_resampling_summary(args)} grid_size={len(curve.grid)}"
    )


def _run_mrl_diff(args: argparse.Namespace, outputs: _StagedOutputs) -> str:
    samples, groups = _load(args, exactly_two=True)
    group_a, group_b = groups
    mrl_a, mrl_b = _fit_mrls(args, samples, groups).values()
    curve = compare.mrl_difference(mrl_a, mrl_b)
    spec = _comparison_spec("MRL difference", "difference in mean residual life", groups, curve, 0.0)
    _write_plot(args, outputs, spec, {group_a: curve})
    return (
        f"mrl-diff input={_shown(args.input)} groups={_shown(group_a)},{_shown(group_b)} "
        f"{_threshold_summary(args)} u_a={mrl_a.threshold!r} u_b={mrl_b.threshold!r} "
        f"shape_a={mrl_a.gpd.shape:.6g} shape_b={mrl_b.gpd.shape:.6g} "
        f"converged={mrl_a.gpd.converged and mrl_b.gpd.converged} grid_size={len(curve.grid)}"
    )


def _run_stats(args: argparse.Namespace, outputs: _StagedOutputs) -> str:
    survey = studystats.load_paired_survey(args.input)
    gain = survey.post - survey.pre
    rows: list[tuple[str, str, str, str]] = []

    def add(metric: str, value, lower="", upper=""):
        rows.append((metric, str(value), str(lower), str(upper)))

    vectors = (survey.pre, survey.post, gain)
    bounds = [("", "")] * len(vectors)
    if args.replicates > 0:
        cis = studystats.bootstrap_proportion_cis(
            vectors, n_replicates=args.replicates, seed=args.seed, quantiles=args.band
        )
        bounds = [(repr(ci.lower), repr(ci.upper)) for ci in cis]
    for name, vector, (lower, upper) in zip(("pre_accuracy", "post_accuracy", "learning_gain"), vectors, bounds):
        add(name, repr(float(vector.mean())), lower, upper)

    add("discordant_b", survey.transitions.b)
    add("discordant_c", survey.transitions.c)
    corrected = studystats.mcnemar_test(survey.transitions, method="continuity_corrected")
    exact = studystats.mcnemar_test(survey.transitions, method="exact")
    add("mcnemar_chi2", repr(corrected.statistic))
    add("mcnemar_p_continuity", repr(corrected.p_value))
    add("mcnemar_p_exact", repr(exact.p_value))
    wilcoxon = studystats.wilcoxon_signed_rank(survey.pre, survey.post)
    add("wilcoxon_w_plus", repr(wilcoxon.statistic))
    add("wilcoxon_p", repr(wilcoxon.p_value))
    add("wilcoxon_method", wilcoxon.method)

    if args.out_csv:
        lines = ["metric,value,lower,upper"]
        lines += [",".join(row) for row in rows]
        outputs.write(args.out_csv, ("\n".join(lines) + "\n").encode("utf-8"))
    summary = [
        f"stats input={_shown(args.input)} participants={len(survey.ids)} items={survey.n_items} "
        f"pairs={survey.n_pairs} {_resampling_summary(args)}"
    ]
    for metric, value, lower, upper in rows:
        tail = f" [{lower}, {upper}]" if lower else ""
        summary.append(f"  {metric} = {value}{tail}")
    return "\n".join(summary)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.

    Building a parser leaves cyclic garbage (argparse's help-formatter
    sections) that only the cyclic collector frees, so a process that runs
    many commands would hold it, run after run, until a full collection.
    """
    return build_parser()


def run_cli(argv: list[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "replicates", 0) > 0 and args.seed is None:
            parser.error(f"--seed is required when {args.replicates_flag} > 0")
        if args.command != "stats" and not (args.out or args.out_csv):
            parser.error("nothing to do: supply --out and/or --out-csv")
    except SystemExit as exc:
        return int(exc.code or 0)

    outputs = _StagedOutputs()
    try:
        summary = args.run(args, outputs)
        outputs.commit()
    except (SurvmrlError, OSError, MemoryError) as exc:
        print(str(exc) or "out of memory", file=sys.stderr)
        return 1
    finally:
        outputs.discard()
    try:
        print(summary, flush=True)
    except BrokenPipeError:
        # Send what is still buffered to devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("stdout closed before the whole summary was written", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
