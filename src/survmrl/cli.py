"""Command-line entry point.

Subcommands: ``km``, ``mrl``, ``diff``, ``ratio``, ``mrl-diff``, ``stats``.
Each run reads one CSV, writes SVG and/or CSV outputs, and prints a
one-line summary carrying every setting that affects the output, so a run
can be reproduced from its log line. Any request for resampling
(permutation envelopes, bootstrap intervals) requires an explicit seed.

Exit codes: 0 success, 1 data or estimation error (message on stderr),
2 flag errors (usage on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import compare, mrl, render, studystats
from .dataset import SurvivalSample, load_dataset
from .errors import SurvmrlError
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
_positive_float = _number_arg(float, lambda v: v > 0.0, "must be > 0")
_nonnegative_int = _number_arg(int, lambda v: v >= 0, "must be >= 0")
_seed_arg = _number_arg(int, lambda v: 0 <= v < 2**64, "seed must fit in an unsigned 64-bit range")
_min_exceedances_arg = _number_arg(int, lambda v: v >= 2, "must be >= 2")


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
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be a comma list of numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("grid is empty")
    return values


def _groups_arg(text: str) -> tuple[str, ...]:
    groups = tuple(g.strip() for g in text.split(",") if g.strip())
    if not groups:
        raise argparse.ArgumentTypeError("groups list is empty")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_BANNER,
        description="Survival curves, hybrid mean residual life, and comparison plots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_km = sub.add_parser("km", help="Kaplan-Meier survival plot")
    _add_io_arguments(p_km)
    p_km.add_argument("--groups", type=_groups_arg, help="groups to overlay (default: all)")

    p_mrl = sub.add_parser("mrl", help="hybrid mean residual life plot")
    _add_io_arguments(p_mrl)
    p_mrl.add_argument("--groups", type=_groups_arg, help="groups to overlay (default: all)")
    _add_threshold_arguments(p_mrl)
    p_mrl.add_argument("--grid", type=_grid_arg, help="evaluation times (comma list)")

    for name, title in (("diff", "survival difference"), ("ratio", "survival ratio")):
        p = sub.add_parser(name, help=f"{title} plot with permutation envelope")
        _add_io_arguments(p)
        p.add_argument("--groups", type=_groups_arg, help="two groups A,B (default: the file's two)")
        p.add_argument(
            "--permutations",
            type=_nonnegative_int,
            default=1000,
            help="envelope replicates (default 1000; 0 disables the envelope)",
        )
        p.add_argument("--seed", type=_seed_arg, help="RNG seed (required when permutations > 0)")
        p.add_argument("--band", type=_band_arg, default=(0.025, 0.975), help="band quantiles lo,hi")
        p.add_argument("--grid", type=_grid_arg, help="evaluation times (comma list)")

    p_md = sub.add_parser("mrl-diff", help="difference of hybrid MRL curves")
    _add_io_arguments(p_md)
    p_md.add_argument("--groups", type=_groups_arg, help="two groups A,B (default: the file's two)")
    _add_threshold_arguments(p_md)

    p_stats = sub.add_parser("stats", help="paired pre/post survey statistics")
    _add_io_arguments(p_stats, csv_only=True)
    p_stats.add_argument(
        "--bootstrap",
        type=_nonnegative_int,
        default=0,
        help="bootstrap replicates for proportion intervals (0 disables)",
    )
    p_stats.add_argument("--seed", type=_seed_arg, help="RNG seed (required when bootstrap > 0)")
    p_stats.add_argument("--band", type=_band_arg, default=(0.025, 0.975), help="interval quantiles lo,hi")
    return parser


def _resolve_groups(
    samples: dict[str, SurvivalSample],
    requested: tuple[str, ...] | None,
    exactly_two: bool,
) -> list[str]:
    if requested is None:
        groups = sorted(samples)
    else:
        missing = [g for g in requested if g not in samples]
        if missing:
            raise SurvmrlError(f"group(s) not in dataset: {', '.join(missing)}")
        groups = list(requested)
    if exactly_two and len(groups) != 2:
        raise SurvmrlError(f"need exactly two groups, got {len(groups)}: {', '.join(groups)}")
    return groups


def _threshold_config(args: argparse.Namespace) -> mrl.ThresholdConfig:
    if args.threshold is not None:
        return mrl.ThresholdConfig(
            mode="explicit",
            explicit_value=args.threshold,
            min_exceedances=args.min_exceedances,
        )
    return mrl.ThresholdConfig(
        mode="quantile",
        quantile=args.threshold_quantile,
        min_exceedances=args.min_exceedances,
    )


def _threshold_summary(args: argparse.Namespace) -> str:
    if args.threshold is not None:
        return f"threshold={args.threshold!r}"
    return f"threshold_quantile={args.threshold_quantile!r} min_exceedances={args.min_exceedances}"


def _per_group_csv_path(base: str, group: str, many: bool) -> Path:
    path = Path(base)
    if not many:
        return path
    return path.with_name(f"{path.stem}.{group}{path.suffix}")


def _write(path: str, data: bytes):
    Path(path).write_bytes(data)


def _run_km(args: argparse.Namespace) -> int:
    samples = load_dataset(args.input)
    groups = _resolve_groups(samples, args.groups, exactly_two=False)
    curves = {g: km_fit(samples[g]) for g in groups}
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
    if args.out:
        _write(args.out, render.render_plot_svg(spec))
    if args.out_csv:
        for g in groups:
            path = _per_group_csv_path(args.out_csv, g, many=len(groups) > 1)
            path.write_bytes(render.export_curve_csv(curves[g]))
    parts = [
        f"{g}: n={samples[g].n} events={sum(curves[g].deaths)} knots={len(curves[g].event_times)}"
        for g in groups
    ]
    print(f"km input={args.input} groups={','.join(groups)} | " + " | ".join(parts))
    return 0


def _run_mrl(args: argparse.Namespace) -> int:
    samples = load_dataset(args.input)
    groups = _resolve_groups(samples, args.groups, exactly_two=False)
    config = _threshold_config(args)
    curves = {g: mrl.fit_hybrid_mrl(samples[g], config, grid=args.grid) for g in groups}
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
    if args.out:
        _write(args.out, render.render_plot_svg(spec))
    if args.out_csv:
        for g in groups:
            path = _per_group_csv_path(args.out_csv, g, many=len(groups) > 1)
            path.write_bytes(render.export_curve_csv(curves[g]))
    parts = [
        f"{g}: u={c.threshold!r} shape={c.gpd.shape:.6g} scale={c.gpd.scale:.6g} "
        f"converged={c.gpd.converged} m={c.gpd.n_exceedances} grid_size={len(c.grid)}"
        for g, c in ((g, curves[g]) for g in groups)
    ]
    print(
        f"mrl input={args.input} groups={','.join(groups)} {_threshold_summary(args)} "
        f"grid={'custom' if args.grid else 'default'} | " + " | ".join(parts)
    )
    return 0


def _run_two_group_surv(args: argparse.Namespace, kind: str) -> int:
    samples = load_dataset(args.input)
    groups = _resolve_groups(samples, args.groups, exactly_two=True)
    group_a, group_b = groups
    curve_a, curve_b = km_fit(samples[group_a]), km_fit(samples[group_b])
    build = compare.survival_difference if kind == "surv_diff" else compare.survival_ratio
    curve = build(curve_a, curve_b, grid=args.grid, group_a=group_a, group_b=group_b)
    envelope = None
    if args.permutations > 0:
        envelope = compare.permutation_envelope(
            samples[group_a],
            samples[group_b],
            kind,
            n_permutations=args.permutations,
            seed=args.seed,
            grid=curve.grid,
            band_quantiles=args.band,
        )
    reference = 0.0 if kind == "surv_diff" else 1.0
    label = "survival difference" if kind == "surv_diff" else "survival ratio"
    spec = render.PlotSpec(
        title=f"{label} ({group_a} vs {group_b})",
        x_label="time",
        y_label=label,
        series=(render.PlotSeries(label=f"{group_a}-{group_b}", grid=curve.grid, values=curve.values),),
        envelope=envelope,
        reference_line=reference,
    )
    if args.out:
        _write(args.out, render.render_plot_svg(spec))
    if args.out_csv:
        _write(args.out_csv, render.export_curve_csv(curve, envelope=envelope))
    envelope_part = (
        f"permutations={args.permutations} seed={args.seed} band={args.band[0]!r},{args.band[1]!r}"
        if envelope is not None
        else "permutations=0"
    )
    command = "diff" if kind == "surv_diff" else "ratio"
    print(
        f"{command} input={args.input} groups={group_a},{group_b} {envelope_part} "
        f"grid_size={len(curve.grid)}"
    )
    return 0


def _run_mrl_diff(args: argparse.Namespace) -> int:
    samples = load_dataset(args.input)
    groups = _resolve_groups(samples, args.groups, exactly_two=True)
    group_a, group_b = groups
    config = _threshold_config(args)
    mrl_a = mrl.fit_hybrid_mrl(samples[group_a], config)
    mrl_b = mrl.fit_hybrid_mrl(samples[group_b], config)
    curve = compare.mrl_difference(mrl_a, mrl_b, group_a=group_a, group_b=group_b)
    spec = render.PlotSpec(
        title=f"MRL difference ({group_a} vs {group_b})",
        x_label="time",
        y_label="difference in mean residual life",
        series=(render.PlotSeries(label=f"{group_a}-{group_b}", grid=curve.grid, values=curve.values),),
        reference_line=0.0,
    )
    if args.out:
        _write(args.out, render.render_plot_svg(spec))
    if args.out_csv:
        _write(args.out_csv, render.export_curve_csv(curve))
    print(
        f"mrl-diff input={args.input} groups={group_a},{group_b} {_threshold_summary(args)} "
        f"u_a={mrl_a.threshold!r} u_b={mrl_b.threshold!r} "
        f"shape_a={mrl_a.gpd.shape:.6g} shape_b={mrl_b.gpd.shape:.6g} "
        f"converged={mrl_a.gpd.converged and mrl_b.gpd.converged} grid_size={len(curve.grid)}"
    )
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    survey = studystats.load_paired_survey(args.input)
    gain = studystats.ScoreVector(
        ids=survey.pre.ids,
        scores=tuple(b - a for a, b in zip(survey.pre.scores, survey.post.scores)),
    )
    rows: list[tuple[str, str, str, str]] = []

    def add(metric: str, value, lower="", upper=""):
        rows.append((metric, str(value), str(lower), str(upper)))

    if args.bootstrap > 0:
        for name, vector in (("pre_accuracy", survey.pre), ("post_accuracy", survey.post), ("learning_gain", gain)):
            ci = studystats.bootstrap_proportion_ci(
                vector, n_replicates=args.bootstrap, seed=args.seed, quantiles=args.band
            )
            add(name, repr(ci.estimate), repr(ci.lower), repr(ci.upper))
    else:
        add("pre_accuracy", repr(sum(survey.pre.scores) / survey.pre.n))
        add("post_accuracy", repr(sum(survey.post.scores) / survey.post.n))
        add("learning_gain", repr(sum(gain.scores) / gain.n))

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

    bootstrap_part = (
        f"bootstrap={args.bootstrap} seed={args.seed} band={args.band[0]!r},{args.band[1]!r}"
        if args.bootstrap > 0
        else "bootstrap=0"
    )
    print(
        f"stats input={args.input} participants={survey.pre.n} items={survey.n_items} "
        f"{bootstrap_part}"
    )
    for metric, value, lower, upper in rows:
        tail = f" [{lower}, {upper}]" if lower else ""
        print(f"  {metric} = {value}{tail}")
    if args.out_csv:
        lines = ["metric,value,lower,upper"]
        lines += [",".join(row) for row in rows]
        _write(args.out_csv, ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "permutations", 0) > 0 and args.seed is None:
            parser.error("--seed is required when --permutations > 0")
        if getattr(args, "bootstrap", 0) > 0 and args.seed is None:
            parser.error("--seed is required when --bootstrap > 0")
        if args.command != "stats" and not (args.out or args.out_csv):
            parser.error("nothing to do: supply --out and/or --out-csv")
    except SystemExit as exc:
        return int(exc.code or 0)

    runners = {
        "km": _run_km,
        "mrl": _run_mrl,
        "diff": lambda a: _run_two_group_surv(a, "surv_diff"),
        "ratio": lambda a: _run_two_group_surv(a, "surv_ratio"),
        "mrl-diff": _run_mrl_diff,
        "stats": _run_stats,
    }
    try:
        return runners[args.command](args)
    except SurvmrlError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
