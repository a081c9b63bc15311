"""Survival curves and hybrid mean residual life for right-censored data.

Pipeline: load grouped samples from CSV, fit product-limit survival
curves, combine a restricted below-threshold MRL with a censored-
likelihood GPD tail into a hybrid MRL estimate, compare groups via
difference/ratio curves with seeded permutation envelopes, and emit
deterministic SVG plots and CSV exports.
"""

from .compare import (
    ComparisonCurve,
    Envelope,
    mrl_difference,
    permutation_envelope,
    survival_difference,
    survival_ratio,
)
from .dataset import SurvivalSample, load_dataset
from .errors import EstimationError, ParseError, SchemaError, SurvmrlError
from .gpd import GpdFit, fit_gpd, gpd_log_likelihood, gpd_mrl_at_threshold
from .km import KmCurve, StepFunction, km_fit, step_eval, step_integral
from .mrl import MrlCurve, ThresholdConfig, evaluate_mrl, fit_hybrid_mrl, select_threshold
from .render import PlotSeries, PlotSpec, export_curve_csv, render_plot_svg
from .studystats import (
    BootstrapCi,
    McnemarResult,
    PairedBinary,
    PairedSurvey,
    WilcoxonResult,
    bootstrap_proportion_ci,
    bootstrap_proportion_cis,
    load_paired_survey,
    mcnemar_test,
    wilcoxon_from_differences,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapCi",
    "ComparisonCurve",
    "Envelope",
    "EstimationError",
    "GpdFit",
    "KmCurve",
    "McnemarResult",
    "MrlCurve",
    "PairedBinary",
    "PairedSurvey",
    "ParseError",
    "PlotSeries",
    "PlotSpec",
    "SchemaError",
    "StepFunction",
    "SurvivalSample",
    "SurvmrlError",
    "ThresholdConfig",
    "WilcoxonResult",
    "bootstrap_proportion_ci",
    "bootstrap_proportion_cis",
    "evaluate_mrl",
    "export_curve_csv",
    "fit_gpd",
    "fit_hybrid_mrl",
    "gpd_log_likelihood",
    "gpd_mrl_at_threshold",
    "km_fit",
    "load_dataset",
    "load_paired_survey",
    "mcnemar_test",
    "mrl_difference",
    "permutation_envelope",
    "render_plot_svg",
    "select_threshold",
    "step_eval",
    "step_integral",
    "survival_difference",
    "survival_ratio",
    "wilcoxon_from_differences",
    "wilcoxon_signed_rank",
]
