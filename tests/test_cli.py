import numpy as np
import pytest

from survmrl.cli import run_cli


@pytest.fixture()
def survival_csv(tmp_path):
    rng = np.random.default_rng(7)
    rows = ["time,status,group"]
    for label, mean in (("A", 2.0), ("B", 3.0)):
        t = rng.exponential(mean, 400)
        c = rng.exponential(mean * 3, 400)
        observed = np.minimum(t, c)
        status = (t <= c).astype(int)
        rows += [f"{float(x)!r},{int(s)},{label}" for x, s in zip(observed, status)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture()
def survey_csv(tmp_path):
    rng = np.random.default_rng(3)
    rows = ["participant,item,pre,post"]
    for p in range(20):
        for item in range(3):
            rows.append(
                f"p{p:02d},i{item},{int(rng.uniform() < 0.5)},{int(rng.uniform() < 0.8)}"
            )
    path = tmp_path / "survey.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestExitCodes:
    def test_km_happy_path(self, survival_csv, tmp_path, capsys):
        out = tmp_path / "km.svg"
        code = run_cli(["km", "--input", str(survival_csv), "--out", str(out)])
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "km" in summary and "groups=A,B" in summary

    def test_bad_quantile_is_flag_error(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "mrl",
                "--input",
                str(survival_csv),
                "--threshold-quantile",
                "1.5",
                "--out",
                str(tmp_path / "x.svg"),
            ]
        )
        assert code == 2

    def test_permutations_require_seed(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "diff",
                "--input",
                str(survival_csv),
                "--groups",
                "A,B",
                "--out",
                str(tmp_path / "d.svg"),
            ]
        )
        assert code == 2

    def test_permutations_zero_needs_no_seed(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "diff",
                "--input",
                str(survival_csv),
                "--groups",
                "A,B",
                "--permutations",
                "0",
                "--out",
                str(tmp_path / "d.svg"),
            ]
        )
        assert code == 0

    def test_bootstrap_requires_seed(self, survey_csv):
        assert run_cli(["stats", "--input", str(survey_csv), "--bootstrap", "100"]) == 2

    def test_unknown_group_is_data_error(self, survival_csv, tmp_path, capsys):
        code = run_cli(
            ["km", "--input", str(survival_csv), "--groups", "Z", "--out", str(tmp_path / "k.svg")]
        )
        assert code == 1
        assert "not in dataset" in capsys.readouterr().err

    def test_empty_dataset_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("time,status,group\n")
        code = run_cli(["km", "--input", str(empty), "--out", str(tmp_path / "k.svg")])
        assert code == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_non_utf8_survey_is_one_line_data_error(self, tmp_path, capsys):
        survey = tmp_path / "latin1.csv"
        survey.write_bytes("participant,item,pre,post\nJosé,i1,1,0\n".encode("latin-1"))
        code = run_cli(["stats", "--input", str(survey)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input is not valid UTF-8: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_nan_threshold_is_flag_error(self, survival_csv, tmp_path, capsys):
        code = run_cli(
            ["mrl", "--input", str(survival_csv), "--threshold", "nan", "--out", str(tmp_path / "m.svg")]
        )
        assert code == 2
        assert "must be > 0, got nan" in capsys.readouterr().err

    def test_mrl_diff_needs_exactly_two_groups(self, survival_csv, tmp_path, capsys):
        code = run_cli(
            [
                "mrl-diff",
                "--input",
                str(survival_csv),
                "--groups",
                "A",
                "--out",
                str(tmp_path / "m.svg"),
            ]
        )
        assert code == 1
        assert "exactly two groups" in capsys.readouterr().err

    def test_missing_output_flags_is_flag_error(self, survival_csv):
        assert run_cli(["km", "--input", str(survival_csv)]) == 2

    def test_bad_seed_is_flag_error(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "diff",
                "--input",
                str(survival_csv),
                "--groups",
                "A,B",
                "--seed",
                "-3",
                "--out",
                str(tmp_path / "d.svg"),
            ]
        )
        assert code == 2


class TestOutputs:
    def test_km_multi_group_csv_per_group(self, survival_csv, tmp_path):
        out_csv = tmp_path / "km.csv"
        code = run_cli(
            ["km", "--input", str(survival_csv), "--out-csv", str(out_csv)]
        )
        assert code == 0
        assert (tmp_path / "km.A.csv").exists()
        assert (tmp_path / "km.B.csv").exists()

    def test_km_single_group_csv_exact_path(self, survival_csv, tmp_path):
        out_csv = tmp_path / "only.csv"
        code = run_cli(
            [
                "km",
                "--input",
                str(survival_csv),
                "--groups",
                "A",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.exists()

    def test_diff_writes_envelope_columns(self, survival_csv, tmp_path):
        out_csv = tmp_path / "d.csv"
        code = run_cli(
            [
                "diff",
                "--input",
                str(survival_csv),
                "--groups",
                "A,B",
                "--permutations",
                "50",
                "--seed",
                "11",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == "t,value,lower,upper"

    def test_mrl_summary_reports_fit(self, survival_csv, tmp_path, capsys):
        code = run_cli(
            ["mrl", "--input", str(survival_csv), "--out", str(tmp_path / "m.svg")]
        )
        assert code == 0
        summary = capsys.readouterr().out
        for token in ("threshold_quantile=0.8", "min_exceedances=10", "shape=", "scale=", "converged=", "grid_size="):
            assert token in summary

    def test_stats_writes_table(self, survey_csv, tmp_path, capsys):
        out_csv = tmp_path / "stats.csv"
        code = run_cli(
            [
                "stats",
                "--input",
                str(survey_csv),
                "--bootstrap",
                "200",
                "--seed",
                "5",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert code == 0
        console = capsys.readouterr().out
        assert "participants=20" in console
        assert "mcnemar_p_continuity" in console
        header = out_csv.read_text().splitlines()[0]
        assert header == "metric,value,lower,upper"

    def test_ratio_runs(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "ratio",
                "--input",
                str(survival_csv),
                "--groups",
                "A,B",
                "--permutations",
                "40",
                "--seed",
                "2",
                "--out",
                str(tmp_path / "r.svg"),
            ]
        )
        assert code == 0

    def test_explicit_threshold_mode(self, survival_csv, tmp_path, capsys):
        code = run_cli(
            [
                "mrl",
                "--input",
                str(survival_csv),
                "--groups",
                "A",
                "--threshold",
                "2.0",
                "--out",
                str(tmp_path / "m.svg"),
            ]
        )
        assert code == 0
        assert "threshold=2.0" in capsys.readouterr().out

    def test_threshold_modes_mutually_exclusive(self, survival_csv, tmp_path):
        code = run_cli(
            [
                "mrl",
                "--input",
                str(survival_csv),
                "--threshold",
                "2.0",
                "--threshold-quantile",
                "0.7",
                "--out",
                str(tmp_path / "m.svg"),
            ]
        )
        assert code == 2

    def test_same_seed_reruns_identical(self, survival_csv, tmp_path):
        outs = []
        for tag in ("one", "two"):
            svg = tmp_path / f"{tag}.svg"
            csv_path = tmp_path / f"{tag}.csv"
            code = run_cli(
                [
                    "diff",
                    "--input",
                    str(survival_csv),
                    "--groups",
                    "A,B",
                    "--permutations",
                    "60",
                    "--seed",
                    "21",
                    "--out",
                    str(svg),
                    "--out-csv",
                    str(csv_path),
                ]
            )
            assert code == 0
            outs.append((svg.read_bytes(), csv_path.read_bytes()))
        assert outs[0] == outs[1]
