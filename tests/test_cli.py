import os
import resource
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import survmrl
from survmrl import cli
from survmrl.cli import run_cli


# Group A has no events and its follow-up ends at 2, before B's only event at 3.
NO_COMMON_WINDOW_CSV = "time,status,group\n1,0,A\n2,0,A\n3,1,B\n4,0,B\n"


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

    def test_permutations_require_seed(self, survival_csv, tmp_path, capsys):
        # the default --permutations is 1000, so a diff or ratio run without --seed is a flag error
        for command in ("diff", "ratio"):
            code = run_cli([command, "--input", str(survival_csv), "--groups", "A,B", "--out", str(tmp_path / "d.svg")])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.splitlines()[-1] == "survmrl: error: --seed is required when --permutations > 0"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

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

    def test_bootstrap_requires_seed(self, survey_csv, capsys):
        assert run_cli(["stats", "--input", str(survey_csv), "--bootstrap", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "survmrl: error: --seed is required when --bootstrap > 0"

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

    def test_km_csv_of_group_without_events_names_the_group(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(NO_COMMON_WINDOW_CSV)
        out = tmp_path / "km.csv"
        code = run_cli(["km", "--input", str(data), "--out", str(tmp_path / "km.svg"), "--out-csv", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "group 'A' has no events, so its Kaplan-Meier CSV has no rows\n"
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("command, flag, name", [("mrl", "--out-csv", "m.csv"), ("mrl-diff", "--out", "m.svg")])
    def test_mrl_fit_error_names_the_group(self, command, flag, name, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(NO_COMMON_WINDOW_CSV)
        code = run_cli([command, "--input", str(data), flag, str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "group 'A': no events for quantile threshold\n"
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("permutations", [["--permutations", "0"], ["--permutations", "10", "--seed", "1"]])
    @pytest.mark.parametrize("command", ["diff", "ratio"])
    def test_no_common_window_is_one_line_data_error(self, command, permutations, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(NO_COMMON_WINDOW_CSV)
        code = run_cli([command, "--input", str(data), *permutations, "--out", str(tmp_path / "c.svg")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "no common follow-up window\n"
        assert sorted(tmp_path.iterdir()) == [data]

    def test_non_utf8_survey_is_one_line_data_error(self, tmp_path, capsys):
        survey = tmp_path / "latin1.csv"
        survey.write_bytes("participant,item,pre,post\nJosé,i1,1,0\n".encode("latin-1"))
        code = run_cli(["stats", "--input", str(survey)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input is not valid UTF-8: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_duplicate_survey_row_is_one_line_data_error(self, tmp_path, capsys):
        survey = tmp_path / "dup.csv"
        survey.write_text("participant,item,pre,post\np1,i1,0,1\np1,i1,1,0\n")
        code = run_cli(["stats", "--input", str(survey)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("row 2: duplicate (participant, item)")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_nan_threshold_is_flag_error(self, survival_csv, tmp_path, capsys):
        for value in ("nan", "inf"):
            code = run_cli(
                ["mrl", "--input", str(survival_csv), "--threshold", value, "--out", str(tmp_path / "m.svg")]
            )
            assert code == 2
            assert f"must be finite and > 0, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [["mrl"], ["diff", "--permutations", "0"], ["ratio", "--permutations", "0"]])
    def test_nonfinite_or_negative_grid_is_flag_error(self, argv, point, survival_csv, tmp_path, capsys):
        out = tmp_path / "g.svg"
        code = run_cli([*argv, "--input", str(survival_csv), "--grid", point, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("usage:")
        assert f"grid values must be finite and >= 0, got {point}" in captured.err
        assert not out.exists()

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

    def test_stats_summary_counts_participants_items_and_pairs(self, tmp_path, capsys):
        # sample_data/survey.csv: 32 participants, each answering the same 4 items
        survey = Path(__file__).resolve().parent.parent / "sample_data" / "survey.csv"
        assert run_cli(["stats", "--input", str(survey), "--out-csv", str(tmp_path / "stats.csv")]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line == f"stats input={survey} participants=32 items=4 pairs=128 bootstrap=0"

    @pytest.mark.parametrize("fixture, command", [("survival_csv", "km"), ("survey_csv", "stats")])
    def test_a_leading_byte_order_mark_is_ignored(self, fixture, command, request, tmp_path, capsys):
        # "CSV UTF-8" files saved by spreadsheets start with the bytes EF BB BF
        source = request.getfixturevalue(fixture)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        outputs = []
        for path in (source, marked):
            out = tmp_path / path.stem
            out.mkdir()
            assert run_cli([command, "--input", str(path), "--out-csv", str(out / "out.csv")]) == 0
            summary = capsys.readouterr().out.replace(str(path), "INPUT")
            outputs.append((summary, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert outputs[0] == outputs[1] and outputs[0][1]

    def test_stats_value_column_does_not_depend_on_bootstrap(self, tmp_path):
        # survey_ragged.csv's means differ in the last bit between a
        # left-to-right sum and numpy's pairwise mean.
        survey = Path(__file__).resolve().parent.parent / "sample_data" / "survey_ragged.csv"
        values = []
        for extra in ([], ["--bootstrap", "50", "--seed", "3"]):
            out_csv = tmp_path / f"stats{len(extra)}.csv"
            assert run_cli(["stats", "--input", str(survey), "--out-csv", str(out_csv), *extra]) == 0
            values.append([line.split(",")[:2] for line in out_csv.read_text().splitlines()])
        assert values[0] == values[1]
        assert ["pre_accuracy", "0.3799404761904762"] in values[0]

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


class TestNoHalfWrittenOutputs:
    def test_failing_csv_leaves_no_svg(self, survival_csv, tmp_path, capsys):
        missing = tmp_path / "missing_dir" / "x.csv"
        code = run_cli(
            ["mrl", "--input", str(survival_csv), "--out", str(tmp_path / "ok.svg"), "--out-csv", str(missing)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "missing_dir" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_failing_second_group_csv_leaves_nothing(self, survival_csv, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "km.B.csv").mkdir(parents=True)
        code = run_cli(
            ["km", "--input", str(survival_csv), "--out", str(out / "km.svg"), "--out-csv", str(out / "km.csv")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("[Errno 21] Is a directory") and captured.err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["km.B.csv"]

    @pytest.mark.parametrize(
        "argv, out, out_csv, repeated",
        [
            (["diff", "--permutations", "0"], "d.out", "d.out", "d.out"),
            (["km"], "k.A.csv", "k.csv", "k.A.csv"),
        ],
    )
    def test_two_outputs_to_one_file_is_one_line_data_error(
        self, argv, out, out_csv, repeated, survival_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = run_cli([*argv, "--input", str(survival_csv), "--out", out, "--out-csv", str(tmp_path / out_csv)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"output {tmp_path / repeated} is named twice in this run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_output_under_a_symlink_loop_is_one_line_data_error(self, survival_csv, tmp_path, capsys):
        (tmp_path / "loop").symlink_to("loop")
        code = run_cli(["km", "--input", str(survival_csv), "--out", str(tmp_path / "loop" / "k.svg")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "data, flags",
        [
            ("survival_csv", ["diff", "--permutations", "100000000000000", "--out", "x.svg", "--out-csv", "x.csv"]),
            ("survey_csv", ["stats", "--bootstrap", "100000000000000", "--out-csv", "x.csv"]),
        ],
        ids=["diff", "stats"],
    )
    def test_replicates_beyond_memory_are_one_line_data_error(
        self, data, flags, request, tmp_path, monkeypatch, capsys
    ):
        # the replicate array is larger than the address space, so its allocation fails at once
        data = request.getfixturevalue(data)
        monkeypatch.chdir(tmp_path)
        code = run_cli([*flags, "--input", str(data), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == [data.name]

    def test_stream_that_differs_from_numpy_is_one_line_error(self, survey_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(survmrl.compare, "_MIX_MULT_R", np.uint32(0x4973F716))
        out = tmp_path / "stats.csv"
        code = run_cli(["stats", "--input", str(survey_csv), "--bootstrap", "10", "--seed", "1", "--out-csv", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "differs from numpy" in captured.err
        assert not out.exists()

    def test_bootstrap_draw_that_differs_from_numpy_is_one_line_error(self, survey_csv, tmp_path, monkeypatch, capsys):
        numpy_row = survmrl.compare._numpy_draw
        monkeypatch.setattr(survmrl.compare, "_numpy_draw", lambda seed, b, n: (numpy_row(seed, b, n) + 1) % n)
        out = tmp_path / "stats.csv"
        code = run_cli(["stats", "--input", str(survey_csv), "--bootstrap", "10", "--seed", "1", "--out-csv", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"bootstrap draw 0 of seed 1 differs from numpy {np.__version__}'s Generator.integers\n"
        assert not out.exists()

    def test_existing_outputs_replaced_only_on_success(self, survival_csv, tmp_path):
        svg = tmp_path / "km.svg"
        svg.write_bytes(b"old")
        code = run_cli(
            ["km", "--input", str(survival_csv), "--out", str(svg), "--out-csv", str(tmp_path / "no" / "k.csv")]
        )
        assert code == 1 and svg.read_bytes() == b"old"
        assert run_cli(["km", "--input", str(survival_csv), "--out", str(svg)]) == 0
        assert svg.read_bytes().startswith(b"<svg") or svg.read_bytes().startswith(b"<?xml")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "km.svg"]


def test_closed_stdout_is_one_stderr_line_after_the_outputs(survey_csv, tmp_path, capsys):
    argv = ["stats", "--input", str(survey_csv), "--bootstrap", "50", "--seed", "1", "--out-csv"]
    assert run_cli([*argv, str(tmp_path / "normal.csv")]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the summary can only fail to be written
    env = {**os.environ, "PYTHONPATH": str(Path(survmrl.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "survmrl.cli", *argv, str(tmp_path / "piped.csv")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b"stdout closed before the whole summary was written\n"
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "normal.csv").read_bytes()


class TestUnconvergedTailWarning:
    def test_converged_fits_print_no_warning(self, survival_csv, tmp_path, capsys):
        assert run_cli(["mrl", "--input", str(survival_csv), "--out", str(tmp_path / "m.svg")]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "converged=True" in captured.out


def _relabel(source, tmp_path, label):
    """``source`` with group A renamed to ``label`` (quoted CSV field)."""
    text = source.read_text().replace(",A\n", ',"' + label.replace('"', '""') + '"\n')
    path = tmp_path / "relabelled.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestGroupLabelsInFileNames:
    @pytest.mark.parametrize("command", ["km", "mrl"])
    @pytest.mark.parametrize("label", ["a/b", "a\0b"])
    def test_unusable_label_in_per_group_csv_is_one_line_data_error(
        self, command, label, survival_csv, tmp_path, capsys
    ):
        source = _relabel(survival_csv, tmp_path, label)
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli(
            [command, "--input", str(source), "--out", str(out / "p.svg"), "--out-csv", str(out / "p.csv")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        if "\0" in label:
            assert captured.err == "input holds a NUL byte\n"
        else:
            assert captured.err == f"group label {label!r} cannot be used in an output file name\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["km", "mrl"])
    def test_label_outside_file_names_keeps_working(self, command, survival_csv, tmp_path):
        source = _relabel(survival_csv, tmp_path, "a/b")
        single = run_cli([command, "--input", str(source), "--groups", "a/b", "--out-csv", str(tmp_path / "one.csv")])
        legend_only = run_cli([command, "--input", str(source), "--out", str(tmp_path / "both.svg")])
        assert (single, legend_only) == (0, 0)
        assert b"a/b" in (tmp_path / "both.svg").read_bytes()
        assert (tmp_path / "one.csv").read_text().startswith("t,value")


class TestControlCharacterLabels:
    @pytest.mark.parametrize("command", ["km", "mrl", "diff", "ratio", "mrl-diff"])
    @pytest.mark.parametrize("label", ["a\nb", "a\x01b"])
    def test_one_summary_line_and_well_formed_svg(self, command, label, survival_csv, tmp_path, capsys):
        source = _relabel(survival_csv, tmp_path, label)
        svg = tmp_path / "p.svg"
        extra = ["--permutations", "20", "--seed", "1"] if command in ("diff", "ratio") else []
        code = run_cli([command, "--input", str(source), "--out", str(svg), *extra])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n") and out[:-1].isprintable()
        assert repr(label) in out
        document = minidom.parse(str(svg))
        texts = [node.firstChild.data for node in document.getElementsByTagName("text")]
        assert any(label.replace("\x01", "\\x01") in text for text in texts)


@pytest.mark.parametrize(
    "argv",
    [
        ["km", "--groups", "A,A"],
        ["diff", "--groups", "A, A", "--permutations", "0"],
        ["mrl", "--groups", "A,B,A"],
        ["mrl-diff", "--groups", "B,B"],
    ],
)
def test_repeated_group_is_flag_error(argv, survival_csv, tmp_path, capsys):
    code = run_cli([*argv, "--input", str(survival_csv), "--out-csv", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"argument --groups: group '{argv[2][0]}' is listed more than once" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


class TestSignedZero:
    """-0 and 0 are one time and one grid point: the outputs are the same bytes."""

    def _outputs(self, tmp_path, name, argv):
        work = tmp_path / name
        work.mkdir()
        assert run_cli([*argv, "--out", str(work / "p.svg"), "--out-csv", str(work / "p.csv")]) == 0
        return {path.name: path.read_bytes() for path in sorted(work.iterdir())}

    def test_negative_zero_time(self, tmp_path):
        rows = "1,1,A\n2,0,A\n3,1,A\n0.5,1,B\n2.5,1,B\n4,0,B\n"
        runs = []
        for zero in ("0", "-0"):
            source = tmp_path / f"in{zero}.csv"
            source.write_text(f"time,status,group\n{zero},1,A\n{zero},0,B\n{rows}")
            runs.append(self._outputs(tmp_path, f"km{zero}", ["km", "--input", str(source)]))
        assert runs[0] == runs[1]
        assert b"-0.0" not in runs[1]["p.A.csv"] and runs[1]["p.A.csv"].startswith(b"t,value\n0.0,")

    @pytest.mark.parametrize(
        "argv, first, second",
        [
            (["diff", "--permutations", "20", "--seed", "1"], "--grid=-0,0,1", "--grid=0,-0,1"),
            (["ratio", "--permutations", "0"], "--grid=-0,0.5", "--grid=0,0.5"),
            (["mrl"], "--grid=-0,0.5,1", "--grid=0,0.5,1"),
        ],
    )
    def test_negative_zero_grid_point(self, argv, first, second, survival_csv, tmp_path):
        runs = [
            self._outputs(tmp_path, f"run{k}", [*argv, "--input", str(survival_csv), "--groups", "A,B", grid])
            for k, grid in enumerate((first, second))
        ]
        assert runs[0] == runs[1]
        assert all(b"\n-0.0," not in data for data in runs[0].values())


@pytest.mark.parametrize("command", ["km", "mrl", "diff", "ratio", "mrl-diff", "stats"])
def test_input_path_with_newline_keeps_the_summary_on_one_line(
    command, survival_csv, survey_csv, tmp_path, capsys
):
    source = survey_csv if command == "stats" else survival_csv
    odd = tmp_path / "new\nline.csv"
    odd.write_bytes(source.read_bytes())
    extra = {"diff": ["--permutations", "10", "--seed", "1"], "ratio": ["--permutations", "0"]}.get(command, [])
    if command != "stats":
        extra += ["--out-csv", str(tmp_path / "out.csv")]
    printed = []
    for path in (source, odd):
        assert run_cli([command, "--input", str(path), *extra]) == 0
        printed.append(capsys.readouterr().out)
    plain, quoted = printed
    assert quoted.count("\n") == plain.count("\n")
    if command != "stats":  # stats prints one line per metric after the summary
        assert quoted.count("\n") == 1
    first = quoted.split("\n", 1)[0]
    assert first.startswith(f"{command} input={str(odd)!r} ") and first.isprintable()


@pytest.mark.parametrize("factor", [1e-25, 1e25, 1e299])
@pytest.mark.parametrize("command", ["mrl", "mrl-diff"])
def test_times_outside_the_fitted_scale_range_are_one_stderr_line(command, factor, tmp_path):
    # a subprocess, so a numpy RuntimeWarning would reach the real stderr
    source = Path(__file__).resolve().parent.parent / "sample_data" / "two_groups.csv"
    header, *rows = source.read_text().splitlines()
    scaled = tmp_path / "scaled.csv"
    lines = [header]
    for row in rows:
        time, rest = row.split(",", 1)
        lines.append(f"{float(time) * factor!r},{rest}")
    scaled.write_text("\n".join(lines) + "\n")
    out = ["--out-csv", str(tmp_path / "out.csv")] if command == "mrl" else ["--out", str(tmp_path / "out.svg")]
    env = {**os.environ, "PYTHONPATH": str(Path(survmrl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "survmrl.cli", command, "--input", str(scaled), *out],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "outside the fitted scale range" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scaled.csv"]


HUGE_TIME_CSV = "time,status,group\n1,1,A\n1.79e308,1,A\n2,0,A\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["km", "--input", "{huge}"],
        ["diff", "--input", "{two_groups}", "--grid", "0,1.75e308", "--permutations", "0"],
    ],
    ids=["km-huge-time", "diff-huge-grid"],
)
def test_x_range_overflow_is_one_line_data_error(argv, tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_TIME_CSV)
    two_groups = Path(__file__).resolve().parent.parent / "sample_data" / "two_groups.csv"
    argv = [a.format(huge=huge, two_groups=two_groups) for a in argv]
    assert run_cli([*argv, "--out", str(tmp_path / "plot.svg")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "too large for the x axis" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.csv"]
    # the CSV alone draws no axis, so it is still written
    assert run_cli([*argv, "--out-csv", str(tmp_path / "curve.csv")]) == 0


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_ratio_a_few_ulps_from_one_ends(tmp_path):
    # The ratio is 0.9999999999999999, so the y range is a few ulps wide around 1
    # and its tick step is below half an ulp, where ``t += step`` cannot advance.
    data = tmp_path / "ulps.csv"
    data.write_text("time,status,group\n1,1,A\n2,1,A\n3,0,A\n1,1,B\n2,1,B\n2,1,B\n2,1,B\n3,0,B\n3,0,B\n")
    env = {**os.environ, "PYTHONPATH": str(Path(survmrl.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    argv = ["ratio", "--input", str(data), "--permutations", "0", "--grid", "2", "--out", str(tmp_path / "r.svg")]
    proc = subprocess.run(
        [sys.executable, "-m", "survmrl.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    minidom.parse(str(tmp_path / "r.svg"))


def test_cold_start_imports_no_network_or_xml_stack():
    # Every launch pays for what ``import survmrl.cli`` pulls in; xml.sax alone
    # used to bring urllib, http, ssl, socket and email along with it. The
    # runtime is numpy-only: scipy and hypothesis are test oracles.
    unwanted = ["xml.sax", "urllib.request", "http.client", "email", "ssl", "socket", "scipy", "hypothesis"]
    code = (
        "import sys, survmrl.cli; survmrl.cli.build_parser(); "
        f"print(','.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(survmrl.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_the_parser_is_built_once_per_process(monkeypatch, survival_csv, survey_csv, tmp_path):
    # Each parser leaves cyclic garbage (argparse's help-formatter sections),
    # which a process that runs many commands would hold until a full
    # collection.
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for command, source in [("km", survival_csv), ("stats", survey_csv)] * 2:
            assert run_cli([command, "--input", str(source), "--out-csv", str(tmp_path / "out.csv")]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
