"""Tests for CSV ingestion, report serialization, and the CLI commands."""

import io
import json

import numpy as np
import pytest

from pairinfo import EmpiricalPmf, PairShape
from pairinfo.cli import (
    main,
    parse_counts_csv,
    parse_pairs_csv,
    parse_sizes,
    serialize_counts_csv,
)
from pairinfo.pmf import LabeledAlphabets

DEMO_COUNTS_CSV = "x1,y1,2\nx1,y2,4\nx2,y1,1\nx2,y2,3\n"


class TestParsePairsCsv:
    def test_first_appearance_order_and_encoding(self):
        alphabets, sample = parse_pairs_csv(io.StringIO("a,p\na,q\nb,p\n"))
        assert alphabets.x_labels == ("a", "b")
        assert alphabets.y_labels == ("p", "q")
        np.testing.assert_array_equal(sample, [1, 2, 3])

    def test_realizes_expected_frequencies(self):
        rows = ["x1,y1"] * 2 + ["x1,y2"] * 4 + ["x2,y1"] * 1 + ["x2,y2"] * 3
        alphabets, sample = parse_pairs_csv(io.StringIO("\n".join(rows) + "\n"))
        emp = EmpiricalPmf(np.bincount(sample - 1, minlength=4), alphabets.shape)
        np.testing.assert_allclose(emp.freqs, [0.2, 0.4, 0.1, 0.3])

    def test_ragged_row_reports_line_number(self):
        text = "a,p\n" * 6 + "a,p,extra\n"
        with pytest.raises(ValueError, match="line 7: expected 2 fields"):
            parse_pairs_csv(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty input"):
            parse_pairs_csv(io.StringIO(""))

    def test_header_skipped_only_on_request(self):
        text = "x,y\na,p\nb,q\n"
        alphabets, sample = parse_pairs_csv(io.StringIO(text), header=True)
        assert alphabets.x_labels == ("a", "b")
        assert sample.size == 2
        # without the flag the first row is data
        alphabets2, sample2 = parse_pairs_csv(io.StringIO(text))
        assert alphabets2.x_labels == ("x", "a", "b")

    def test_blank_lines_are_ignored(self):
        alphabets, sample = parse_pairs_csv(io.StringIO("a,p\n\nb,q\n\n"))
        assert sample.size == 2

    def test_crlf_input(self):
        alphabets, sample = parse_pairs_csv(io.StringIO("a,p\r\nb,q\r\n"))
        assert alphabets.y_labels == ("p", "q")


class TestParseCountsCsv:
    def test_working_table(self):
        alphabets, emp = parse_counts_csv(io.StringIO(DEMO_COUNTS_CSV))
        assert alphabets.x_labels == ("x1", "x2")
        np.testing.assert_array_equal(emp.counts, [2, 4, 1, 3])
        assert emp.n == 10

    def test_missing_cell_counts_zero(self):
        text = "x1,y1,2\nx1,y2,4\nx2,y2,3\n"
        _, emp = parse_counts_csv(io.StringIO(text))
        np.testing.assert_array_equal(emp.counts, [2, 4, 0, 3])

    def test_duplicate_cell(self):
        text = "x1,y1,2\nx1,y1,3\n"
        with pytest.raises(ValueError, match=r"line 2: duplicate cell \(x1, y1\)"):
            parse_counts_csv(io.StringIO(text))

    def test_count_must_be_nonnegative_integer(self):
        with pytest.raises(ValueError, match="line 1: count"):
            parse_counts_csv(io.StringIO("x1,y1,2.5\n"))
        with pytest.raises(ValueError, match="nonnegative"):
            parse_counts_csv(io.StringIO("x1,y1,-2\n"))

    def test_all_zero_counts(self):
        with pytest.raises(ValueError, match="zero"):
            parse_counts_csv(io.StringIO("x1,y1,0\nx1,y2,0\n"))

    def test_field_count(self):
        with pytest.raises(ValueError, match="line 1: expected 3 fields"):
            parse_counts_csv(io.StringIO("x1,y1\n"))

    def test_counts_beyond_int64(self):
        text = "x1,y1,1\nx1,y2,9223372036854775808\n"
        with pytest.raises(ValueError, match="line 2: count must be at most"):
            parse_counts_csv(io.StringIO(text))
        # Every count fits, but their total wraps around in int64.
        text = "".join(f"x{i},y{j},{2**62 + 1}\n" for i in (1, 2) for j in (1, 2))
        with pytest.raises(ValueError, match="int64"):
            parse_counts_csv(io.StringIO(text))


class TestSerializeRoundTrip:
    def test_round_trip_preserves_table(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            counts = rng.integers(0, 30, size=rows * cols)
            if counts.sum() == 0:
                counts[0] = 1
            emp = EmpiricalPmf(counts, PairShape(rows, cols))
            alphabets = LabeledAlphabets(
                tuple(f"x{i}" for i in range(rows)),
                tuple(f"y{j}" for j in range(cols)),
            )
            text = serialize_counts_csv(alphabets, emp)
            alphabets2, emp2 = parse_counts_csv(io.StringIO(text))
            assert alphabets2.x_labels == alphabets.x_labels
            assert alphabets2.y_labels == alphabets.y_labels
            assert emp2 == emp

    def test_labels_with_commas_survive(self):
        emp = EmpiricalPmf(np.array([3, 4]), PairShape(1, 2))
        alphabets = LabeledAlphabets(("a,b",), ("p", "q r"))
        text = serialize_counts_csv(alphabets, emp)
        alphabets2, emp2 = parse_counts_csv(io.StringIO(text))
        assert alphabets2.x_labels == ("a,b",)
        assert emp2 == emp


class TestParseSizes:
    def test_inclusive_grid(self):
        assert parse_sizes("100:500:100") == [100, 200, 300, 400, 500]
        assert parse_sizes("10:11:5") == [10]

    def test_validation(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_sizes("100:500")
        with pytest.raises(ValueError, match="integers"):
            parse_sizes("a:b:c")
        with pytest.raises(ValueError, match="start"):
            parse_sizes("0:10:1")
        with pytest.raises(ValueError, match="step"):
            parse_sizes("10:20:0")
        with pytest.raises(ValueError, match="stop"):
            parse_sizes("20:10:1")


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(DEMO_COUNTS_CSV, encoding="utf-8")
    return str(path)


class TestCliCommands:
    def test_estimate_report(self, counts_file, capsys):
        code = main(["estimate", "--input", counts_file, "--format", "counts"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["schema_version", "config", "alphabets", "results"]
        assert report["schema_version"] == 1
        assert report["alphabets"] == {"x": ["x1", "x2"], "y": ["y1", "y2"]}
        ent = report["results"]["joint_entropy"]
        assert ent["estimate"] == 1.27985423  # 9 significant digits
        assert ent["n"] == 10
        assert ent["ci_lower"] == 1.01622509
        assert ent["ci_upper"] == 1.54348336
        assert ent["std_error"] == 0.134507132
        mi = report["results"]["mutual_information"]
        assert mi["estimate"] == 0.00402174323
        assert mi["variance"]["canonical"] == 0.00790830518
        assert mi["ci_lower"] == -0.0510957936
        assert mi["ci_upper"] == 0.0591392801
        assert mi["std_error"] == 0.028121709
        assert report["config"]["alpha"] == 0.05

    def test_test_command(self, counts_file, capsys):
        code = main(
            ["test", "--input", counts_file, "--format", "counts", "--alpha", "0.05"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # The block printed in the README, at 9 significant digits.
        assert report["results"]["independence_test"] == {
            "gamma_sq": 0.0804348646,
            "df": 1,
            "threshold": 3.84145882,
            "mi_threshold": 0.192072941,
            "p_value": 0.776708959,
            "reject": False,
            "alpha": 0.05,
            "n": 10,
        }

    def test_pairs_format(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        path.write_text("a,p\na,q\nb,p\nb,q\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "pairs"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["mutual_information"]["estimate"] == 0.0

    def test_trace_csv_output(self, counts_file, capsys):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "100:300:100", "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config:")
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "size,estimate,abs_error,a_zn,ratio"
        assert len(lines) == header_at + 1 + 3
        assert lines[header_at + 1].startswith("100,")

    def test_power_command(self, counts_file, capsys):
        code = main(
            [
                "power", "--input", counts_file, "--format", "counts",
                "--n", "2000", "--replicates", "40", "--seed", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        rate = report["results"]["rejection_rate"]["rate"]
        assert 0.0 <= rate <= 1.0

    def test_normality_json(self, counts_file, capsys):
        code = main(
            [
                "normality", "--input", counts_file, "--format", "counts",
                "--measure", "entropy", "--n", "1000", "--replicates", "100",
                "--seed", "11",
            ]
        )
        assert code == 0
        res = json.loads(capsys.readouterr().out)["results"]["normality"]
        assert len(res["t_values"]) == 100
        assert len(res["bin_edges"]) == 41
        assert sum(res["bin_counts"]) == 100
        assert res["sigma"] > 0

    def test_output_file(self, counts_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate", "--input", counts_file, "--format", "counts",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # report went to the file
        assert json.loads(out.read_text())["schema_version"] == 1

    def test_header_flag(self, tmp_path, capsys):
        path = tmp_path / "with_header.csv"
        path.write_text("x,y,count\n" + DEMO_COUNTS_CSV, encoding="utf-8")
        code = main(
            ["estimate", "--input", str(path), "--format", "counts", "--header"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alphabets"]["x"] == ["x1", "x2"]


CONFIG_KEYS = [
    "command", "input", "format", "header", "alpha", "seed", "n",
    "replicates", "sizes", "measure", "output", "output_format",
]
NORMALITY_SCALARS = [
    "measure", "n", "replicates", "true_value", "sigma", "mean", "variance",
    "ks_distance",
]
TRACE_ARGS = ["trace", "--measure", "mi", "--sizes", "100:300:100", "--seed", "7"]
NORMALITY_ARGS = [
    "normality", "--measure", "entropy", "--n", "1000", "--replicates", "100",
    "--seed", "11",
]
ESTIMATE_KEYS = [
    "estimate", "n", "std_error", "ci_lower", "ci_upper", "alpha", "variance",
]


class TestReportLayout:
    """Key order and CSV preamble of every report, pinned as a format."""

    @pytest.mark.parametrize(
        "args, block, keys",
        [
            (["estimate"], "joint_entropy", ESTIMATE_KEYS),
            (["estimate"], "mutual_information", ESTIMATE_KEYS),
            (
                ["test"],
                "independence_test",
                ["gamma_sq", "df", "threshold", "mi_threshold", "p_value",
                 "reject", "alpha", "n"],
            ),
            (
                TRACE_ARGS + ["--output-format", "json"],
                "trace",
                ["measure", "true_value", "sizes", "estimates", "abs_errors",
                 "a_zn", "ratio"],
            ),
            (
                NORMALITY_ARGS,
                "normality",
                NORMALITY_SCALARS + [
                    "t_values", "bin_edges", "bin_counts", "qq_theoretical",
                    "qq_sample",
                ],
            ),
            (
                ["power", "--n", "200", "--replicates", "5"],
                "rejection_rate",
                ["rate", "n", "replicates", "alpha"],
            ),
        ],
    )
    def test_json_key_order(self, counts_file, capsys, args, block, keys):
        assert main(args + ["--input", counts_file, "--format", "counts"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["config"]) == CONFIG_KEYS
        assert list(report["results"][block]) == keys
        if args == ["estimate"]:
            assert list(report["results"]) == ["joint_entropy", "mutual_information"]
            variance = report["results"][block]["variance"]
            assert list(variance) == ["canonical", "alternate", "discrepancy"]

    def test_trace_csv_preamble(self, counts_file, capsys):
        assert main(TRACE_ARGS + ["--input", counts_file, "--format", "counts"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0].startswith("# config: {")
        assert list(json.loads(lines[0][len("# config: "):])) == CONFIG_KEYS
        assert lines[1] == "# measure: mi, true_value: 0.00402174323"
        assert lines[2] == "size,estimate,abs_error,a_zn,ratio"
        assert lines[3].startswith("100,")

    def test_normality_csv_preamble(self, counts_file, capsys):
        args = NORMALITY_ARGS + [
            "--input", counts_file, "--format", "counts", "--output-format", "csv",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.split("\n")
        assert list(json.loads(lines[0][len("# config: "):])) == CONFIG_KEYS
        assert lines[1].startswith('# summary: {"measure":"entropy","n":1000,')
        assert list(json.loads(lines[1][len("# summary: "):])) == NORMALITY_SCALARS
        assert lines[2].startswith("# bin_edges: [-4.0, -3.8, ")
        assert lines[3].startswith("# bin_counts: [")
        assert lines[4] == "index,t_value,qq_theoretical,qq_order_statistic"
        assert lines[5].startswith("1,")
        assert len(lines) == 5 + 100 + 1  # trailing newline


class TestCliDeterminism:
    def test_identical_config_gives_identical_bytes(self, counts_file, capsys):
        args = [
            "normality", "--input", counts_file, "--format", "counts",
            "--measure", "mi", "--n", "1000", "--replicates", "100",
            "--seed", "13",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trace_rerun_identical(self, counts_file, capsys):
        args = [
            "trace", "--input", counts_file, "--format", "counts",
            "--measure", "entropy", "--sizes", "100:1000:100", "--seed", "5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestCliErrors:
    def test_missing_file_exits_2(self, capsys):
        code = main(["estimate", "--input", "/no/such/file.csv", "--format", "counts"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "expected 3 fields" in capsys.readouterr().err

    def test_invalid_alpha_exits_2(self, counts_file, capsys):
        code = main(
            ["test", "--input", counts_file, "--format", "counts", "--alpha", "1.5"]
        )
        assert code == 2

    def test_degenerate_alphabet_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one_row.csv"
        path.write_text("x1,y1,3\nx1,y2,7\n", encoding="utf-8")
        code = main(["test", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "degenerate alphabet" in capsys.readouterr().err

    def test_count_beyond_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x1,y1,9223372036854775808\nx2,y2,1\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--format", "counts"])
        assert code == 2
        assert "line 1: count must be at most" in capsys.readouterr().err

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 64

    def test_unknown_flag_exits_64(self, counts_file):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--input", counts_file, "--format", "counts", "--bogus"])
        assert info.value.code == 64

    def test_missing_required_flag_exits_64(self):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--format", "counts"])
        assert info.value.code == 64

    def test_bad_sizes_exit_2(self, counts_file):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "10:5:1",
            ]
        )
        assert code == 2

    def test_empty_sizes_exit_2(self, counts_file, capsys):
        code = main(
            [
                "trace", "--input", counts_file, "--format", "counts",
                "--measure", "mi", "--sizes", "",
            ]
        )
        assert code == 2
        assert "sizes must be start:stop:step, got ''" in capsys.readouterr().err
