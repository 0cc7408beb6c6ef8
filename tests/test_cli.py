"""CLI behavior: commands, output formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sqnn
from sqnn import linalg, model_io
from sqnn.cli import main
from sqnn.datasets import load_csv
from sqnn.features import PolynomialWeightFunction
from sqnn.training import GdConfig, LlsConfig, TrainedModel, arctanh_labels

from oracle import hstack_design, min_max_scale
from conftest import fake_gelsd, fake_gesdd, fake_openblas, write_synthetic_mnist


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, expect=0):
    result = runner.invoke(main, [str(a) for a in args])
    if result.exit_code != expect:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} != {expect} for {args}\n{result.output}"
            + (f"\n{result.exception}" if result.exception else ""))
    return result


class TestGen:
    def test_gate_csv(self, runner, tmp_path):
        out = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", out)
        assert out.read_bytes() == b"x1,x2,y\n-1,-1,-1\n-1,1,1\n1,-1,1\n1,1,-1\n"

    def test_two_moons_row_count(self, runner, tmp_path):
        out = tmp_path / "m.csv"
        invoke(runner, "gen", "two-moons", "--n", 1000, "--noise", 0.07,
               "--seed", 7, "--out", out)
        assert len(out.read_text().strip().splitlines()) == 1001

    def test_deterministic_output(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            invoke(runner, "gen", "two-moons", "--n", 64, "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_sinc_writes_three_files(self, runner, tmp_path):
        out = tmp_path / "sinc.csv"
        invoke(runner, "gen", "sinc", "--n-train", 20, "--n-val", 5,
               "--n-test", 5, "--out", out)
        for part, rows in (("train", 20), ("val", 5), ("test", 5)):
            path = tmp_path / f"sinc-{part}.csv"
            assert len(path.read_text().strip().splitlines()) == rows + 1

    def test_unknown_dataset_is_usage_error(self, runner):
        invoke(runner, "gen", "mystery", expect=2)

    @pytest.mark.parametrize("name", ["sinc", "two-moons"])
    def test_negative_seed_is_usage_error(self, runner, tmp_path, name):
        result = invoke(runner, "gen", name, "--seed", -1, "--out", tmp_path / "d.csv",
                        expect=2)
        assert "'--seed'" in result.output


class TestTrainEval:
    def test_gd_gate_run(self, runner, tmp_path):
        data = tmp_path / "and.csv"
        model = tmp_path / "and-model.json"
        invoke(runner, "gen", "and", "--out", data)
        result = invoke(runner, "train", "--data", data, "--method", "gd",
                        "--K", 1, "--lr", 0.3, "--init-scale", 1.0,
                        "--max-epochs", 500, "--target-loss", 5e-3,
                        "--out", model)
        assert "final mse" in result.output
        reported = float(result.output.split("final mse =")[1].split()[0])
        assert reported <= 5e-3
        doc = json.loads(model.read_text())
        assert doc["kind"] == "gd-full"

    def test_lls_prints_the_saved_models_residual_and_training_mse(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model_path = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 80, "--noise", 0.2, "--seed", 3,
               "--out", data)
        result = invoke(runner, "train", "--data", data, "--method", "lls", "--K", 3,
                        "--out", model_path)
        printed = result.output.split("residual (arctanh space) =")[1].split(",")
        residual = float(printed[0])
        mse = float(printed[1].split("training mse =")[1].split()[0])
        model = model_io.load(model_path)
        ds = load_csv(data)
        record = model.normalization
        scaled = min_max_scale(ds.inputs, record.feature_min, record.feature_max)
        angle = hstack_design(scaled, 3) @ model.beta.flat()
        rhs = arctanh_labels(ds.targets, model.config["epsilon"])
        # printed with 6 significant digits
        assert residual == pytest.approx(np.mean((angle - rhs) ** 2), rel=1e-5)
        assert mse == pytest.approx(np.mean((np.tanh(angle) - ds.targets) ** 2), rel=1e-5)

    def test_invalid_k_is_usage_error(self, runner, tmp_path):
        data = tmp_path / "and.csv"
        invoke(runner, "gen", "and", "--out", data)
        invoke(runner, "train", "--data", data, "--K", 0,
               "--out", tmp_path / "m.json", expect=2)

    def test_missing_data_file_is_io_error(self, runner, tmp_path):
        invoke(runner, "train", "--data", tmp_path / "nope.csv",
               "--out", tmp_path / "m.json", expect=3)

    def test_one_column_file_is_io_error(self, runner, tmp_path):
        data = tmp_path / "onecol.csv"
        data.write_text("0.5\n-0.5\n")
        result = invoke(runner, "train", "--data", data, "--method", "lls",
                        "--out", tmp_path / "m.json", expect=3)
        assert "error: " in result.output and "no feature column" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "m.json").exists()

    def test_numeric_header_cell_needs_the_header_flag(self, runner, tmp_path):
        data = tmp_path / "f.csv"
        data.write_text("x,2019,y\n0.1,0.2,0.5\n0.4,0.3,-0.5\n0.9,0.7,0.25\n")
        model = tmp_path / "m.json"
        result = invoke(runner, "train", "--data", data, "--method", "lls",
                        "--out", model, expect=3)
        assert "row 1 mixes numbers and text" in result.output
        assert "--header" in result.output and "has_header" not in result.output
        assert not model.exists()
        invoke(runner, "train", "--data", data, "--method", "lls", "--header",
               "--out", model)
        assert model_io.load(model).p == 2
        invoke(runner, "eval", "--model", model, "--data", data, "--header",
               "--task", "regression")
        invoke(runner, "crossval", "--data", data, "--header", "--k", 2,
               "--task", "regression")

    def test_no_header_reads_the_first_row_as_data(self, runner, tmp_path):
        data = tmp_path / "f.csv"
        data.write_text("0.1,0.2,0.5\n0.4,0.3,-0.5\n0.9,0.7,0.25\n")
        invoke(runner, "train", "--data", data, "--method", "gd-reduced", "--no-header",
               "--max-epochs", 2, "--out", tmp_path / "m.json")
        text = tmp_path / "t.csv"
        text.write_text("x1,x2,y\n0.1,0.2,0.5\n0.4,0.3,-0.5\n")
        result = invoke(runner, "train", "--data", text, "--no-header",
                        "--out", tmp_path / "t.json", expect=3)
        assert "non-numeric cell" in result.output

    @pytest.mark.parametrize("column", ["+-1", "--1", "\u00b2"])
    def test_target_column_that_int_rejects_names_a_column(self, runner, tmp_path, column):
        # an index is one optional sign and decimal digits, which int() reads;
        # "\u00b2" (superscript 2) is a digit to str.isdigit but not to int()
        data = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", data)
        model = tmp_path / "m.json"
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        for args in (["train", "--method", "lls", "--out", tmp_path / "n.json"],
                     ["eval", "--model", model], ["crossval", "--k", 2]):
            result = invoke(runner, *args, "--data", data, "--target-column", column,
                            expect=3)
            assert f"no column named '{column}'" in result.output
            assert "invalid literal" not in result.output
        for index in ("+2", "\u0662", "\uff12"):  # 2 in Arabic-Indic and fullwidth digits
            invoke(runner, "train", "--data", data, "--method", "lls",
                   "--target-column", index, "--out", tmp_path / "p.json")

    def test_perfect_fit_eval(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 200, "--seed", 1,
               "--noise", 0.0, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--K", 4,
               "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", data,
                        "--task", "classification", "--format", "csv")
        assert "accuracy,1.000000" in result.output

    def test_regression_eval_csv_single_line(self, runner, tmp_path):
        data = tmp_path / "sinc.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "sinc", "--n-train", 50, "--n-val", 2,
               "--n-test", 2, "--out", data)
        train_file = tmp_path / "sinc-train.csv"
        invoke(runner, "train", "--data", train_file, "--method", "gd-reduced",
               "--K", 3, "--lr", 0.2, "--max-epochs", 200, "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", train_file,
                        "--task", "regression", "--format", "csv")
        lines = [l for l in result.output.strip().splitlines() if "," in l]
        assert lines[0] == "metric,value"
        assert lines[1].startswith("mse,")
        assert len(lines) == 2

    def test_regression_eval_scores_on_the_training_target_range(self, runner, tmp_path):
        # Targets outside [-1, 1] are rescaled at load time. A test file
        # that covers part of the training range must be scored on the
        # model's target range, not on the file's own min and max.
        x = np.linspace(-1, 1, 41)
        train, test, model = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "m.json"
        for path, xs in ((train, x), (test, x[(x >= 0) & (x <= 0.5)])):
            path.write_text("x,y\n" + "".join(f"{v:.17g},{460 + 40 * v:.17g}\n" for v in xs))
        invoke(runner, "train", "--data", train, "--method", "gd-reduced",
               "--lr", 0.2, "--max-epochs", 500, "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", test,
                        "--task", "regression", "--format", "csv")
        mse = float(result.output.split("mse,")[1])
        fitted = model_io.load(model)
        raw = np.loadtxt(test, delimiter=",", skiprows=1)
        want = np.mean((fitted.predict(raw[:, :1])
                        - fitted.normalization.apply_target(raw[:, 1])) ** 2)
        assert want < 0.01
        assert mse == pytest.approx(want, abs=1e-6)

    def test_dimension_mismatch_names_both_sizes(self, runner, tmp_path):
        moons = tmp_path / "moons.csv"
        gate = tmp_path / "xor.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "sinc", "--n-train", 10, "--n-val", 2, "--n-test", 2,
               "--out", tmp_path / "s.csv")
        invoke(runner, "gen", "two-moons", "--n", 50, "--out", moons)
        invoke(runner, "train", "--data", tmp_path / "s-train.csv",
               "--method", "lls", "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", moons,
                        expect=1)
        assert "p=1" in result.output and "p=2" in result.output

    def test_loss_curve_written(self, runner, tmp_path):
        data = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", data)
        curve = tmp_path / "curve.csv"
        invoke(runner, "train", "--data", data, "--method", "gd", "--lr", 0.3,
               "--init-scale", 1.0, "--max-epochs", 50,
               "--out", tmp_path / "m.json", "--loss-curve", curve)
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) > 2

    def test_gz_named_loss_curve_is_plain_text(self, runner, tmp_path):
        data = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", data)
        curve = tmp_path / "curve.csv.gz"
        invoke(runner, "train", "--data", data, "--method", "gd-reduced", "--max-epochs", 3,
               "--out", tmp_path / "m.json", "--loss-curve", curve)
        assert curve.read_text().splitlines()[0] == "epoch,loss"
        assert [int(line.split(",")[0]) for line in curve.read_text().splitlines()[1:]] \
            == [1, 2, 3]

    def test_boundary_grid(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        grid = tmp_path / "grid.csv"
        invoke(runner, "gen", "two-moons", "--n", 80, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--K", 2,
               "--out", model)
        invoke(runner, "eval", "--model", model, "--data", data,
               "--boundary", grid, "--resolution", 10)
        lines = grid.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,prediction"
        assert len(lines) == 101
        table = np.loadtxt(grid, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 2], model_io.load(model).predict(table[:, :2]))


GD_ONLY_OPTIONS = [("--lr", 0.1, "learning_rate"), ("--max-epochs", 7, "max_epochs"),
                   ("--target-loss", 0.1, "target_loss"), ("--init-scale", 0.5, "init_scale"),
                   ("--loss", "hinge", "loss")]


class TestTrainerOptions:
    """--method picks the config class; an option that class has no field
    for is a usage error, and options left out take the class defaults."""

    @pytest.fixture
    def xor(self, runner, tmp_path):
        data = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", data)
        return data

    @pytest.mark.parametrize("method, option, value, field", [
        *(("lls", *case) for case in GD_ONLY_OPTIONS),
        ("lls", "--seed", 4, "seed"),
        *((method, "--rcond", 0.5, "rcond") for method in ("gd", "gd-full", "gd-reduced")),
    ])
    def test_train_rejects_an_option_the_method_does_not_take(
            self, runner, tmp_path, xor, method, option, value, field):
        model = tmp_path / "m.json"
        result = invoke(runner, "train", "--data", xor, "--method", method, option, value,
                        "--out", model, expect=2)
        assert f"--method {method}: " in result.output
        assert f"setting(s): {field}" in result.output
        assert not model.exists()

    @pytest.mark.parametrize("method, option, field", [
        ("lls", "--rcond", "rcond"), ("gd-reduced", "--lr", "learning_rate"),
        ("gd-full", "--target-loss", "target_loss"), ("gd", "--init-scale", "init_scale")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_rejects_a_non_finite_setting(self, runner, tmp_path, xor, method, option,
                                                field, value):
        model = tmp_path / "m.json"
        result = invoke(runner, "train", "--data", xor, "--method", method, option, value,
                        "--out", model, expect=2)
        assert f"--method {method}: {field} must be" in result.output
        assert not model.exists()

    @pytest.mark.parametrize("option, value, field", GD_ONLY_OPTIONS)
    def test_crossval_rejects_a_gd_option_for_lls(self, runner, xor, option, value, field):
        result = invoke(runner, "crossval", "--data", xor, "--method", "lls", "--k", 2,
                        option, value, expect=2)
        assert f"setting(s): {field}" in result.output

    @pytest.mark.parametrize("command", ["train", "crossval"])
    @pytest.mark.parametrize("method", ["lls", "gd", "gd-full", "gd-reduced"])
    def test_negative_seed_is_usage_error(self, runner, tmp_path, xor, command, method):
        rest = ("--out", tmp_path / "m.json") if command == "train" else ("--k", 2)
        result = invoke(runner, command, "--data", xor, "--method", method,
                        "--seed", -1, *rest, expect=2)
        assert "'--seed'" in result.output

    def test_crossval_seed_seeds_the_folds_of_lls(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        invoke(runner, "gen", "two-moons", "--n", 60, "--seed", 2, "--out", data)
        args = ("crossval", "--data", data, "--method", "lls", "--k", 3, "--format", "csv")
        seeded = invoke(runner, *args, "--seed", 3).output
        assert seeded.startswith("metric,mean,std")
        assert seeded != invoke(runner, *args, "--seed", 4).output

    @pytest.mark.parametrize("method, expected", [
        ("lls", {"trainer": "lls", **asdict(LlsConfig())}),
        ("gd", {"trainer": "gd", "shape": "full", **asdict(GdConfig())}),
        ("gd-full", {"trainer": "gd", "shape": "full", **asdict(GdConfig())}),
        ("gd-reduced", {"trainer": "gd", "shape": "reduced", **asdict(GdConfig())}),
    ])
    def test_no_trainer_options_saves_the_config_defaults(
            self, runner, tmp_path, xor, method, expected):
        model = tmp_path / "m.json"
        invoke(runner, "train", "--data", xor, "--method", method, "--out", model)
        assert json.loads(model.read_text())["config"] == expected

    def test_unknown_method_is_rejected_before_the_data_is_read(self, runner, tmp_path):
        result = invoke(runner, "train", "--data", tmp_path / "nope.csv", "--method", "sgd",
                        "--out", tmp_path / "m.json", expect=2)
        assert "'sgd' is not one of 'lls', 'gd', 'gd-full', 'gd-reduced'" in result.output

    def test_loss_curve_with_lls_is_rejected_before_the_data_is_read(self, runner, tmp_path):
        curve, model = tmp_path / "c.csv", tmp_path / "m.json"
        result = invoke(runner, "train", "--data", tmp_path / "nope.csv", "--method", "lls",
                        "--loss-curve", curve, "--out", model, expect=2)
        assert "--loss-curve" in result.output
        assert not curve.exists() and not model.exists()

    def test_repeated_label_map_name_is_usage_error(self, runner, tmp_path):
        data = tmp_path / "mb.csv"
        data.write_text("x,y\n0.1,M\n0.9,B\n0.4,M\n0.7,B\n")
        result = invoke(runner, "train", "--data", data, "--label-map", "M:1,B:-1, M:-1",
                        "--out", tmp_path / "m.json", expect=2)
        assert "label-map name 'M' is given more than once" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_bad_label_map_entry_is_usage_error(self, runner, tmp_path):
        data = tmp_path / "mb.csv"
        data.write_text("x,y\n0.1,M\n0.9,B\n0.4,M\n")
        for label_map, entry in (("M:one,B:-1", "'M:one'"), ("M1,B:-1", "'M1'")):
            result = invoke(runner, "train", "--data", data, "--label-map", label_map,
                            "--out", tmp_path / "m.json", expect=2)
            assert f"bad label-map entry {entry}" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_boundary_on_a_one_feature_model_prints_no_metrics(self, runner, tmp_path):
        invoke(runner, "gen", "sinc", "--n-train", 20, "--n-val", 2, "--n-test", 2,
               "--out", tmp_path / "s.csv")
        data, model = tmp_path / "s-train.csv", tmp_path / "m.json"
        invoke(runner, "train", "--data", data, "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", data,
                        "--task", "regression", "--boundary", tmp_path / "g.csv", expect=2)
        assert "--boundary requires a 2-feature model" in result.output
        assert "mse" not in result.output
        assert not (tmp_path / "g.csv").exists()


class TestTaskMismatch:
    def test_classification_eval_on_regression_targets_fails_cleanly(
            self, runner, tmp_path):
        invoke(runner, "gen", "sinc", "--n-train", 20, "--n-val", 2,
               "--n-test", 2, "--out", tmp_path / "s.csv")
        data = tmp_path / "s-train.csv"
        model = tmp_path / "m.json"
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", data,
                        "--task", "classification", expect=1)
        assert "-1 or +1" in result.output


class TestCrossvalCommand:
    def test_csv_output_stable(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        invoke(runner, "gen", "two-moons", "--n", 120, "--seed", 2, "--out", data)
        args = ("crossval", "--data", data, "--method", "lls", "--K", 2,
                "--k", 5, "--seed", 3, "--format", "csv")
        first = invoke(runner, *args).output
        second = invoke(runner, *args).output
        assert first == second
        assert first.splitlines()[0] == "metric,mean,std"
        assert any(line.startswith("accuracy,") for line in first.splitlines())

    def test_k_larger_than_n_is_usage_error(self, runner, tmp_path):
        data = tmp_path / "xor.csv"
        invoke(runner, "gen", "xor", "--out", data)
        invoke(runner, "crossval", "--data", data, "--k", 10, expect=2)


class TestReproduce:
    def test_moons_recipe_passes(self, runner):
        result = invoke(runner, "reproduce", "table4-moons")
        assert "[PASS]" in result.output
        assert "all 2 assertion(s) passed" in result.output

    def test_run_that_checked_no_bound_fails(self, runner, tmp_path):
        # --pair keeps only bounds of that pair; the recipe's are named 0v1, not 1v0
        write_synthetic_mnist(tmp_path)
        result = invoke(runner, "reproduce", "table6-mnist", "--pair", 1, 0,
                        "--data-dir", tmp_path, expect=1)
        assert "1v0.accuracy" in result.output
        assert "recipe table6-mnist checked no bound" in result.output

    @pytest.mark.parametrize("recipe, option, key", [
        ("table1", ("--pair", 0, 1), "pairs"), ("table4-moons", ("--dct-keep", 5), "dct_block"),
        ("table5-wbcd", ("--pair", 0, 1, "--dct-keep", 5), "pairs or dct_block")])
    def test_pair_or_dct_keep_on_a_recipe_without_them_is_usage_error(
            self, runner, recipe, option, key):
        result = invoke(runner, "reproduce", recipe, *option, expect=2)
        assert f"recipe {recipe!r} has no {key} to override" in result.output
        assert f"recipe {recipe} (" not in result.output  # nothing ran

    def test_missing_data_exits_3_with_instructions(self, runner, tmp_path):
        result = invoke(runner, "reproduce", "table6-mnist",
                        "--data-dir", tmp_path / "empty", expect=3)
        assert "sqnn fetch mnist" in result.output
        assert "missing data file" in result.output

    def test_unknown_recipe_is_usage_error(self, runner):
        invoke(runner, "reproduce", "table99", expect=2)

    @pytest.mark.parametrize("option", [("--pair", 3, 3), ("--pair", 0, 11),
                                        ("--dct-keep", 29)])
    def test_bad_pair_or_dct_keep_is_usage_error(self, runner, tmp_path, option):
        # rejected before any data is read, like any other bad option
        result = invoke(runner, "reproduce", "table6-mnist", *option,
                        "--data-dir", tmp_path, expect=2)
        assert "missing data" not in result.output

    def test_malformed_data_file_is_io_error(self, runner, tmp_path):
        rows = (Path(__file__).resolve().parent.parent / "data" / "wdbc.data"
                ).read_text().splitlines()[:20]
        rows.insert(3, "842302,M,1.0,2.0")
        (tmp_path / "wdbc.data").write_text("\n".join(rows) + "\n")
        result = invoke(runner, "reproduce", "table5-wbcd", "--data-dir", tmp_path,
                        expect=3)
        assert "error: " in result.output and "ragged row" in result.output
        assert "Usage:" not in result.output

    def test_ragged_row_with_sparse_column_scan_is_io_error(self, runner, tmp_path):
        # table3-crime drops sparse columns, which scans every row's cells
        (tmp_path / "communities.data").write_text(
            "1,2,3,4,5,0.1,0.2,0.5\n1,2,3,4,5,0.1,0.2,0.5,?\n")
        result = invoke(runner, "reproduce", "table3-crime", "--data-dir", tmp_path,
                        expect=3)
        assert "error: " in result.output and "ragged row" in result.output

    def test_recipe_listing(self, runner):
        result = invoke(runner, "recipes")
        names = result.output.split()
        assert "table1" in names and "fig5-sinc" in names


class TestDivergence:
    def test_training_divergence_exits_1(self, runner, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n1e308,0.5\n-1e308,-0.5\n")
        result = invoke(runner, "train", "--data", data, "--method", "gd-reduced",
                        "--K", 2, "--no-normalize", "--out", tmp_path / "m.json",
                        expect=1)
        assert "diverged" in result.output


class TestRejectedValue:
    """A value the library rejects during a command exits 1 with
    'error: ...' and neither a traceback nor a numpy warning."""

    ARGS = ("train", "--method", "lls", "--K", "3", "--no-normalize")

    @pytest.fixture
    def huge(self, tmp_path):
        # x**2 already overflows, so the design holds inf
        data = tmp_path / "huge.csv"
        data.write_text("x,y\n1e200,1\n-1e200,-1\n2e200,1\n-2e200,-1\n")
        return data

    def test_overflowing_lls_fit_exits_1(self, runner, tmp_path, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end the command
            result = invoke(runner, *self.ARGS, "--data", huge,
                            "--out", tmp_path / "m.json", expect=1)
        assert "error: matrix contains non-finite entries" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_lls_fit_through_the_interpreter(self, tmp_path, huge):
        src = str(Path(sqnn.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "sqnn.cli", *self.ARGS, "--data", huge,
                               "--out", tmp_path / "m.json"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "error: matrix contains non-finite entries\n"
        assert "Traceback" not in proc.stdout and "RuntimeWarning" not in proc.stdout

    def test_non_finite_prediction_has_no_class(self, runner, tmp_path, huge):
        # x**2 of 1e200 is inf, and 0 * inf is nan: no class for that row
        model = tmp_path / "zero.json"
        model_io.save(TrainedModel(kind="lls", K=3, p=1,
                                   beta=PolynomialWeightFunction(K=3, p=1)), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, "eval", "--model", model, "--data", huge,
                            "--task", "classification", expect=1)
        assert "error: prediction of row 0 is nan, which has no class" in result.output

    def test_non_finite_prediction_has_no_squared_error(self, runner, tmp_path):
        # a gd-reduced fit at K=3 on small inputs; x**2 of 1e200 is inf
        data, far = tmp_path / "small.csv", tmp_path / "far.csv"
        data.write_text("x,y\n0.1,0.5\n0.2,0.3\n0.3,-0.1\n0.4,-0.4\n0.5,-0.6\n")
        far.write_text("x,y\n1e200,0.5\n")
        invoke(runner, "train", "--data", data, "--method", "gd-reduced", "--K", 3,
               "--no-normalize", "--out", tmp_path / "m.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, "eval", "--model", tmp_path / "m.json", "--data", far,
                            "--task", "regression", expect=1)
        assert result.output == "error: prediction of row 0 is nan, which has no squared error\n"


class TestNumericFailure:
    @pytest.mark.parametrize("args", [
        ("train", "--data", "xor.csv", "--method", "lls", "--out", "m.json"),
        ("crossval", "--data", "xor.csv", "--k", 4), ("reproduce", "table4-moons")])
    def test_svd_that_does_not_converge_exits_1(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        invoke(runner, "gen", "xor", "--out", "xor.csv")
        lib = fake_openblas(gesdd=fake_gesdd(info=1))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        result = invoke(runner, *args, expect=1)
        assert "error: SVD did not converge" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_large_solve_that_does_not_converge_exits_1(self, runner, tmp_path, monkeypatch):
        # 60,000 rows at K = 8 make a 60,000 x 17 design (1.02e6 cells). With
        # the second feature a copy of the first, its R fails the guard of the
        # back-substitution, so the solve hands R to dgelsd
        monkeypatch.chdir(tmp_path)
        invoke(runner, "gen", "two-moons", "--n", 60000, "--out", "moons.csv")
        header, *rows = Path("moons.csv").read_text().splitlines()
        copied = [f"{x1},{x1},{y}" for x1, _, y in (row.split(",") for row in rows)]
        Path("big.csv").write_text("\n".join([header, *copied]) + "\n")
        lib = fake_openblas(gelsd=fake_gelsd(info=1))
        monkeypatch.setattr(linalg, "_openblas", lambda: lib)
        result = invoke(runner, "train", "--data", "big.csv", "--method", "lls", "--K", 8,
                        "--out", "m.json", expect=1)
        assert result.output.splitlines()[-1] == "error: SVD did not converge (dgelsd info 1)"
        assert isinstance(result.exception, SystemExit) and not (tmp_path / "m.json").exists()

    def test_fallback_svd_that_does_not_converge_exits_1(self, runner, tmp_path, monkeypatch):
        # where numpy bundles no OpenBLAS, svd calls np.linalg.svd
        monkeypatch.chdir(tmp_path)
        invoke(runner, "gen", "xor", "--out", "xor.csv")

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        monkeypatch.setattr(np.linalg, "svd", fail)
        result = invoke(runner, "train", "--data", "xor.csv", "--method", "lls",
                        "--out", "m.json", expect=1)
        assert "error: SVD did not converge" in result.output
        assert isinstance(result.exception, SystemExit)


class TestFetch:
    """Fetch failures exit 3 with `error: cannot ...` and no traceback;
    downloads are patched, so no test touches the network."""

    @pytest.fixture
    def downloads(self, monkeypatch):
        """URLs requested; each download writes a truncated zip archive."""
        import io
        import urllib.request
        import zipfile

        archive = io.BytesIO()
        with zipfile.ZipFile(archive, "w") as zf:
            zf.writestr("communities.data", "1,2,3\n" * 100)
        urls = []

        def retrieve(url, dest):
            urls.append(url)
            Path(dest).write_bytes(archive.getvalue()[:40])

        monkeypatch.setattr(urllib.request, "urlretrieve", retrieve)
        return urls

    @staticmethod
    def check(result):
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_data_dir_below_a_regular_file(self, runner, tmp_path, downloads):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        result = invoke(runner, "fetch", "wdbc", "--data-dir", blocker / "data", expect=3)
        self.check(result)
        assert f"error: cannot create {blocker / 'data'}" in result.output
        assert downloads == []

    def test_truncated_zip(self, runner, tmp_path, downloads):
        result = invoke(runner, "fetch", "communities", "--data-dir", tmp_path, expect=3)
        self.check(result)
        assert len(downloads) == 1
        assert "error: cannot extract" in result.output
        assert "1 dataset(s) could not be fetched" in result.output


class TestModelFileErrors:
    def test_unsupported_version_is_io_error(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 40, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        doc = json.loads(model.read_text())
        doc["format_version"] = 999
        model.write_text(json.dumps(doc))
        result = invoke(runner, "eval", "--model", model, "--data", data, expect=3)
        assert "999" in result.output

    def test_non_finite_coefficient_is_io_error(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 40, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        doc = json.loads(model.read_text())
        doc["coefficients"][0] = "nan"
        model.write_text(json.dumps(doc))
        result = invoke(runner, "eval", "--model", model, "--data", data, expect=3)
        assert "bad model file" in result.output and "coefficients" in result.output

    def test_feature_max_below_min_is_io_error(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 40, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        doc = json.loads(model.read_text())
        norm = doc["normalization"]
        norm["feature_min"], norm["feature_max"] = norm["feature_max"], norm["feature_min"]
        model.write_text(json.dumps(doc))
        result = invoke(runner, "eval", "--model", model, "--data", data, expect=3)
        assert "bad model file" in result.output and "feature_max" in result.output

    # (what, edit of the saved lls file's JSON, field the message names);
    # the model types hold each rule, and load passes it on as exit 3
    EDITS = [
        ("kind", lambda doc: doc.update(kind="mystery"), "kind"),
        ("coefficient-count", lambda doc: doc["coefficients"].pop(), "coefficients"),
        ("alpha-on-lls", lambda doc: doc.update(alpha=doc["coefficients"]), "alpha"),
        ("theta", lambda doc: doc.update(theta="nan"), "theta"),
        ("max-below-min", lambda doc: doc["normalization"].update(
            target_min="0x1.0p+1", target_max="0x1.0p+0"), "target_max' lies below"),
        ("half-feature-range", lambda doc: doc["normalization"].update(feature_max=None),
         "feature_max"),
        ("half-target-range", lambda doc: doc["normalization"].update(target_min="0x1.0p+0"),
         "target_max"),
        ("feature-bounds-size", lambda doc: [doc["normalization"][name].append("0x1.0p+0")
                                             for name in ("feature_min", "feature_max")],
         "feature_min"),
    ]

    @pytest.mark.parametrize("edit, field", [e[1:] for e in EDITS], ids=[e[0] for e in EDITS])
    def test_bad_model_file_names_the_field(self, runner, tmp_path, edit, field):
        data = tmp_path / "moons.csv"
        model = tmp_path / "m.json"
        invoke(runner, "gen", "two-moons", "--n", 40, "--out", data)
        invoke(runner, "train", "--data", data, "--method", "lls", "--out", model)
        doc = json.loads(model.read_text())
        edit(doc)
        model.write_text(json.dumps(doc))
        result = invoke(runner, "eval", "--model", model, "--data", data,
                        "--task", "regression", expect=3)
        assert "error: bad model file: " in result.output and field in result.output


class TestUnwritableOutput:
    """An output path that cannot be written exits 3 with `cannot write`
    and no traceback."""

    @pytest.fixture
    def moons(self, runner, tmp_path):
        data = tmp_path / "moons.csv"
        invoke(runner, "gen", "two-moons", "--n", 40, "--out", data)
        return data

    @staticmethod
    def check(result):
        assert "error: cannot write" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("name", ["xor", "two-moons", "sinc"])
    def test_gen_out(self, runner, tmp_path, name):
        out = tmp_path / "missing" / "d.csv"
        result = invoke(runner, "gen", name, "--out", out, expect=3)
        self.check(result)
        assert f"cannot write {out.parent / 'd'}" in result.output  # d.csv or d-train.csv

    def test_train_out(self, runner, tmp_path, moons):
        self.check(invoke(runner, "train", "--data", moons,
                          "--out", tmp_path / "missing" / "m.json", expect=3))

    def test_train_loss_curve_keeps_the_saved_model(self, runner, tmp_path, moons):
        model, curve = tmp_path / "m.json", tmp_path / "missing" / "c.csv"
        result = invoke(runner, "train", "--data", moons, "--method", "gd-reduced",
                        "--max-epochs", 3, "--out", model, "--loss-curve", curve, expect=3)
        self.check(result)
        assert f"cannot write {curve}" in result.output
        assert model_io.load(model).kind == "gd-reduced"

    def test_eval_boundary(self, runner, tmp_path, moons):
        model, grid = tmp_path / "m.json", tmp_path / "missing" / "g.csv"
        invoke(runner, "train", "--data", moons, "--out", model)
        result = invoke(runner, "eval", "--model", model, "--data", moons,
                        "--boundary", grid, expect=3)
        self.check(result)
        assert f"cannot write {grid}" in result.output
        assert "accuracy" in result.output
