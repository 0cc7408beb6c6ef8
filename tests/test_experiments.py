"""Recipe loading, execution machinery, and assertion evaluation.

The real-data recipes are exercised here on synthetic stand-ins placed
in a temporary data directory: the published bounds obviously do not
apply to fabricated data, so these tests check the mechanics (loading,
cross-validation loop, value naming, assertion evaluation) rather than
the numbers. The numbers are checked in test_acceptance.py when the
real files are present.
"""

import json

import pytest

from sqnn import experiments
from sqnn.experiments import (MissingData, RecipeResult, available_recipes,
                              load_recipe, resolve_data_dir, run_recipe)

from conftest import write_synthetic_ccpp, write_synthetic_mnist


def test_all_recipes_listed_and_versioned():
    names = available_recipes()
    assert {"table1", "fig5-sinc", "table2-ccpp", "table3-crime",
            "table4-moons", "table5-wbcd", "table6-mnist"} <= set(names)
    for name in names:
        recipe = load_recipe(name)
        assert recipe["format_version"] == 1
        assert recipe["name"] == name
        assert recipe["assertions"], f"recipe {name} asserts nothing"


def test_unknown_recipe_rejected():
    with pytest.raises(ValueError, match="unknown recipe"):
        load_recipe("table99")


def test_resolve_data_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv(experiments.DATA_DIR_ENV, str(tmp_path / "elsewhere"))
    assert resolve_data_dir(None) == tmp_path / "elsewhere"
    assert resolve_data_dir(tmp_path) == tmp_path
    monkeypatch.delenv(experiments.DATA_DIR_ENV)
    assert str(resolve_data_dir(None)) == "data"


def test_missing_data_message_has_instructions(tmp_path):
    with pytest.raises(MissingData) as err:
        run_recipe("table6-mnist", data_dir=tmp_path)
    message = str(err.value)
    assert "sqnn fetch mnist" in message
    assert "https://" in message


def test_assertion_bounds_and_ordering():
    result = RecipeResult(name="demo", values={"a": 0.5, "b": 0.7})
    checks = [
        {"value": "a", "min": 0.4, "max": 0.6},
        {"value": "b", "exceeds": "a"},
        {"value": "a", "min": 0.9, "label": "too strict"},
    ]
    outcomes = [experiments._check(result.values, spec) for spec in checks]
    assert [o.passed for o in outcomes] == [True, True, False]
    assert "too strict" in outcomes[2].label
    assert "0.5" in outcomes[2].detail


def test_unproduced_value_fails_assertion(monkeypatch, tmp_path):
    # a recipe asserting a value the run never computed must fail loudly
    recipe = load_recipe("table4-moons")
    recipe = json.loads(json.dumps(recipe))
    recipe["assertions"].append({"value": "K9.accuracy", "min": 0.5})
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    result = run_recipe("table4-moons")
    assert not result.passed
    missing = [a for a in result.assertions if "not produced" in a.detail]
    assert len(missing) == 1


def test_unknown_trainer_setting_rejected(monkeypatch):
    recipe = json.loads(json.dumps(load_recipe("table4-moons")))
    recipe["trainer"]["learning_rte"] = 0.1
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    with pytest.raises(ValueError, match="learning_rte"):
        run_recipe("table4-moons")


def test_unknown_experiment_rejected(monkeypatch):
    recipe = json.loads(json.dumps(load_recipe("table4-moons")))
    recipe["experiment"] = "parabola"
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    with pytest.raises(ValueError, match="parabola"):
        run_recipe("table4-moons")


def test_unknown_loader_key_rejected(monkeypatch, tmp_path):
    write_synthetic_ccpp(tmp_path / "ccpp.csv", n=40)
    recipe = json.loads(json.dumps(load_recipe("table2-ccpp")))
    recipe["loader"]["delimter"] = ";"
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    with pytest.raises(TypeError, match="delimter"):
        run_recipe("table2-ccpp", data_dir=tmp_path)


def test_regression_crossval_recipe_machinery(ccpp_standin_run):
    result, _ = ccpp_standin_run
    assert "K1.test_mse.mean" in result.values
    assert "K1.train_mse.std" in result.values
    assert result.passed  # near-linear synthetic data is easy at K=1


def test_communities_crossval_recipe_machinery(crime_standin_run):
    result, lines = crime_standin_run
    # ids and the sparse column go, "?" ids keep their row, "?" features drop it
    assert "n=197 p=6 (dropped 3 rows)" in lines[0]
    assert {"K1.train_mse.mean", "K2.test_mse.std"} <= set(result.values)
    assert result.passed, result.report_lines()


def test_mnist_recipe_machinery(monkeypatch, tmp_path):
    write_synthetic_mnist(tmp_path)
    recipe = json.loads(json.dumps(load_recipe("table6-mnist")))
    recipe["pairs"] = [[0, 1]]
    recipe["assertions"] = [{"value": "0v1.accuracy", "min": 0.9},
                            {"value": "0v1.seconds", "max": 60}]
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    result = run_recipe("table6-mnist", data_dir=tmp_path)
    assert result.passed, result.report_lines()
    assert result.values["0v1.accuracy"] >= 0.9


def test_mnist_pair_filter_and_dct_keep(monkeypatch, tmp_path):
    write_synthetic_mnist(tmp_path)
    recipe = json.loads(json.dumps(load_recipe("table6-mnist")))
    recipe["assertions"] = [
        {"value": "0v1.accuracy", "min": 0.8, "label": "pair bound"},
        {"value": "5v7.accuracy", "min": 0.99, "label": "other pair"},
    ]
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    result = run_recipe("table6-mnist", data_dir=tmp_path, pair=(0, 1),
                        dct_keep=8)
    # the --pair restriction drops assertions for unrun pairs
    assert [a.label for a in result.assertions] == ["pair bound"]
    assert result.passed


def test_pair_and_dct_keep_leave_the_loaded_recipe_unchanged(monkeypatch, tmp_path):
    write_synthetic_mnist(tmp_path)
    recipe = json.loads(json.dumps(load_recipe("table6-mnist")))
    recipe["assertions"] = [{"value": "0v1.accuracy", "min": 0.8}]
    before = json.loads(json.dumps(recipe))
    monkeypatch.setattr(experiments, "load_recipe", lambda name: recipe)
    result = run_recipe("table6-mnist", data_dir=tmp_path, pair=(0, 1), dct_keep=8)
    assert result.passed
    assert recipe == before


@pytest.mark.parametrize("name, overrides, key", [
    ("table1", {"pair": (0, 1)}, "pairs"),
    ("table4-moons", {"dct_keep": 5}, "dct_block"),
    ("table4-moons", {"pair": (1, 2), "dct_keep": 5}, "pairs or dct_block"),
])
def test_check_overrides_names_the_missing_recipe_field(name, overrides, key):
    with pytest.raises(ValueError, match=f"recipe {name!r} has no {key} to override"):
        experiments.check_overrides(load_recipe(name), **overrides)


def test_dct_keep_without_a_dct_block_is_rejected_before_the_run():
    lines = []
    with pytest.raises(ValueError, match="recipe 'table4-moons' has no dct_block to override"):
        run_recipe("table4-moons", log=lines.append, dct_keep=5)
    assert lines == []


def test_report_lines_shape():
    result = run_recipe("table4-moons")
    lines = result.report_lines()
    assert lines[0].startswith("recipe table4-moons")
    assert any("[PASS]" in line for line in lines)
