"""Golden recipe values: every value of the recipes tier-1 runs, against
tests/golden/recipes.json, and of the synthetic stand-ins of table6-mnist
(without its wall time), table2-ccpp and table3-crime (conftest's
run_*_standin), against tests/golden/standins.json.

The file holds each value as a hex float (float.hex). A key with a
dot-separated part listed under "continuous" must agree within the
file's relative tolerance "rtol"; every other value (epoch counts and
classification metrics, which are ratios of counts) must match exactly.
The file also records the numpy and the BLAS that wrote it ("platform").
Where the running ones are the same, continuous values must match bit
for bit too, so a change that moves one within rtol still shows. A
change that moves a value rewrites the file, so the diff shows what
moved:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import ctypes
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sqnn import experiments, linalg

GOLDEN = Path(__file__).resolve().parent / "golden" / "recipes.json"
STANDINS = GOLDEN.with_name("standins.json")
RECIPES = ("table1", "fig5-sinc", "table4-moons", "table5-wbcd")
HEADER = {
    "about": "Recipe values as hex floats. Keys with a part in 'continuous' agree "
             "within 'rtol' relative, or exactly under the numpy and BLAS in "
             "'platform'; every other value matches exactly. Rewrite "
             "with: PYTHONPATH=src python tests/test_golden.py --update",
    "rtol": 1e-9,
    "continuous": ["mse", "test_mse", "train_mse"],
}


def platform() -> dict:
    """The running numpy's version and its BLAS: OpenBLAS's own run-time
    description (its version and the CPU kernels it picked) where numpy
    bundles OpenBLAS, else the name and version numpy was built against."""
    describe = getattr(linalg._openblas(), "scipy_openblas_get_config64_", None)
    if describe is not None:
        describe.restype = ctypes.c_char_p
        blas = " ".join(describe().decode().split())
    else:
        try:
            built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{built['name']} {built['version']}"
        except (TypeError, KeyError):
            blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def changes(golden: dict, name: str, values: dict) -> list[str]:
    """One line per key of recipe `name` that is missing, new, or moved
    past the file's rule, with the old and the new value. Continuous
    values may move within rtol only where the running numpy and BLAS
    differ from the ones the file records."""
    rtol = 0.0 if golden.get("platform") == platform() else golden["rtol"]
    old = {key: float.fromhex(text) for key, text in golden["recipes"][name].items()}
    lines = [f"{name}: {key} missing, was {old[key]!r}" for key in sorted(old.keys() - values)]
    lines += [f"{name}: {key} is new: {values[key]!r}" for key in sorted(values.keys() - old)]
    for key in sorted(old.keys() & values.keys()):
        was, now = old[key], values[key]
        continuous = any(part in golden["continuous"] for part in key.split("."))
        if now != was and not (continuous and abs(now - was) <= rtol * abs(was)):
            rel = abs(now - was) / abs(was) if was else float("inf")
            lines.append(f"{name}: {key} {was!r} -> {now!r} (relative {rel:.3g})")
    return lines


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_values_match_the_golden_file(recipe_run, name):
    golden = json.loads(GOLDEN.read_text())
    moved = changes(golden, name, recipe_run(name).values)
    assert not moved, "recipe values moved (rewrite with --update if intended):\n" + \
        "\n".join(moved)


@pytest.mark.parametrize("name", ["table4-moons", "table5-wbcd"])
def test_recipes_without_openblas_pass_and_match_the_golden_file(data_dir, name):
    # where numpy bundles no OpenBLAS, svd calls np.linalg.svd and no
    # thread guard runs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_openblas", lambda: None)
        try:
            result = experiments.run_recipe(name, data_dir=data_dir)
        except experiments.MissingData as exc:  # pragma: no cover - data-dependent
            pytest.skip(str(exc))
    assert result.passed, "\n".join(result.report_lines())
    moved = changes(json.loads(GOLDEN.read_text()), name, result.values)
    assert not moved, "recipe values moved without OpenBLAS:\n" + "\n".join(moved)


def standin_values(result) -> dict:
    """The stand-in run's values, less its wall time."""
    return {key: value for key, value in result.values.items()
            if not key.endswith(".seconds")}


def test_standin_values_match_the_golden_file(mnist_standin_run):
    golden = json.loads(STANDINS.read_text())
    moved = changes(golden, "table6-mnist", standin_values(mnist_standin_run))
    assert not moved, "stand-in values moved (rewrite with --update if intended):\n" + \
        "\n".join(moved)


@pytest.mark.parametrize("name, fixture", [("table2-ccpp", "ccpp_standin_run"),
                                           ("table3-crime", "crime_standin_run")])
def test_crossval_standin_values_match_the_golden_file(request, name, fixture):
    golden = json.loads(STANDINS.read_text())
    result, _ = request.getfixturevalue(fixture)
    moved = changes(golden, name, standin_values(result))
    assert not moved, "stand-in values moved (rewrite with --update if intended):\n" + \
        "\n".join(moved)


def test_changes_name_every_moved_key():
    golden = {**HEADER, "recipes": {"r": {
        "A.mse": (1.0).hex(), "A.epochs": (5.0).hex(), "B.mse": (2.0).hex(),
        "gone": (3.0).hex()}}}
    moved = changes(golden, "r", {"A.mse": 1.0 + 5e-10, "A.epochs": 6.0,
                                  "B.mse": 2.0 + 1e-8, "extra": 0.0})
    assert moved == ["r: gone missing, was 3.0", "r: extra is new: 0.0",
                     "r: A.epochs 5.0 -> 6.0 (relative 0.2)",
                     "r: B.mse 2.0 -> 2.00000001 (relative 5e-09)"]


def test_changes_are_exact_under_the_recorded_platform():
    golden = {**HEADER, "platform": platform(), "recipes": {"r": {"A.mse": (1.0).hex()}}}
    nudged = {"A.mse": 1.0 + 2.0 ** -52}
    assert changes(golden, "r", {"A.mse": 1.0}) == []
    assert changes(golden, "r", nudged) == [
        "r: A.mse 1.0 -> 1.0000000000000002 (relative 2.22e-16)"]
    elsewhere = {**golden, "platform": {**golden["platform"], "numpy": "0.0"}}
    assert changes(elsewhere, "r", nudged) == []


def write(path: Path, results: dict) -> None:
    recipes = {name: {key: value.hex() for key, value in sorted(values.items())}
               for name, values in results.items()}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**HEADER, "platform": platform(), "recipes": recipes},
                               indent=1) + "\n")
    print(f"wrote {sum(map(len, recipes.values()))} values to {path}")


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    from conftest import run_ccpp_standin, run_crime_standin, run_mnist_standin

    data_dir = os.environ.get(experiments.DATA_DIR_ENV, GOLDEN.parents[2] / "data")
    write(GOLDEN, {name: experiments.run_recipe(name, data_dir=data_dir).values
                   for name in RECIPES})
    runs = {"table6-mnist": run_mnist_standin, "table2-ccpp": run_ccpp_standin,
            "table3-crime": run_crime_standin}
    with tempfile.TemporaryDirectory() as directory:
        results = {}
        for name, run in runs.items():
            (Path(directory) / name).mkdir()
            results[name] = standin_values(run(Path(directory) / name))
        write(STANDINS, results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
