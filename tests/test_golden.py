"""Golden recipe values: every value of the recipes tier-1 runs, against
tests/golden/recipes.json, and of the synthetic table6-mnist stand-in
(conftest.run_mnist_standin, without its wall time), against
tests/golden/standins.json.

The file holds each value as a hex float (float.hex). A key with a
dot-separated part listed under "continuous" must agree within the
file's relative tolerance "rtol"; every other value (epoch counts and
classification metrics, which are ratios of counts) must match exactly.
A change that moves a value rewrites the file, so the diff shows what
moved:

    PYTHONPATH=src python tests/test_golden.py --update
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from sqnn import experiments

GOLDEN = Path(__file__).resolve().parent / "golden" / "recipes.json"
STANDINS = GOLDEN.with_name("standins.json")
RECIPES = ("table1", "fig5-sinc", "table4-moons", "table5-wbcd")
HEADER = {
    "about": "Recipe values as hex floats. Keys with a part in 'continuous' agree "
             "within 'rtol' relative; every other value matches exactly. Rewrite "
             "with: PYTHONPATH=src python tests/test_golden.py --update",
    "rtol": 1e-9,
    "continuous": ["mse", "test_mse", "train_mse"],
}


def changes(golden: dict, name: str, values: dict) -> list[str]:
    """One line per key of recipe `name` that is missing, new, or moved
    past the file's rule, with the old and the new value."""
    old = {key: float.fromhex(text) for key, text in golden["recipes"][name].items()}
    lines = [f"{name}: {key} missing, was {old[key]!r}" for key in sorted(old.keys() - values)]
    lines += [f"{name}: {key} is new: {values[key]!r}" for key in sorted(values.keys() - old)]
    for key in sorted(old.keys() & values.keys()):
        was, now = old[key], values[key]
        continuous = any(part in golden["continuous"] for part in key.split("."))
        if now != was and not (continuous and abs(now - was) <= golden["rtol"] * abs(was)):
            rel = abs(now - was) / abs(was) if was else float("inf")
            lines.append(f"{name}: {key} {was!r} -> {now!r} (relative {rel:.3g})")
    return lines


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_values_match_the_golden_file(recipe_run, name):
    golden = json.loads(GOLDEN.read_text())
    moved = changes(golden, name, recipe_run(name).values)
    assert not moved, "recipe values moved (rewrite with --update if intended):\n" + \
        "\n".join(moved)


def standin_values(result) -> dict:
    """The stand-in run's values, less its wall time."""
    return {key: value for key, value in result.values.items()
            if not key.endswith(".seconds")}


def test_standin_values_match_the_golden_file(mnist_standin_run):
    golden = json.loads(STANDINS.read_text())
    moved = changes(golden, "table6-mnist", standin_values(mnist_standin_run))
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


def write(path: Path, results: dict) -> None:
    recipes = {name: {key: value.hex() for key, value in sorted(values.items())}
               for name, values in results.items()}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**HEADER, "recipes": recipes}, indent=1) + "\n")
    print(f"wrote {sum(map(len, recipes.values()))} values to {path}")


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    from conftest import run_mnist_standin

    data_dir = os.environ.get(experiments.DATA_DIR_ENV, GOLDEN.parents[2] / "data")
    write(GOLDEN, {name: experiments.run_recipe(name, data_dir=data_dir).values
                   for name in RECIPES})
    with tempfile.TemporaryDirectory() as directory:
        write(STANDINS, {"table6-mnist": standin_values(run_mnist_standin(Path(directory)))})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
