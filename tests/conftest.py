import gzip
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from sqnn import experiments

_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    """Track one status line per acceptance test for the final summary."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "setup" and report.skipped:
        _acceptance[name] = "SKIP"
    elif report.when == "call":
        if hasattr(report, "wasxfail"):
            _acceptance[name] = "XFAIL" if report.skipped else "XPASS"
        elif report.passed:
            _acceptance[name] = "PASS"
        elif report.skipped:
            _acceptance[name] = "SKIP"
        else:
            _acceptance[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        terminalreporter.write_line(f"{_acceptance[name]:<6} {name}")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    """Directory holding the real datasets.

    Honors SQNN_DATA_DIR, defaulting to <repo>/data, where the
    breast-cancer table is committed; the other datasets must have been
    fetched beforehand and tests requiring them skip otherwise.
    """
    return Path(os.environ.get(experiments.DATA_DIR_ENV,
                               Path(__file__).resolve().parent.parent / "data"))


@pytest.fixture(scope="session")
def recipe_run(data_dir):
    """run(name) -> the RecipeResult of recipe `name`, run once per
    session: the acceptance tests and the golden-value test share it. A
    recipe whose data files are missing skips the calling test."""
    runs = {}

    def run(name: str):
        if name not in runs:
            try:
                runs[name] = experiments.run_recipe(name, data_dir=data_dir)
            except experiments.MissingData as exc:  # pragma: no cover - data-dependent
                pytest.skip(str(exc))
        return runs[name]

    return run


def require_dataset(name: str, directory: Path):
    """Skip the calling test when the dataset's files are missing."""
    try:
        experiments.require_files(name, directory)
    except experiments.MissingData as exc:
        pytest.skip(f"dataset {name!r} not available: fetch it with "
                    f"'sqnn fetch {name}' (network required). {exc}")


def write_idx_pair(directory: Path, images, labels, *, prefix="", compress=False,
                   image_magic=0x803, label_magic=0x801, label_count=None):
    """(image path, label path) of an IDX pair written to `directory`;
    the magic numbers and the label count can be set to malform it."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", label_magic,
                            n if label_count is None else label_count) + labels.tobytes()
    suffix = ".gz" if compress else ""
    img_path = directory / f"{prefix}images-idx3-ubyte{suffix}"
    lab_path = directory / f"{prefix}labels-idx1-ubyte{suffix}"
    opener = gzip.open if compress else open
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lab_path, "wb") as fh:
        fh.write(lab_bytes)
    return img_path, lab_path
