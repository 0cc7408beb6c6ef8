import gzip
import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sqnn import experiments, linalg

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


def write_synthetic_mnist(tmp_path, n_train=120, n_test=40, seed=0, contrast=150):
    """Two square 'digit' classes: a bright top half vs a bright left
    half, plus noise. At the default contrast they are distinguishable,
    so the pipeline should learn."""
    rng = np.random.default_rng(seed)

    def make(n, prefix):
        labels = rng.integers(0, 2, n).astype(np.uint8)
        images = rng.integers(0, 60, (n, 28, 28)).astype(np.uint8)
        for i, lab in enumerate(labels):
            if lab == 0:
                images[i, :14, :] = np.minimum(255, images[i, :14, :] + contrast)
            else:
                images[i, :, :14] = np.minimum(255, images[i, :, :14] + contrast)
        write_idx_pair(tmp_path, images, labels, prefix=prefix, compress=True)

    make(n_train, "train-")
    make(n_test, "t10k-")


def run_mnist_standin(directory: Path):
    """table6-mnist's 0 vs 1 pair on a stand-in written to `directory`:
    120 training images, fewer than the 785 design columns, so the solve
    factorizes a wide matrix, and 400 test images at a contrast low
    enough that some are misclassified, so a changed fit moves a value."""
    write_synthetic_mnist(directory, n_test=400, contrast=5)
    return experiments.run_recipe("table6-mnist", data_dir=directory, pair=(0, 1))


@pytest.fixture(scope="session")
def mnist_standin_run(tmp_path_factory):
    """The RecipeResult of run_mnist_standin, run once per session."""
    return run_mnist_standin(tmp_path_factory.mktemp("mnist-standin"))


def write_synthetic_ccpp(path, n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 4))
    y = 420 + 60 * (X @ np.array([0.5, -0.3, 0.2, 0.1])) + rng.normal(0, 1, n)
    rows = ["AT,V,AP,RH,PE"]
    rows += [",".join(f"{v:.6f}" for v in row) + f",{t:.4f}"
             for row, t in zip(X, y)]
    path.write_text("\n".join(rows) + "\n")


def write_synthetic_communities(path, n=200, seed=0):
    """Communities-and-crime layout: no header; five id columns (state,
    county and community codes that are mostly "?", a town name, a fold
    number); six features in [0, 1], one mostly-"?" feature column, three
    "?" cells in an ordinary feature column; the target last, in [0, 1]."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 6))
    y = np.clip(0.2 + 0.4 * X[:, 0] - 0.3 * X[:, 1] + rng.normal(0, 0.03, n), 0, 1)
    rows = []
    for i in range(n):
        ids = [str(rng.integers(1, 57)),
               "?" if rng.uniform() < 0.6 else str(rng.integers(1, 800)),
               "?" if rng.uniform() < 0.6 else str(rng.integers(1, 90000)),
               f"Town{i}city", str(i % 10 + 1)]
        features = [f"{v:.2f}" for v in X[i]]
        if i in (3, 50, 120):
            features[2] = "?"
        sparse = f"{rng.uniform():.2f}" if i % 5 == 0 else "?"
        rows.append(",".join(ids + features[:4] + [sparse] + features[4:] + [f"{y[i]:.2f}"]))
    path.write_text("\n".join(rows) + "\n")


def _run_changed(name: str, directory: Path, log, *, trainer=None, **fields):
    """run_recipe(name) on `directory` with some of the recipe's fields
    and trainer settings replaced."""
    recipe = experiments.load_recipe(name)
    recipe = {**recipe, **fields, "trainer": {**recipe["trainer"], **(trainer or {})}}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "load_recipe", lambda _: recipe)
        return experiments.run_recipe(name, data_dir=directory, log=log)


def run_ccpp_standin(directory: Path, log=None):
    """table2-ccpp at K = 1 and 300 epochs on a near-linear 400-row
    stand-in written to `directory`."""
    write_synthetic_ccpp(directory / "ccpp.csv")
    return _run_changed("table2-ccpp", directory, log, K_values=[1],
                        trainer={"max_epochs": 300},
                        assertions=[{"value": "K1.test_mse.mean", "max": 0.2}])


def run_crime_standin(directory: Path, log=None):
    """table3-crime at K = 1, 2 and 200 epochs on a 200-row stand-in in the
    communities layout written to `directory`. The best constant
    prediction scores about 0.26 on the rescaled target."""
    write_synthetic_communities(directory / "communities.data")
    return _run_changed("table3-crime", directory, log, K_values=[1, 2],
                        trainer={"max_epochs": 200},
                        assertions=[{"value": "K1.test_mse.mean", "max": 0.05},
                                    {"value": "K2.test_mse.mean", "max": 0.05}])


@pytest.fixture(scope="session")
def ccpp_standin_run(tmp_path_factory):
    """(RecipeResult, log lines) of run_ccpp_standin, run once per session."""
    lines = []
    return run_ccpp_standin(tmp_path_factory.mktemp("ccpp-standin"), lines.append), lines


@pytest.fixture(scope="session")
def crime_standin_run(tmp_path_factory):
    """(RecipeResult, log lines) of run_crime_standin, run once per session."""
    lines = []
    return run_crime_standin(tmp_path_factory.mktemp("crime-standin"), lines.append), lines


def fake_gesdd(info=0, during=lambda: None):
    """A stand-in for the LAPACKE_dgesdd_work routine of linalg that computes
    nothing and starts no thread: it calls `during`, answers the workspace
    query with a one-double workspace and returns `info` from the
    factorization."""
    def gesdd(layout, jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork):
        during()
        if lwork == -1:
            work[0] = 1.0
            return 0
        return info
    return gesdd


def fake_gelsd(info):
    """A stand-in for the LAPACKE_dgelsd_work routine of linalg that computes
    nothing: it answers the workspace query with a one-double workspace
    and returns `info` from the solve."""
    def gelsd(layout, m, n, nrhs, a, lda, b, ldb, s, rcond, rank, work, lwork, iwork):
        if lwork == -1:
            work[0] = 1.0
            return 0
        return info
    return gelsd


class FakeThreads:
    """Stands in for OpenBLAS's thread-count getter and setter; records
    every count set and starts no thread."""

    def __init__(self, count=4):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


def fake_openblas(threads=None, **lapack):
    """A stand-in for linalg._openblas(): the real library's routines of
    linalg._ROUTINES, with the LAPACK ones given by short name (gesdd=,
    gelsd=, geqrt=, gemqrt=, trtrs=) swapped in and the thread count held by
    `threads`, a new FakeThreads by default, so no test changes the
    process's count. Where
    numpy bundles no OpenBLAS, a LAPACK routine not given is None."""
    real, threads = linalg._openblas(), threads or FakeThreads()
    routines = {name: getattr(real, name, None) for name in linalg._ROUTINES}
    routines.update(scipy_openblas_get_num_threads64_=threads.get,
                    scipy_openblas_set_num_threads64_=threads.set)
    for short, routine in lapack.items():
        name = f"scipy_LAPACKE_d{short}_work64_"
        assert name in routines, short
        routines[name] = routine
    return SimpleNamespace(**routines)
