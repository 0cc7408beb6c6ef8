import os
from pathlib import Path

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


def require_dataset(name: str, directory: Path):
    """Skip the calling test when the dataset's files are missing."""
    try:
        experiments.require_files(name, directory)
    except experiments.MissingData as exc:
        pytest.skip(f"dataset {name!r} not available: fetch it with "
                    f"'sqnn fetch {name}' (network required). {exc}")
