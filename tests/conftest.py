import os

import pytest
from hypothesis import settings

# Shared CI runners are slow and noisy: no per-example deadline, and a
# fixed example sequence so a failure reproduces.  HYPOTHESIS_PROFILE=ci
# selects it.
settings.register_profile("ci", deadline=None, derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(HERE)
DATA = os.path.join(REPO, "data")
TEST_DATA = os.path.join(HERE, "data")


@pytest.fixture(scope="session")
def data_dir() -> str:
    return DATA


@pytest.fixture(scope="session")
def test_data_dir() -> str:
    return TEST_DATA


@pytest.fixture(scope="session")
def worked_hierarchy_text() -> str:
    with open(os.path.join(DATA, "fixtures", "worked_hierarchy.txt"), encoding="utf-8") as fh:
        return fh.read()


def pytest_runtest_logreport(report):
    # One status line per acceptance criterion, outside pytest's capture.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL" if report.failed else "SKIP"
        print(f"\n[acceptance] {status} {name}")
