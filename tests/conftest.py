"""Shared fixtures and the acceptance summary hook.

The heavyweight gallery estimates are computed once per session and shared
between the acceptance criteria that consume them.
"""

import math

import numpy as np
import pytest

from entro.gallery import default_suite, run_bundle

ACCEPTANCE_LINES: list[str] = []


def record_criterion(tag: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[acceptance] {tag}: {status}  {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def suite_results():
    """Three-estimator results for every gallery bundle, computed once."""
    return {b.name: run_bundle(b) for b in default_suite()}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def log2():
    return math.log(2.0)
