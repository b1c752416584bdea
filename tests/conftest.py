"""Shared fixtures and the acceptance summary hook.

The heavyweight gallery estimates are computed once per session and shared
between the acceptance criteria that consume them.
"""

import math

import numpy as np
import pytest

from entro import dynamics, orbit_space
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


def spy_orbit_tables(monkeypatch) -> list[int]:
    """A list that records the cloud size of every orbit table ``dynamics``
    and ``orbit_space`` build; a build that is refused records nothing."""
    built = []
    build = dynamics.build_orbit_table

    def spy(*args, **kwargs):
        table = build(*args, **kwargs)
        built.append(args[1].size)
        return table

    monkeypatch.setattr(dynamics, "build_orbit_table", spy)
    monkeypatch.setattr(orbit_space, "build_orbit_table", spy)
    return built


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def log2():
    return math.log(2.0)
