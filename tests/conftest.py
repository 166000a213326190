"""Shared fixtures and the acceptance report hook."""

import random
from pathlib import Path

import pytest

from toricurve.fan import load_fan, preset, star_subdivision

FIXTURES = Path(__file__).parent / "fixtures"


def ladder_fan(rays: int):
    """p3 star-subdivided at cones drawn by random.Random(7), up to `rays` rays."""
    fan, rng = preset("p3"), random.Random(7)
    while fan.n_rays < rays:
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
    return fan


# one line per acceptance criterion, echoed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def p3():
    return preset("p3")


@pytest.fixture(scope="session")
def p1p1p1():
    return preset("p1p1p1")


@pytest.fixture(scope="session")
def blp3():
    return preset("bl-p3-point")


@pytest.fixture(scope="session")
def nonprojective():
    return load_fan(FIXTURES / "nonprojective.fan")
