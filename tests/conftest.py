"""Shared fixtures, the in-process CLI runner and the acceptance report hook."""

import contextlib
import io
import json
import random
import signal
from pathlib import Path

import pytest

from toricurve.cli import main
from toricurve.fan import Fan, load_fan, preset, star_subdivision

FIXTURES = Path(__file__).parent / "fixtures"


def ladder_fan(rays: int):
    """p3 star-subdivided at cones drawn by random.Random(7), up to `rays` rays."""
    fan, rng = preset("p3"), random.Random(7)
    while fan.n_rays < rays:
        fan = star_subdivision(fan, rng.choice(fan.max_cones))
    return fan


def run_main(argv):
    """``toricurve.cli.main(argv)`` in this process: (exit code, the report it printed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert report["exit_code"] == code
    return code, report


class OverBudget(BaseException):
    """Raised into the code under test when a ``budget`` runs out; not an
    Exception, so cli.main's error table cannot turn it into a report."""


@contextlib.contextmanager
def budget(seconds: float):
    """Stop the block with OverBudget once ``seconds`` of wall time pass
    (SIGALRM, so the main thread of a POSIX process only)."""
    def expire(signum, frame):
        raise OverBudget(f"the block outlived its {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def in_basis(fan, columns):
    """The fan with every ray n replaced by M n, M the matrix of these columns."""
    rays = tuple(tuple(sum(col[t] * x for col, x in zip(columns, ray)) for t in range(3))
                 for ray in fan.rays)
    return Fan(rays, fan.max_cones, fan.name)


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


@pytest.fixture(scope="session")
def double_cover():
    """Smooth, every wall closed with its cones on opposite sides, but the ring
    of rays around the z-axis winds twice: only validate's sheet count fails."""
    return load_fan(FIXTURES / "double_cover.fan")


@pytest.fixture(scope="session")
def probe_on_wall():
    """p3 in a basis that sends ray 0 to (1, 3, 7), the first of the fixed
    probes validate once tried."""
    return in_basis(preset("p3"), ((1, 3, 7), (0, 1, 0), (0, 0, 1)))
