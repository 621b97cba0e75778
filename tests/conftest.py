"""Shared fixtures.

The root bundles at a = 0 are reused by many tests; finding them is the
single most expensive setup step, so they are session scoped.
"""

import pytest
from hypothesis import settings

from mono.rootsets import Window
from mono.rootwindow import find_roots

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# verdict lines registered by the acceptance tests; echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Standard windows: 3, 4 and 5 roots of z + e^z = 0.  The imaginary span is
# asymmetric for the larger ones because the extra roots sit in the upper
# half plane (+10.78i, +17.11i) while their conjugates are excluded.
W3 = Window(-5.0, 5.0, -6.0, 6.0)
W4 = Window(-5.0, 5.0, -6.0, 12.0)
W5 = Window(-5.0, 5.0, -6.0, 18.0)


@pytest.fixture(scope="session")
def bundle3():
    return find_roots(0j, W3)


@pytest.fixture(scope="session")
def bundle4():
    return find_roots(0j, W4)


@pytest.fixture(scope="session")
def bundle5():
    return find_roots(0j, W5)
