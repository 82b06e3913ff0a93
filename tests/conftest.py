import sys

import pytest

from morgandk.theory import FULL_CONFIG, build_theory, first_attempt_signature

# (criterion number, summary, passed) triples, printed after the run
RESULTS: list[tuple[int, str, bool]] = []


@pytest.fixture(scope="session")
def record():
    def rec(num: int, label: str, ok: bool) -> None:
        RESULTS.append((num, label, ok))
    return rec


@pytest.fixture(scope="session")
def full_sig():
    return build_theory(FULL_CONFIG)


@pytest.fixture(scope="session")
def fa_sig():
    return first_attempt_signature()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[criterion {num:02d}] {status} - {label}")


@pytest.fixture
def default_recursion_limit():
    """For the depth tests: they show nothing under a raised limit."""
    assert sys.getrecursionlimit() <= 1000, sys.getrecursionlimit()
