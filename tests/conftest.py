import re

import pytest

_criteria: dict[int, str] = {}


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name, for this test, by a
    wrapper that appends each call's positional arguments to a list, and
    returns that list.  Pass ``calls`` to count several bindings in one."""

    def install(module, name, calls=None):
        calls = [] if calls is None else calls
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        _criteria[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_criteria):
        verdict = "PASS" if _criteria[n] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {verdict}")
