"""Test hooks: the package path in the header, per-criterion result lines after the summary."""

from __future__ import annotations

from pathlib import Path

import consensim

_CRITERIA_PREFIX = "test_acceptance.py::"


def pytest_report_header(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH
    return f"consensim under test: {Path(consensim.__file__).parent}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if _CRITERIA_PREFIX in nodeid:
                name = nodeid.split("::")[-1]
                results.setdefault(name, label)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(results):
        terminalreporter.write_line(f"{results[name]}  {name}")
