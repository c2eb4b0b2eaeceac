"""Test hooks: a stop when PYTHONPATH names a package the tests do not import,
the package path in the header, per-criterion result lines after the summary."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import consensim

_CRITERIA_PREFIX = "test_acceptance.py::"


def _pythonpath_package() -> Path | None:
    # the consensim package that the first PYTHONPATH entry holding one names
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "consensim" / "__init__.py").is_file():
            return (Path(entry) / "consensim").resolve()
    return None


def pytest_configure(config):
    # pyproject's pythonpath puts this checkout's src/ ahead of PYTHONPATH, so
    # a PYTHONPATH that names another tree would otherwise test this one
    wanted = _pythonpath_package()
    imported = Path(consensim.__file__).resolve().parent
    if wanted is not None and wanted != imported:
        raise pytest.UsageError(
            f"PYTHONPATH names the consensim package {wanted}, but the tests "
            f"imported {imported}; run pytest from the checkout that holds {wanted}"
        )


def pytest_report_header(config):
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
