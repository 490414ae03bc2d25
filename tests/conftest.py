"""Shared test configuration.

The terminal-summary hook prints one PASSED/FAILED line per acceptance
test so the gate can be read at a glance at the end of a run.
"""

import os

import pytest

ACCEPTANCE_FILE = "test_acceptance.py"


def _acceptance_name(nodeid):
    name = nodeid.split("::")[-1]
    if name.startswith("test_"):
        name = name[len("test_"):]
    return name


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if ACCEPTANCE_FILE not in nodeid:
                continue
            when = getattr(report, "when", "call")
            if outcome in ("passed", "failed") and when != "call":
                continue
            duration = getattr(report, "duration", 0.0)
            label = {"passed": "PASSED", "failed": "FAILED",
                     "error": "FAILED", "skipped": "SKIPPED"}[outcome]
            lines.append((nodeid, label, duration))
    if not lines:
        return
    writer = terminalreporter
    writer.section("acceptance summary")
    for nodeid, label, duration in sorted(lines):
        name = _acceptance_name(nodeid)
        writer.write_line(f"ACCEPTANCE {name}: {label} ({duration:.1f}s)")


@pytest.fixture
def one_cpu():
    """Runs the test on one CPU of its affinity mask, where an experiment
    runs its searches in this process."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity masks on this platform")
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)
