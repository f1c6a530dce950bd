"""Shared fixtures for the test suite.

Ground sets of the sizes the paper's examples use, deterministic RNGs
(each test function gets a fresh, seeded generator), and a couple of
frequently-reused objects (the Example 3.2 function, the Example 2.2
constraint data).
"""

from __future__ import annotations

import gc
import logging
import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.core import GroundSet, SetFamily, SetFunction

# Seeded Hypothesis profiles: ``derandomize=True`` makes every property
# test a pure function of its code, so runs are reproducible across the
# CI python matrix (no cross-job flakes from random example draws).
# ``deadline=None`` because exact-backend tables are interpreter-speed.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


class _PendingTaskGate(logging.Handler):
    """Collects asyncio's "Task was destroyed but it is pending!" records.

    asyncio only *logs* a task that is garbage-collected while still
    pending -- it never reaches the unraisable hook the ``filterwarnings``
    gate in pyproject.toml watches -- so this handler on the ``asyncio``
    logger is the leak gate for tasks.
    """

    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.records: list = []

    def emit(self, record: logging.LogRecord) -> None:
        if "Task was destroyed but it is pending" in record.getMessage():
            self.records.append(self.format(record))


_TASK_GATE = _PendingTaskGate()
logging.getLogger("asyncio").addHandler(_TASK_GATE)


@pytest.fixture(autouse=True)
def _no_pending_task_destroyed():
    """Fail the test during which a pending task was destroyed."""
    seen = len(_TASK_GATE.records)
    yield
    leaked = _TASK_GATE.records[seen:]
    del _TASK_GATE.records[seen:]  # reported here, not again at exit
    if leaked:
        pytest.fail(
            "an asyncio task was destroyed while pending:\n"
            + "\n".join(leaked),
            pytrace=False,
        )


def pytest_sessionfinish(session):
    """Fail the run on any such record, also one logged after the last
    test or outside ``tests/`` (where the fixture above does not run)."""
    gc.collect()
    if not _TASK_GATE.records:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_sep("=", "asyncio tasks destroyed while pending", red=True)
        reporter.write_line("\n".join(_TASK_GATE.records))
    if session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG, freshly seeded per test."""
    return random.Random(0xD1FF)


@pytest.fixture
def ground_a() -> GroundSet:
    """``S = {A}`` (Remark 3.6's ground set)."""
    return GroundSet("A")


@pytest.fixture
def ground_abc() -> GroundSet:
    """``S = {A, B, C}`` (Examples 3.2 and 3.4)."""
    return GroundSet("ABC")


@pytest.fixture
def ground_abcd() -> GroundSet:
    """``S = {A, B, C, D}`` (Examples 2.2-2.10 and 4.3)."""
    return GroundSet("ABCD")


@pytest.fixture
def ground_5() -> GroundSet:
    return GroundSet("ABCDE")


@pytest.fixture
def example_32_function(ground_abc: GroundSet) -> SetFunction:
    """Example 3.2: ``f((/)) = f(C) = 2`` and ``f = 1`` elsewhere."""
    return SetFunction.from_dict(
        ground_abc, {"": 2, "C": 2}, default=1, exact=True
    )


@pytest.fixture
def example_22_family(ground_abcd: GroundSet) -> SetFamily:
    """Example 2.2's family ``{B, CD}``."""
    return SetFamily.of(ground_abcd, "B", "CD")
