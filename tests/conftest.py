"""Session guard: a test run must leave the working tree as it found it.

Every file under the repository root is listed with its modification time
before the first test and after the last; a file added, changed or removed
in between fails the run. Caches that Python and pytest keep there are
skipped.

The ``started`` and ``halves`` fixtures spy on the threads a test starts
and on the work it hands a forward's second thread.
"""

import os
import threading
from pathlib import Path

import pytest

from stochpool.attention import _Worker

REPO = Path(__file__).resolve().parents[1]
SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache"}


def snapshot(root) -> dict:
    """Relative path -> mtime in ns for every file under ``root``."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS]
        for name in filenames:
            path = Path(dirpath, name)
            files[path.relative_to(root).as_posix()] = path.stat().st_mtime_ns
    return files


def tree_changes(before: dict, after: dict) -> list:
    """Sorted ``added``/``changed``/``removed`` lines between two snapshots."""
    added = [f"added {p}" for p in after.keys() - before.keys()]
    removed = [f"removed {p}" for p in before.keys() - after.keys()]
    changed = [f"changed {p}" for p in before.keys() & after.keys() if before[p] != after[p]]
    return sorted(added + removed + changed)


@pytest.fixture(scope="session", autouse=True)
def working_tree_untouched():
    before = snapshot(REPO)
    yield
    changes = tree_changes(before, snapshot(REPO))
    if changes:
        pytest.fail("the test session wrote into the working tree:\n  " + "\n  ".join(changes))


@pytest.fixture
def started(monkeypatch):
    """The threads a test starts, on a host with two usable CPUs; each must be
    joined, and none left alive, by the end of the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started, joined = [], []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            super().join(timeout)
            joined.append(self)

    monkeypatch.setattr(threading, "Thread", Spy)
    before = threading.active_count()
    yield started
    assert threading.active_count() == before
    assert joined == started
    assert not any(t.is_alive() for t in started)


@pytest.fixture
def halves(monkeypatch):
    """(worker, n) for every ``_Worker.halves`` call a test makes."""
    halves = []
    real = _Worker.halves

    def spy(worker, run, n):
        halves.append((worker, n))
        return real(worker, run, n)

    monkeypatch.setattr(_Worker, "halves", spy)
    return halves
